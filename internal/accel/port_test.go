package accel_test

import (
	"strings"
	"testing"

	"configwall/internal/accel"
)

func pair(kind accel.Kind, launch, sync uint32, writes ...accel.ConfigWrite) *accel.Port {
	return &accel.Port{Accel: "t", Kind: kind, Writes: writes, Launch: launch, Sync: sync}
}

func TestValidateRejectsMalformedPorts(t *testing.T) {
	xy := func(id uint32, slots ...accel.FieldSlot) accel.ConfigWrite {
		return accel.ConfigWrite{ID: id, Name: "w", Slots: slots}
	}
	cases := []struct {
		name string
		port *accel.Port
		want string // "" = valid
	}{
		{"packed pair", pair(accel.RoCC, 8, 9, xy(0, accel.Slot("x", 0, 0, 16), accel.Slot("y", 0, 16, 48), accel.Slot("z", 1, 0, 64))), ""},
		{"packed CSR", pair(accel.CSR, 8, 9, xy(0, accel.Slot("x", 0, 0, 8), accel.Slot("y", 0, 8, 8))), ""},
		{"write id is the launch id", pair(accel.RoCC, 0, 9, accel.Register64(0, "x")), "twice"},
		{"write id is the sync id", pair(accel.RoCC, 8, 0, accel.Register64(0, "x")), "twice"},
		{"launch is sync", pair(accel.RoCC, 8, 8, accel.Register64(0, "x")), "twice"},
		{"two writes share an id", pair(accel.RoCC, 8, 9, accel.Register64(0, "x"), accel.Register64(0, "y")), "twice"},
		{"field in two writes", pair(accel.RoCC, 8, 9, accel.Register64(0, "x"), accel.Register64(1, "x")), `field "x" twice`},
		{"slot past bit 64", pair(accel.RoCC, 8, 9, xy(0, accel.Slot("x", 0, 60, 8))), "overflows"},
		{"zero-width slot", pair(accel.RoCC, 8, 9, xy(0, accel.Slot("x", 0, 0, 0))), "overflows"},
		{"overlapping slots", pair(accel.RoCC, 8, 9, xy(0, accel.Slot("x", 0, 0, 16), accel.Slot("y", 0, 15, 4))), "overlaps"},
		{"same bits, other register", pair(accel.RoCC, 8, 9, xy(0, accel.Slot("x", 0, 0, 16), accel.Slot("y", 1, 0, 16))), ""},
		{"CSR write in rs2", pair(accel.CSR, 8, 9, xy(0, accel.Slot("x", 1, 0, 32))), "register 1"},
		{"third register", pair(accel.RoCC, 8, 9, xy(0, accel.Slot("x", 2, 0, 32))), "register 2"},
	}
	for _, c := range cases {
		err := c.port.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Validate = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// registered outlives one run of the test: the registry is global.
var registered = &accel.Port{Accel: "port-test", Writes: []accel.ConfigWrite{accel.Register64(0, "x")}, Launch: 1, Sync: 2}

// TestRegisterIsByPointer: a port may be registered again (a target and a
// test both publish it; CI runs packages twice in a process), a second
// table under the same name may not, and neither may a malformed one.
func TestRegisterIsByPointer(t *testing.T) {
	p := registered
	for i := 0; i < 2; i++ {
		if err := accel.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if accel.PortFor("port-test") != p {
		t.Error("PortFor does not return the registered port")
	}
	clone := &accel.Port{Accel: p.Accel, Writes: p.Writes, Launch: 1, Sync: 2}
	if err := accel.Register(clone); err == nil {
		t.Error("a second port was registered under one name")
	}
	if err := accel.Register(&accel.Port{Writes: p.Writes, Launch: 1, Sync: 2}); err == nil {
		t.Error("a port without an accelerator name was registered")
	}
	if err := accel.Register(pair(accel.RoCC, 8, 8)); err == nil {
		t.Error("a malformed port was registered")
	}
	if accel.PortFor("no-such-accelerator") != nil {
		t.Error("PortFor invented a port")
	}
	var none *accel.Port
	if none.Mates("x") != nil {
		t.Error("the nil port has mates")
	}
	if got := p.Mates("x"); got != nil || p.Packed() {
		t.Errorf("a lone field has mates %v", got)
	}
}
