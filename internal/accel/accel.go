// Package accel defines the accelerator-side contract of the co-simulator:
// a configuration port (written by RoCC custom instructions or CSR writes),
// a launch trigger, and a busy/duration model. Two configuration schemes
// exist, matching the paper's taxonomy (§2.2):
//
//   - Sequential: the host stalls when it touches the accelerator while a
//     computation is in flight (Gemmini-style).
//   - Concurrent: configuration writes land in staging registers while the
//     accelerator runs; only launches and barriers synchronize
//     (OpenGeMM-style).
package accel

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"configwall/internal/mem"
)

// Scheme is the configuration scheme of a device (paper §2.2).
type Scheme int

// Configuration schemes.
const (
	// Sequential configuration: no configuration while running.
	Sequential Scheme = iota
	// Concurrent configuration: staged configuration while running.
	Concurrent
)

func (s Scheme) String() string {
	if s == Concurrent {
		return "concurrent"
	}
	return "sequential"
}

// Kind is the host-side mechanism of a configuration port. It alone decides
// what one write costs and how the lowering spells it.
type Kind int

// Port kinds.
const (
	// RoCC ports are written by custom instructions carrying two 64-bit
	// source registers and synchronize with a fence instruction.
	RoCC Kind = iota
	// CSR ports are written one 32-bit register at a time (rs1 only) and
	// synchronize by polling a busy register.
	CSR
)

// WriteBytes returns the configuration bytes one write carries: a RoCC
// register pair or one 32-bit CSR (paper §4.6).
func (k Kind) WriteBytes() uint64 {
	if k == CSR {
		return 4
	}
	return 16
}

// HostInstrs returns the host instructions one write costs with its operand
// set-up: two register loads and the custom instruction, or one value
// set-up and the csrw (paper §4.6; ROADMAP item 7(b) sweeps it).
func (k Kind) HostInstrs() int {
	if k == CSR {
		return 2
	}
	return 3
}

// FieldSlot places one accfg field inside a write's source registers.
type FieldSlot struct {
	Field  string
	Reg    int // 0 = rs1, 1 = rs2 (RoCC only)
	Offset uint
	Bits   uint
}

// Slot builds a FieldSlot; device tables in other packages use it where an
// unkeyed composite literal would fail go vet.
func Slot(field string, reg int, offset, bits uint) FieldSlot {
	return FieldSlot{Field: field, Reg: reg, Offset: offset, Bits: bits}
}

// ConfigWrite is one write of the configuration interface and the fields it
// carries: a RoCC funct7 with bit-packed slots, or a CSR address.
type ConfigWrite struct {
	ID    uint32
	Name  string
	Slots []FieldSlot
}

// Register64 is the unpacked write: one field filling the whole of rs1, the
// way every CSR port carries its fields.
func Register64(id uint32, field string) ConfigWrite {
	return ConfigWrite{ID: id, Name: field, Slots: []FieldSlot{Slot(field, 0, 0, 64)}}
}

// Port is the one description of an accelerator's configuration interface
// (DESIGN.md §1, "The configuration port"). The device model embeds it for
// the descriptive half of Device, the lowering walks Writes, the static
// analyses read its write groups by accelerator name (PortFor), the program
// generator derives its field groups from it and the roofline its raw
// bandwidth. A Port is shared by pointer and never modified after it is
// first used.
type Port struct {
	// Accel is the accelerator name used in accfg types.
	Accel string
	// Mode is the configuration scheme.
	Mode Scheme
	Kind Kind
	// Writes lists the configuration writes in issue order. Every field
	// lives in exactly one write; fields sharing a write are rewritten
	// together.
	Writes []ConfigWrite
	// Launch is the id whose write starts a computation, LaunchValue the
	// value written to it.
	Launch      uint32
	LaunchValue int64
	// Sync is the fence funct7 (RoCC) or the busy register polled until it
	// reads zero (CSR).
	Sync uint32

	once  sync.Once           // guards what build derives:
	index map[string]int      // field -> index into Writes
	mates map[string][]string // field -> the other fields of its write
}

// Name implements Device.
func (p *Port) Name() string { return p.Accel }

// Scheme implements Device.
func (p *Port) Scheme() Scheme { return p.Mode }

// ConfigBytes implements Device.
func (p *Port) ConfigBytes(uint32) uint64 { return p.Kind.WriteBytes() }

// IsLaunch implements Device.
func (p *Port) IsLaunch(id uint32) bool { return id == p.Launch }

// IsFence implements Device: only RoCC ports synchronize with a write.
func (p *Port) IsFence(id uint32) bool { return p.Kind == RoCC && id == p.Sync }

// StatusID implements Device: only CSR ports have a polled busy register.
func (p *Port) StatusID() (uint32, bool) { return p.Sync, p.Kind == CSR }

// Validate reports whether the table is well formed: write ids unique and
// distinct from Launch and Sync, every field in exactly one write, every
// slot inside its 64-bit register and clear of its neighbours, CSR writes
// in rs1 only. Register refuses a port that is not.
func (p *Port) Validate() error {
	ids := map[uint32]bool{p.Launch: true}
	fields := map[string]bool{}
	for _, w := range append([]ConfigWrite{{ID: p.Sync, Name: "sync"}}, p.Writes...) {
		if ids[w.ID] {
			return fmt.Errorf("accel: port %q uses id %#x twice (%s)", p.Accel, w.ID, w.Name)
		}
		ids[w.ID] = true
		var used [2]uint64
		for _, s := range w.Slots {
			if fields[s.Field] {
				return fmt.Errorf("accel: port %q carries field %q twice", p.Accel, s.Field)
			}
			fields[s.Field] = true
			if s.Reg < 0 || s.Reg > 1 || (p.Kind == CSR && s.Reg != 0) {
				return fmt.Errorf("accel: port %q field %q is in register %d (rs1 = 0; rs2 = 1 on RoCC only)", p.Accel, s.Field, s.Reg)
			}
			if s.Bits == 0 || s.Offset+s.Bits > 64 {
				return fmt.Errorf("accel: port %q field %q overflows its register (%d+%d)", p.Accel, s.Field, s.Offset, s.Bits)
			}
			mask := ^uint64(0) >> (64 - s.Bits) << s.Offset
			if used[s.Reg]&mask != 0 {
				return fmt.Errorf("accel: port %q field %q overlaps another field of %s", p.Accel, s.Field, w.Name)
			}
			used[s.Reg] |= mask
		}
	}
	return nil
}

// build derives the field index and the group mates, once, on first use.
func (p *Port) build() {
	p.once.Do(func() {
		p.index = map[string]int{}
		p.mates = map[string][]string{}
		for i, w := range p.Writes {
			for _, s := range w.Slots {
				p.index[s.Field] = i
				for _, o := range w.Slots {
					if o.Field != s.Field {
						p.mates[s.Field] = append(p.mates[s.Field], o.Field)
					}
				}
			}
		}
	})
}

// WriteFor returns the write that carries the named field (a pointer into
// Writes), or nil.
func (p *Port) WriteFor(field string) *ConfigWrite {
	p.build()
	if i, ok := p.index[field]; ok {
		return &p.Writes[i]
	}
	return nil
}

// Mates returns the other fields sharing the named field's write: writing
// the field rewrites them too. Nil for a field alone in its write, and on
// the nil port of an unregistered accelerator.
func (p *Port) Mates(field string) []string {
	if p == nil {
		return nil
	}
	p.build()
	return p.mates[field]
}

// Packed reports whether some write carries more than one field.
func (p *Port) Packed() bool {
	p.build()
	return len(p.mates) > 0
}

// ports maps accelerator names to their registered ports. It is written a
// handful of times at start-up and read by the analyses on every setup, so
// like core's registries it is an immutable map behind an atomic pointer:
// Register swaps a copy in, PortFor takes no lock.
var ports atomic.Pointer[map[string]*Port]

// Register publishes p under its accelerator name for PortFor. Registering
// the same port again is a no-op; a second port under one name, an unnamed
// or a malformed port is an error.
func Register(p *Port) error {
	if p.Accel == "" {
		return fmt.Errorf("accel: cannot register a port with empty accelerator name")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	for {
		old := ports.Load()
		next := map[string]*Port{}
		if old != nil {
			maps.Copy(next, *old)
		}
		if prev := next[p.Accel]; prev == p {
			return nil
		} else if prev != nil {
			return fmt.Errorf("accel: a different port is already registered for %q", p.Accel)
		}
		next[p.Accel] = p
		if ports.CompareAndSwap(old, &next) {
			return nil
		}
	}
}

// PortFor returns the port registered for an accelerator name, or nil: an
// accelerator nobody registered (hand-written test modules) has no known
// write groups and is treated as field-granular.
func PortFor(name string) *Port {
	if m := ports.Load(); m != nil {
		return (*m)[name]
	}
	return nil
}

// Launch is the outcome of a decoded launch request.
type Launch struct {
	// Ops is the number of useful operations the job performs (MACs count
	// as two ops, following the paper).
	Ops uint64
	// Cycles is how long the accelerator stays busy.
	Cycles uint64
}

// Device is a simulated accelerator attached to the host.
type Device interface {
	// Name returns the accelerator name (matches the accfg dialect name).
	Name() string
	// Scheme returns the configuration scheme.
	Scheme() Scheme
	// WriteConfig handles one configuration write. id is the RoCC funct7
	// or the CSR address; lo/hi are the payload registers (hi is zero for
	// CSR-style single-word ports).
	WriteConfig(id uint32, lo, hi uint64)
	// ConfigBytes returns how many configuration bytes a write to id
	// carries (16 for RoCC instruction pairs, 4 for 32-bit CSRs).
	ConfigBytes(id uint32) uint64
	// IsLaunch reports whether a write to id triggers a computation
	// (launch-semantic configuration writes, paper §2.4).
	IsLaunch(id uint32) bool
	// IsFence reports whether a write to id is a synchronization fence
	// (host blocks until idle).
	IsFence(id uint32) bool
	// StatusID returns the id polled for busy status (CSR-style barriers);
	// ok=false when the device has no status port.
	StatusID() (id uint32, ok bool)
	// Launch snapshots the staged configuration and functionally executes
	// the job against memory, returning its cost.
	Launch(m *mem.Memory) (Launch, error)
}

// ErrBadConfig wraps configuration decode failures so the simulator can
// surface them with context.
func ErrBadConfig(device string, format string, args ...any) error {
	return fmt.Errorf("%s: bad configuration: %s", device, fmt.Sprintf(format, args...))
}
