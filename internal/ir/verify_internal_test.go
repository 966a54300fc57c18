package ir

import (
	"strings"
	"testing"
)

// TestVerifyCatchesUseListCorruption reaches into the package internals to
// break the invariants no public API can — or that the API breaks only
// through misuse (Remove without re-insert or Erase). The use list and the
// operand slots must agree in both directions: eraseTriviallyDead and
// HasOneUse trust the list, ReplaceAllUsesWith writes through it.
func TestVerifyCatchesUseListCorruption(t *testing.T) {
	// def -> use(def, def), plus a bystander other.
	build := func() (m *Module, def, other, use *Op) {
		m = NewModule()
		def = NewOp("test.def", nil, []Type{I64})
		m.Block().Append(def)
		other = NewOp("test.other", nil, []Type{I64})
		m.Block().Append(other)
		use = NewOp("test.use", []*Value{def.Result(0), def.Result(0)}, nil)
		m.Block().Append(use)
		if err := Verify(m); err != nil {
			t.Fatalf("well-formed module rejected: %v", err)
		}
		return
	}
	cases := []struct {
		name    string
		corrupt func(m *Module, def, other, use *Op)
		want    []string
	}{
		{
			// An operand whose value no longer records the use: a pass
			// that spliced the operand list by hand.
			name:    "operand missing from use list",
			corrupt: func(_ *Module, def, _, _ *Op) { def.Result(0).uses = nil },
			want:    []string{"op test.use: operand 0 missing from use list"},
		},
		{
			// The list says use reads other at slot 0; slot 0 holds def.
			name: "stale entry",
			corrupt: func(_ *Module, _, other, use *Op) {
				other.Result(0).uses = append(other.Result(0).uses, Use{use, 0})
			},
			want: []string{"op test.other: result 0", "operand 0 of test.use", "holds another value"},
		},
		{
			// The user shrank its operand list without telling the value.
			name: "index out of range",
			corrupt: func(_ *Module, _, _, use *Op) {
				use.operands = use.operands[:1]
			},
			want: []string{"op test.def: result 0", "operand 1 of test.use", "which has 1 operands"},
		},
		{
			// Remove keeps the operand uses so that the op can be put
			// back; one that never is keeps its producers alive forever.
			name:    "detached user",
			corrupt: func(_ *Module, _, _, use *Op) { use.Remove() },
			want:    []string{"op test.def: result 0", "test.use", "detached from the module"},
		},
		{
			// Same, one level down: the user sits in a region of an op
			// that was unlinked, so its own parent pointer looks fine.
			name: "user inside a detached op",
			corrupt: func(m *Module, def, _, _ *Op) {
				holder := NewOp("test.holder", nil, nil)
				inner := NewOp("test.inner", []*Value{def.Result(0)}, nil)
				holder.AddRegion().Block().Append(inner)
				m.Block().Append(holder)
				holder.Remove()
			},
			want: []string{"op test.def: result 0", "operand 0 of test.inner", "detached from the module"},
		},
		{
			name: "stale entry on a block argument",
			corrupt: func(m *Module, _, _, use *Op) {
				holder := NewOp("test.holder", nil, nil)
				arg := holder.AddRegion().Block().AddArg(I64)
				m.Block().Append(holder)
				arg.uses = append(arg.uses, Use{use, 1})
			},
			want: []string{"op test.holder: block argument 0", "operand 1 of test.use", "holds another value"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, def, other, use := build()
			tc.corrupt(m, def, other, use)
			err := Verify(m)
			if err == nil {
				t.Fatal("verifier accepted a corrupted use list")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error = %q, want it to contain %q", err, want)
				}
			}
		})
	}
}
