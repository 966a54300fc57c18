package core

// The target/workload registry: accelerator platforms and kernel families
// plug in by name, so new experiment cells — a third accelerator, a new
// workload shape — never require editing the engine (engine.go) or the
// runner (runner.go). The built-in Gemmini/OpenGeMM targets and the
// matmul-family workloads register themselves at package init; external
// code (e.g. examples/customaccel) registers its own at startup.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"configwall/internal/accel"
	"configwall/internal/ir"
	"configwall/internal/mem"
	"configwall/internal/workload"
)

// Buffer is one function-argument buffer of a workload instance. The engine
// places buffers contiguously in simulated memory, in order, and passes
// each base address in the next argument register.
type Buffer struct {
	// Bytes is the buffer size; it also reserves the address range.
	Bytes uint64
	// Init fills the buffer's initial contents (nil leaves it zeroed).
	Init func(m *mem.Memory, base uint64)
	// Verify checks the buffer's final contents against the golden model
	// (nil means the buffer is not checked).
	Verify func(m *mem.Memory, base uint64) error
}

// Instance is one concrete (workload, target, size) build: the accfg-level
// IR module plus the execution plan the engine needs to run and verify it.
type Instance struct {
	// Module is the workload IR; its "main" function takes one argument
	// per buffer.
	Module *ir.Module
	// Buffers lists the function-argument buffers in signature order.
	Buffers []Buffer
}

// Workload is a kernel family parameterized by the sweep size n.
type Workload struct {
	// Name keys the workload in the registry and in Experiment.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Build constructs the workload instance for a target at size n. It
	// must return an error for targets it has no builder for.
	Build func(t Target, n int) (Instance, error)
}

// table is one name-keyed registry. Registries are written a handful of
// times at start-up (package init, an embedder's main) and read on every
// request and every cold cell, so the map is immutable and published
// through an atomic pointer: add copies it under mu and swaps the copy in,
// readers load the pointer and take no lock. Register before you look up:
// a reader sees exactly the registrations that completed before its load.
type table[T any] struct {
	kind string // "target" or "workload", for error messages
	mu   sync.Mutex
	m    atomic.Pointer[map[string]T]
}

// snapshot returns the current map (nil before the first add); no one
// writes to it.
func (t *table[T]) snapshot() map[string]T {
	if p := t.m.Load(); p != nil {
		return *p
	}
	return nil
}

func (t *table[T]) add(name string, v T) error {
	if name == "" {
		return fmt.Errorf("registry: cannot register %s with empty name", t.kind)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snapshot()
	if _, dup := old[name]; dup {
		return fmt.Errorf("registry: %s %q already registered", t.kind, name)
	}
	next := make(map[string]T, len(old)+1)
	maps.Copy(next, old)
	next[name] = v
	t.m.Store(&next)
	return nil
}

// get returns the entry registered under name; the error for unknown names
// lists the valid ones.
func (t *table[T]) get(name string) (T, error) {
	v, ok := t.snapshot()[name]
	if !ok {
		return v, fmt.Errorf("registry: unknown %s %q (registered: %v)", t.kind, name, t.names())
	}
	return v, nil
}

// names returns the registered names, sorted.
func (t *table[T]) names() []string {
	m := t.snapshot()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	targets   = table[Target]{kind: "target"}
	workloads = table[Workload]{kind: "workload"}
)

// RegisterTarget adds a target platform to the registry and publishes its
// configuration port for the static analyses (accel.PortFor). Registering a
// duplicate or unnamed target, a port that describes another accelerator,
// or a device that sits behind another port than the target's is an error:
// the lowering reads Target.Port and the simulator the device's.
func RegisterTarget(t Target) error {
	if t.NewDevice != nil {
		if dev := t.NewDevice(); dev == nil || dev.ConfigPort() != t.Port {
			return fmt.Errorf("registry: target %q builds a device behind another port than its own", t.Name)
		}
	}
	if t.Port != nil {
		if t.Port.Accel != t.Name {
			return fmt.Errorf("registry: target %q has the port of accelerator %q", t.Name, t.Port.Accel)
		}
		if err := accel.Register(t.Port); err != nil {
			return fmt.Errorf("registry: target %q: %w", t.Name, err)
		}
	}
	return targets.add(t.Name, t)
}

// MustRegisterTarget is RegisterTarget, panicking on error (for init-time
// registration).
func MustRegisterTarget(t Target) {
	if err := RegisterTarget(t); err != nil {
		panic(err)
	}
}

// LookupTarget returns the registered target with the given name; the error
// for unknown names lists the valid ones.
func LookupTarget(name string) (Target, error) { return targets.get(name) }

// TargetNames returns the registered target names, sorted.
func TargetNames() []string { return targets.names() }

// RegisterWorkload adds a workload to the registry. Registering a
// duplicate, unnamed, or builderless workload is an error.
func RegisterWorkload(w Workload) error {
	// An unnamed workload is reported as unnamed (by add), builder or not.
	if w.Name != "" && w.Build == nil {
		return fmt.Errorf("registry: workload %q has no Build function", w.Name)
	}
	return workloads.add(w.Name, w)
}

// MustRegisterWorkload is RegisterWorkload, panicking on error (for
// init-time registration).
func MustRegisterWorkload(w Workload) {
	if err := RegisterWorkload(w); err != nil {
		panic(err)
	}
}

// LookupWorkload returns the registered workload with the given name; the
// error for unknown names lists the valid ones.
func LookupWorkload(name string) (Workload, error) { return workloads.get(name) }

// WorkloadNames returns the registered workload names, sorted.
func WorkloadNames() []string { return workloads.names() }

// WorkloadMatmul is the paper's square tiled matmul; WorkloadRectMM and
// WorkloadMatvec are the rectangular and panel variants.
const (
	WorkloadMatmul = workload.ShapeMatmul
	WorkloadRectMM = workload.ShapeRectMM
	WorkloadMatvec = workload.ShapeMatvec
)

func init() {
	MustRegisterTarget(GemminiTarget())
	MustRegisterTarget(OpenGeMMTarget())
	for _, shape := range workload.Shapes {
		MustRegisterWorkload(matmulWorkload(shape))
	}
}

// matmulWorkload wraps one matmul-family shape as a registered workload,
// dispatching to the per-target IR builder.
func matmulWorkload(shape workload.Shape) Workload {
	return Workload{
		Name:        shape.Name,
		Description: shape.Description,
		Build: func(t Target, n int) (Instance, error) {
			mDim, kDim, nDim := shape.Dims(n)
			return matmulInstance(t, shape.Name, mDim, kDim, nDim)
		},
	}
}

// matmulInstance builds the M x K x N matmul instance for a target: the IR
// module, deterministic input matrices, and golden-model verification of C
// (the golden product is shared per shape through goldenProducts).
// Any target that provides the MatmulMKN hook participates — the built-ins
// and externally registered accelerators alike.
func matmulInstance(t Target, shapeName string, mDim, kDim, nDim int) (Instance, error) {
	if t.MatmulMKN == nil {
		return Instance{}, fmt.Errorf("workload %s: target %q provides no MatmulMKN builder", shapeName, t.Name)
	}
	m, err := t.MatmulMKN(mDim, kDim, nDim)
	if err != nil {
		return Instance{}, err
	}

	a := make([]int8, mDim*kDim)
	b := make([]int8, kDim*nDim)
	workload.Fill(a, 1)
	workload.Fill(b, 2)
	outBytes := t.OutputBytes
	product := func() []int32 { return workload.MatmulInt8MKN(a, b, mDim, kDim, nDim) }

	return Instance{
		Module: m,
		Buffers: []Buffer{
			int8InputBuffer(a),
			int8InputBuffer(b),
			{
				Bytes: uint64(mDim * nDim * outBytes),
				Verify: func(mm *mem.Memory, base uint64) error {
					return verifyMatmulOutput(mm, base, mDim, kDim, nDim, outBytes, product)
				},
			},
		},
	}, nil
}

// int8InputBuffer wraps a pre-filled int8 slice as an input buffer. Init
// copies its bytes through one writable mem.Region view, which marks the
// pages dirty and the lines written.
func int8InputBuffer(data []int8) Buffer {
	img := make([]byte, len(data))
	for i, v := range data {
		img[i] = uint8(v)
	}
	return Buffer{
		Bytes: uint64(len(data)),
		Init: func(mm *mem.Memory, base uint64) {
			copy(mm.Region(base, uint64(len(img))), img)
		},
	}
}

// verifyMatmulOutput compares the simulated C buffer of shape (m, k, n)
// against the golden product at the target's output width (int8 saturated
// or int32): one comparison of C, read through one read-only mem.View,
// with the memoized expected bytes. Only a mismatch walks the elements, to
// report the first.
func verifyMatmulOutput(memory *mem.Memory, cBase uint64, m, k, n, outBytes int, product func() []int32) error {
	if outBytes != 1 && outBytes != 4 {
		return fmt.Errorf("unsupported output width %d", outBytes)
	}
	expected := goldenProducts.image(m, k, n, outBytes, product)
	c := memory.View(cBase, uint64(len(expected)))
	if bytes.Equal(c, expected) {
		return nil
	}
	golden := goldenProducts.get(m, k, n, product)
	for i, want := range golden {
		if outBytes == 1 {
			if got := int8(c[i]); got != workload.SaturateInt8(want) {
				return fmt.Errorf("C[%d] = %d, want %d (saturated from %d)", i, got, workload.SaturateInt8(want), want)
			}
		} else if got := int32(binary.LittleEndian.Uint32(c[4*i:])); got != want {
			return fmt.Errorf("C[%d] = %d, want %d", i, got, want)
		}
	}
	return nil
}
