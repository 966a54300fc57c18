// Custom accelerator (paper Figure 8's "Your Acc" slot): the accfg
// abstraction, all its optimization passes and the final lowering are
// target-agnostic — only a table describing the configuration interface and
// a device model are accelerator-specific. This example brings up a
// brand-new CSR-configured vector-scale accelerator ("scaler") and plugs it
// into the experiment engine through the registry, without touching any
// engine code:
//
//  1. write the configuration port as a table (accel.Port): which CSR
//     carries which field, what launches, what is polled,
//
//  2. define the device model's Launch (functional behavior + timing),
//
//  3. register the target and a "rowscale" workload (IR builder + buffer
//     plan + golden verification),
//
//  4. sweep all four pipeline variants on the shared concurrent runner —
//     the same compile/simulate/verify path the paper's figures use.
//
//     go run ./examples/customaccel
package main

import (
	"context"
	"fmt"
	"os"

	"configwall/internal/accel"
	"configwall/internal/core"
	"configwall/internal/dialects/accfg"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
	"configwall/internal/mem"
	"configwall/internal/riscv"
)

// CSR map of the custom device.
const (
	csrSrc uint32 = 0x7c0 + iota
	csrDst
	csrLen
	csrScale
	csrLaunch
	csrBusy
)

// port is the whole of the accelerator-specific compiler input: the generic
// lowering turns setup fields into these CSR writes, launch into a write of
// 1 to csrLaunch and await into a poll of csrBusy (compare paper Figure 8,
// step 5). Staged CSRs make it a concurrent-configuration device.
var port = &accel.Port{
	Accel: "scaler",
	Mode:  accel.Concurrent,
	Kind:  accel.CSR,
	Writes: []accel.ConfigWrite{
		accel.Register64(csrSrc, "src"),
		accel.Register64(csrDst, "dst"),
		accel.Register64(csrLen, "len"),
		accel.Register64(csrScale, "scale"),
	},
	Launch:      csrLaunch,
	LaunchValue: 1,
	Sync:        csrBusy,
}

// rowCols is the row width of the rowscale workload; scaleBy is the factor.
const (
	rowCols = 64
	scaleBy = 3
)

// scaler multiplies a vector of int32 by a scalar: dst[i] = src[i] * scale,
// at 8 elements/cycle. The embedded port is the descriptive half of
// accel.Device.
type scaler struct {
	*accel.Port
	staging map[uint32]uint32
}

func (s *scaler) WriteConfig(id uint32, lo, _ uint64) {
	s.staging[id] = uint32(lo)
}

func (s *scaler) Launch(m *mem.Memory) (accel.Launch, error) {
	src := uint64(s.staging[csrSrc])
	dst := uint64(s.staging[csrDst])
	n := uint64(s.staging[csrLen])
	scale := int32(s.staging[csrScale])
	if n == 0 {
		return accel.Launch{}, accel.ErrBadConfig("scaler", "zero length")
	}
	for i := uint64(0); i < n; i++ {
		v := int32(m.Read32(src + 4*i))
		m.Write32(dst+4*i, uint32(v*scale))
	}
	return accel.Launch{Ops: n, Cycles: n/8 + 4}, nil
}

// scalerTarget assembles the platform the same way core.GemminiTarget and
// core.OpenGeMMTarget do — nothing here is special-cased by the engine.
func scalerTarget() core.Target {
	return core.Target{
		Name:        "scaler",
		Port:        port,
		PeakOps:     8, // 8 elements/cycle, one multiply each
		NewDevice:   func() accel.Device { return &scaler{Port: port, staging: map[uint32]uint32{}} },
		Cost:        riscv.SnitchCost(),
		OutputBytes: 4,
	}
}

// buildRowScale builds the workload IR: scale each of the n rows of a
// matrix by scaleBy, one launch per row.
func buildRowScale(rows int) (*ir.Module, error) {
	m := ir.NewModule()
	bufT := ir.MemRef(ir.I32, rows, rowCols)
	f := fnc.NewFunc("main", ir.FuncType([]ir.Type{bufT, bufT}, nil))
	m.Append(f.Op)
	b := ir.AtEnd(f.Body())
	src := memref.NewExtractPointer(b, f.Body().Arg(0))
	dst := memref.NewExtractPointer(b, f.Body().Arg(1))

	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, int64(rows), ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	loop := scf.NewFor(b, lb, ub, step)
	lbld := ir.AtEnd(loop.Body())
	row := arith.NewIndexCast(lbld, loop.InductionVar(), ir.I64)
	rowBytes := arith.NewMul(lbld, row, arith.NewConstant(lbld, rowCols*4, ir.I64))
	setup := accfg.NewSetup(lbld, "scaler", nil, []accfg.Field{
		{Name: "src", Value: arith.NewAdd(lbld, src, rowBytes)},
		{Name: "dst", Value: arith.NewAdd(lbld, dst, rowBytes)},
		{Name: "len", Value: arith.NewConstant(lbld, rowCols, ir.I64)},
		{Name: "scale", Value: arith.NewConstant(lbld, scaleBy, ir.I64)},
	})
	launch := accfg.NewLaunch(lbld, setup.State())
	accfg.NewAwait(lbld, launch.Token())
	scf.NewYield(lbld)
	fnc.NewReturn(b)

	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("rowscale IR invalid: %w", err)
	}
	return m, nil
}

// rowScaleWorkload packages the IR builder, input initialization and golden
// verification as a registered workload: the engine handles buffer
// placement, codegen, simulation and the verify sweep.
func rowScaleWorkload() core.Workload {
	return core.Workload{
		Name:        "rowscale",
		Description: fmt.Sprintf("scale each row of an n x %d int32 matrix by %d, one launch per row", rowCols, scaleBy),
		Build: func(t core.Target, n int) (core.Instance, error) {
			if t.Name != "scaler" {
				return core.Instance{}, fmt.Errorf("workload rowscale: no builder for target %q", t.Name)
			}
			m, err := buildRowScale(n)
			if err != nil {
				return core.Instance{}, err
			}
			elems := n * rowCols
			return core.Instance{
				Module: m,
				Buffers: []core.Buffer{
					{
						Bytes: uint64(4 * elems),
						Init: func(mm *mem.Memory, base uint64) {
							for i := 0; i < elems; i++ {
								mm.Write32(base+uint64(4*i), uint32(i))
							}
						},
					},
					{
						Bytes: uint64(4 * elems),
						Verify: func(mm *mem.Memory, base uint64) error {
							for i := 0; i < elems; i++ {
								if got := int32(mm.Read32(base + uint64(4*i))); got != int32(i)*scaleBy {
									return fmt.Errorf("dst[%d] = %d, want %d", i, got, int32(i)*scaleBy)
								}
							}
							return nil
						},
					},
				},
			}, nil
		},
	}
}

func main() {
	// Plug the new platform and kernel into the experiment registry; from
	// here on they are addressable by name like the built-ins.
	if err := core.RegisterTarget(scalerTarget()); err != nil {
		fatal("%v", err)
	}
	if err := core.RegisterWorkload(rowScaleWorkload()); err != nil {
		fatal("%v", err)
	}

	const rows = 16
	exps := core.Sweep([]string{"scaler"}, []string{"rowscale"}, core.Pipelines, []int{rows})
	results, err := core.NewRunner(0).RunAll(context.Background(), exps, core.RunOptions{})
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("custom 'scaler' accelerator, %d launches of %d-element row scaling\n", rows, rowCols)
	fmt.Printf("(registered as target %q + workload %q; engine code untouched):\n\n", "scaler", "rowscale")
	base := results[0]
	for _, r := range results {
		fmt.Printf("%-10s %6d cycles  (%d config writes, %d config bytes, verified=%v)\n",
			r.Pipeline, r.Cycles, r.ConfigInstrs, r.ConfigBytes, r.Verified)
	}
	all := results[len(results)-1]
	fmt.Printf("\nspeedup base -> all: %.2fx — every shared pass reused; only the\n",
		float64(base.Cycles)/float64(all.Cycles))
	fmt.Println("port table, the device model's Launch and the workload plan were new.")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "customaccel: "+format+"\n", args...)
	os.Exit(1)
}
