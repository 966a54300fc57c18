package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"configwall/internal/core"
	"configwall/internal/irgen"
	"configwall/internal/riscv"
)

const fuzzGolden = "testdata/fuzz.golden"

// fuzzGoldenPrograms is how many `cwfuzz -seed 1` programs per target the
// fuzz golden compiles.
const fuzzGoldenPrograms = 100

// TestFuzzProgramsGolden holds what codegen makes of generated programs to
// testdata/fuzz.golden: for the first 100 `cwfuzz -seed 1` programs of each
// target, every pipeline, one line with the instruction count and an FNV-64
// hash of the resolved program — opcode, registers, immediate, funct7,
// class and branch target index of every instruction. The built-in cells
// never nest an scf.if at the end of a block, bind two labels at one
// instruction or spill the way random programs do; this golden does. It
// hashes resolved targets rather than label text, so label naming and
// printing are free to change and the code the simulator runs is not.
// Rewrite it with -update only for a change meant to move generated code.
func TestFuzzProgramsGolden(t *testing.T) {
	var lines []string
	for _, tn := range []string{"gemmini", "opengemm"} {
		tg, err := core.LookupTarget(tn)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := irgen.ProfileFor(tn)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fuzzGoldenPrograms; i++ {
			seed := irgen.DeriveSeed(1, tn, i)
			prog, err := irgen.Generate(prof, seed)
			if err != nil {
				t.Fatalf("%s program %d: %v", tn, i, err)
			}
			sizes := make([]uint64, len(prog.Buffers))
			for k, buf := range prog.Buffers {
				sizes[k] = buf.Bytes
			}
			for _, p := range core.Pipelines {
				m := prog.Module.Clone()
				if err := tg.PassPipeline(p).Run(m); err != nil {
					t.Fatalf("%s program %d %s: %v", tn, i, p, err)
				}
				cp, err := core.CompileModule(m, sizes, core.Layout{BufferBase: 0x1000, Align: 64, StackBase: 0xF0000})
				if err != nil {
					t.Fatalf("%s program %d %s: %v", tn, i, p, err)
				}
				lines = append(lines, fmt.Sprintf("%s %d s%d %s instrs=%d code=%016x", tn, i, seed, p, len(cp.Instrs), programHash(cp.Program)))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(fuzzGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fuzzGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d programs, %s has %d lines", len(lines), fuzzGolden, len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("program %d moved:\n got %s\nwant %s", i, lines[i], wantLines[i])
		}
	}
}

// programHash is an FNV-64 hash of the program as the simulator runs it:
// the decoded form, whose branch targets are instruction indices.
func programHash(p *riscv.Program) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, di := range riscv.Decode(p, riscv.FlatCost{PerInstr: 1}).Instrs {
		buf[0], buf[1], buf[2], buf[3], buf[4] = byte(di.Op), byte(di.Rd), byte(di.Rs1), byte(di.Rs2), byte(di.Class)
		binary.LittleEndian.PutUint64(buf[8:], uint64(di.Imm))
		binary.LittleEndian.PutUint32(buf[16:], di.Funct7)
		binary.LittleEndian.PutUint32(buf[20:], uint32(di.Target))
		h.Write(buf[:])
	}
	return h.Sum64()
}
