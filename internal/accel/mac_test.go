package accel_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/mem"
)

// The kernel's contract is that a launch through it is indistinguishable
// from the element-at-a-time loop: same memory image, same cost, same
// traffic counters. launch describes one job in device-neutral terms;
// device configures the real model for it and runReference runs it on a
// per-element loop written here with the checked accessors only.
type launch struct {
	gemmini           bool
	rows, cols, depth int // in elements
	a, b, c, d        uint64
	strideA, strideB  uint64
	strideC, strideD  uint64
	subA, subB        int8 // opengemm zero points
	relu              bool // gemmini activation
	outBytes          int
}

const memSize = 4 << 20

func gemminiLaunch(i, j, k int) launch {
	return launch{gemmini: true, rows: 16 * i, cols: 16 * j, depth: 16 * k, outBytes: 1}
}

func opengemmLaunch(m, n, k int) launch {
	return launch{rows: 8 * m, cols: 8 * n, depth: 8 * k, outBytes: 4}
}

func (l launch) device() accel.Device {
	if l.gemmini {
		dev := gemmini.New(gemmini.DefaultCost())
		for _, ci := range gemmini.Port.Writes {
			var rs [2]uint64
			for _, s := range ci.Slots {
				rs[s.Reg] |= l.gemminiField(s.Field) << s.Offset
			}
			dev.WriteConfig(ci.ID, rs[0], rs[1])
		}
		return dev
	}
	dev := opengemm.New(opengemm.DefaultCost())
	for _, w := range [][2]uint64{
		{uint64(opengemm.CsrPtrA), l.a}, {uint64(opengemm.CsrPtrB), l.b}, {uint64(opengemm.CsrPtrC), l.c},
		{uint64(opengemm.CsrM), uint64(l.rows / 8)}, {uint64(opengemm.CsrK), uint64(l.depth / 8)},
		{uint64(opengemm.CsrN), uint64(l.cols / 8)},
		{uint64(opengemm.CsrStrideA), l.strideA}, {uint64(opengemm.CsrStrideB), l.strideB},
		{uint64(opengemm.CsrStrideC), l.strideC},
		{uint64(opengemm.CsrSubtractions), uint64(uint8(l.subA)) | uint64(uint8(l.subB))<<8},
	} {
		dev.WriteConfig(uint32(w[0]), w[1], 0)
	}
	return dev
}

func (l launch) gemminiField(name string) uint64 {
	switch name {
	case "A":
		return l.a
	case "B":
		return l.b
	case "C":
		return l.c
	case "D":
		return l.d
	case "I":
		return uint64(l.rows / 16)
	case "J":
		return uint64(l.cols / 16)
	case "K":
		return uint64(l.depth / 16)
	case "stride_A":
		return l.strideA
	case "stride_B":
		return l.strideB
	case "stride_C":
		return l.strideC
	case "stride_D":
		return l.strideD
	case "act":
		if l.relu {
			return 1
		}
	}
	return 0
}

// runReference is the element-at-a-time model: every operand through a
// checked accessor, B read afresh for every output row, bias first and x
// ascending, the row stored before the next one starts.
func runReference(mm *mem.Memory, l launch) accel.Launch {
	acc := make([]int32, l.cols)
	for r := 0; r < l.rows; r++ {
		for cc := range acc {
			acc[cc] = 0
			if l.d != 0 {
				acc[cc] = int32(mm.Read32(l.d + uint64(r)*l.strideD + uint64(4*cc)))
			}
			for x := 0; x < l.depth; x++ {
				av := int32(int8(mm.Read8(l.a+uint64(r)*l.strideA+uint64(x)))) - int32(l.subA)
				bv := int32(int8(mm.Read8(l.b+uint64(x)*l.strideB+uint64(cc)))) - int32(l.subB)
				acc[cc] += av * bv
			}
		}
		for cc, v := range acc {
			addr := l.c + uint64(r)*l.strideC + uint64(cc*l.outBytes)
			if !l.gemmini {
				mm.Write32(addr, uint32(v))
				continue
			}
			if l.relu && v < 0 {
				v = 0
			}
			mm.Write8(addr, uint8(int8(max(-128, min(127, v)))))
		}
	}
	ops := 2 * uint64(l.rows) * uint64(l.cols) * uint64(l.depth)
	if l.gemmini {
		i, j, k := uint64(l.rows/16), uint64(l.cols/16), uint64(l.depth/16)
		cost := gemmini.DefaultCost()
		return accel.Launch{Ops: ops, Cycles: cost.StartupCycles + i*j*k*16 + i*j*cost.DrainCycles}
	}
	m, n, k := uint64(l.rows/8), uint64(l.cols/8), uint64(l.depth/8)
	return accel.Launch{Ops: ops, Cycles: m*n*k + opengemm.DefaultCost().PipelineCycles}
}

// checkLaunch runs l on the device model and on the reference from the same
// memory image and compares everything a simulation can observe.
func checkLaunch(t *testing.T, image []byte, l launch) {
	t.Helper()
	got, want := mem.New(memSize), mem.New(memSize)
	copy(got.Region(0, memSize), image)
	copy(want.Region(0, memSize), image)

	gotJob, err := l.device().Launch(got)
	if err != nil {
		t.Fatalf("%+v: %v", l, err)
	}
	wantJob := runReference(want, l)
	if gotJob != wantJob {
		t.Errorf("%+v: job = %+v, want %+v", l, gotJob, wantJob)
	}
	if got.BytesRead != want.BytesRead || got.BytesWritten != want.BytesWritten {
		t.Errorf("%+v: traffic = %d read / %d written, want %d / %d",
			l, got.BytesRead, got.BytesWritten, want.BytesRead, want.BytesWritten)
	}
	if g, w := got.Snapshot(0, memSize), want.Snapshot(0, memSize); !bytes.Equal(g, w) {
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%+v: memory differs at %#x: %#x, want %#x", l, i, g[i], w[i])
			}
		}
	}
}

// randomImage fills memory with full-range bytes, so int8 operands reach
// both extremes and bias words are arbitrary int32s (saturation and int32
// wrap-around both occur).
func randomImage(rng *rand.Rand) []byte {
	image := make([]byte, memSize)
	rng.Read(image)
	return image
}

// shrink rewrites the launch's operands in image with values small enough
// that Gemmini's int8 outputs stay off the saturation rails, where a wrong
// accumulator would be invisible.
func (l launch) shrink(rng *rand.Rand, image []byte) {
	small := func() byte { return byte(int8(rng.Intn(5) - 2)) }
	for r := 0; r < l.rows; r++ {
		for x := 0; x < l.depth; x++ {
			image[l.a+uint64(r)*l.strideA+uint64(x)] = small()
		}
		if l.d != 0 {
			for cc := 0; cc < l.cols; cc++ {
				binary.LittleEndian.PutUint32(image[l.d+uint64(r)*l.strideD+uint64(4*cc):], uint32(int32(rng.Intn(41)-20)))
			}
		}
	}
	for x := 0; x < l.depth; x++ {
		for cc := 0; cc < l.cols; cc++ {
			image[l.b+uint64(x)*l.strideB+uint64(cc)] = small()
		}
	}
}

// place lays the four matrices out at random non-overlapping addresses with
// random row padding.
func (l launch) place(rng *rand.Rand) launch {
	pad := func() uint64 { return uint64(rng.Intn(3)) * uint64(1+rng.Intn(40)) }
	l.strideA = uint64(l.depth) + pad()
	l.strideB = uint64(l.cols) + pad()
	l.strideC = uint64(l.cols*l.outBytes) + pad()
	l.strideD = uint64(4*l.cols) + pad()
	next := uint64(1 + rng.Intn(4096))
	take := func(rows int, stride uint64) uint64 {
		addr := next
		next += uint64(rows)*stride + uint64(rng.Intn(512))
		return addr
	}
	l.a = take(l.rows, l.strideA)
	l.b = take(l.depth, l.strideB)
	l.c = take(l.rows, l.strideC)
	if l.gemmini && rng.Intn(3) > 0 {
		l.d = take(l.rows, l.strideD)
	}
	if next > memSize {
		panic("test launch does not fit the test memory")
	}
	return l
}

func TestKernelMatchesElementLoopProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	image := randomImage(rng)
	zeroPoints := []int8{0, -128, 127, 3, -7}
	for n := 0; n < 60; n++ {
		var l launch
		if n%2 == 0 {
			l = gemminiLaunch(1+rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(4))
			l.relu = rng.Intn(2) == 0
		} else {
			l = opengemmLaunch(1+rng.Intn(3), 1+rng.Intn(5), 1+rng.Intn(9))
			l.subA = zeroPoints[rng.Intn(len(zeroPoints))]
			l.subB = zeroPoints[rng.Intn(len(zeroPoints))]
		}
		l = l.place(rng)
		img := image
		if n%4 < 2 {
			img = bytes.Clone(image)
			l.shrink(rng, img)
		}
		checkLaunch(t, img, l)
	}
}

// TestKernelLaneFlushBound drives a lane pair past 2³¹: every operand is
// -128 against a zero point of +127, so every product is 255·255 and 33 032
// of them sum to more than an int32 — the reference accumulator wraps, and a
// kernel that let a window run past the flush bound would carry the low
// lane into the high one.
func TestKernelLaneFlushBound(t *testing.T) {
	image := bytes.Repeat([]byte{0x80}, memSize)
	l := opengemmLaunch(1, 1, 33032/8)
	l.subA, l.subB = 127, 127
	l.a, l.strideA = 0x1000, uint64(l.depth)
	l.b, l.strideB = 0x100000, 8
	l.c, l.strideC = 0x200000, 32
	if int64(l.depth)*255*255 < 1<<31 {
		t.Fatal("depth does not overflow a lane")
	}
	checkLaunch(t, image, l)
}

// TestKernelOutputOverlapsB: a launch that stores C into the rows it reads
// B from sees its own earlier rows, as the element-at-a-time loop does.
func TestKernelOutputOverlapsB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	image := randomImage(rng)

	g := gemminiLaunch(2, 1, 2)
	g.a, g.strideA = 0x1000, 32
	g.b, g.strideB = 0x8000, 16
	g.c, g.strideC = 0x8000+5*16, 16 // C rows land on B rows 5..36
	checkLaunch(t, image, g)

	o := opengemmLaunch(2, 1, 4)
	o.subA, o.subB = -128, 127
	o.a, o.strideA = 0x1000, 32
	o.b, o.strideB = 0x8000, 40
	o.c, o.strideC = 0x8000+3, 33 // unaligned int32 rows across B's rows
	checkLaunch(t, image, o)

	// Only the last row's store reaches B: nothing is read after it.
	last := opengemmLaunch(1, 1, 1)
	last.a, last.strideA = 0x1000, 8
	last.b, last.strideB = 0x8000, 8
	last.c, last.strideC = 0x8000-7*32, 32
	checkLaunch(t, image, last)
}

// TestKernelOutOfRangePanicsInMem: the kernel reads B through mem.Region, so
// a tile that leaves memory is still caught by mem's bounds check.
func TestKernelOutOfRangePanicsInMem(t *testing.T) {
	l := opengemmLaunch(1, 1, 2)
	l.a, l.strideA = 0x1000, 16
	l.b, l.strideB = memSize-64, 8 // rows 8.. lie past the end
	l.c, l.strideC = 0x2000, 32
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "mem: access [") {
			t.Errorf("recovered %q, want a mem bounds panic", msg)
		}
	}()
	_, _ = l.device().Launch(mem.New(memSize))
	t.Error("out-of-range launch returned")
}

// TestSecondLaunchAllocatesNothing: the widened tile and the accumulator row
// live on the model.
func TestSecondLaunchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, l := range []launch{gemminiLaunch(4, 4, 4), opengemmLaunch(1, 1, 8)} {
		l = l.place(rng)
		mm := mem.New(memSize)
		dev := l.device()
		run := func() {
			if _, err := dev.Launch(mm); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s: %v allocations per launch after the first, want 0", dev.Name(), allocs)
		}
	}
}
