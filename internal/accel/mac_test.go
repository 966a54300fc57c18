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
	var dev accel.Device = opengemm.New(opengemm.DefaultCost())
	if l.gemmini {
		dev = gemmini.New(gemmini.DefaultCost())
	}
	l.configure(dev)
	return dev
}

// configure writes l's whole configuration into dev, a model of l's target.
func (l launch) configure(dev accel.Device) {
	if l.gemmini {
		for _, ci := range gemmini.Port.Writes {
			var rs [2]uint64
			for _, s := range ci.Slots {
				rs[s.Reg] |= l.gemminiField(s.Field) << s.Offset
			}
			dev.WriteConfig(ci.ID, rs[0], rs[1])
		}
		return
	}
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
}

// hits is how many launches of dev found their B tile already widened.
func hits(dev accel.Device) int {
	return dev.(interface{ Kernel() *accel.MAC }).Kernel().Hits()
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
	newTwin(image).check(t, l.device(), l)
}

// twin is a memory for the device model and one for the reference, holding
// the same image and counters before every launch.
type twin struct{ got, want *mem.Memory }

func newTwin(image []byte) twin {
	tw := twin{mem.New(memSize), mem.New(memSize)}
	copy(tw.got.Region(0, memSize), image)
	copy(tw.want.Region(0, memSize), image)
	return tw
}

// write8 is a host store into both memories.
func (tw twin) write8(addr uint64, v byte) {
	tw.got.Write8(addr, v)
	tw.want.Write8(addr, v)
}

// check configures dev for l, launches it on got and the reference on want,
// and compares the jobs, the cumulative counters and the memory images.
func (tw twin) check(t *testing.T, dev accel.Device, l launch) {
	t.Helper()
	l.configure(dev)
	gotJob, err := dev.Launch(tw.got)
	if err != nil {
		t.Fatalf("%+v: %v", l, err)
	}
	wantJob := runReference(tw.want, l)
	if gotJob != wantJob {
		t.Errorf("%+v: job = %+v, want %+v", l, gotJob, wantJob)
	}
	got, want := tw.got, tw.want
	if got.BytesRead != want.BytesRead || got.BytesWritten != want.BytesWritten {
		t.Errorf("%+v: traffic = %d read / %d written, want %d / %d",
			l, got.BytesRead, got.BytesWritten, want.BytesRead, want.BytesWritten)
	}
	if g, w := got.View(0, memSize), want.View(0, memSize); !bytes.Equal(g, w) {
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

// TestKernelOutOfRangePanicsInMem: the kernel reads B through mem.View, so
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

// sweep is the tiled matmul's launch order over an M x K x N problem cut
// into unit's output tiles: row tiles outer, column tiles inner, every
// launch reducing over the whole of K. A, B and C start at 64 KiB
// boundaries, so no 4 KiB line holds bytes of two of them.
func sweep(unit launch, rowTiles, colTiles int) []launch {
	depth, n := unit.depth, colTiles*unit.cols
	unit.strideA, unit.strideB, unit.strideC = uint64(depth), uint64(n), uint64(n*unit.outBytes)
	const a, b, c = 0x10000, 0x80000, 0x100000
	var out []launch
	for ti := 0; ti < rowTiles; ti++ {
		for tj := 0; tj < colTiles; tj++ {
			l := unit
			l.a = a + uint64(ti*unit.rows)*l.strideA
			l.b = b + uint64(tj*unit.cols)
			l.c = c + uint64(ti*unit.rows)*l.strideC + uint64(tj*unit.cols*unit.outBytes)
			out = append(out, l)
		}
	}
	return out
}

// smallImage is a random image whose bytes are all small int8s, so Gemmini's
// saturated outputs stay informative wherever a launch reads.
func smallImage(rng *rand.Rand) []byte {
	image := make([]byte, memSize)
	for i := range image {
		image[i] = byte(int8(rng.Intn(7) - 3))
	}
	return image
}

// TestTileReuseMatchesElementLoop runs launch sequences on one device and
// one memory, each launch checked against the per-element reference, where
// a kept tile is right to reuse and where it is not: a sweep over a shared
// B (every launch after the first row of tiles finds its tile), a host
// store into a kept tile between launches, a launch whose C lands in
// another kept tile's B, and one address under another zero point or
// stride.
func TestTileReuseMatchesElementLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	image := smallImage(rng)
	for _, unit := range []launch{gemminiLaunch(1, 1, 2), opengemmLaunch(1, 1, 4)} {
		name := "opengemm"
		if unit.gemmini {
			name = "gemmini"
		}
		t.Run(name+"/sweep", func(t *testing.T) {
			tw, dev := newTwin(image), unit.device()
			ls := sweep(unit, 3, 5)
			for _, l := range ls {
				tw.check(t, dev, l)
			}
			if got, want := hits(dev), len(ls)-5; got != want {
				t.Errorf("%d of %d launches reused their tile, want every one after the first row of tiles (%d)", got, len(ls), want)
			}
		})
		t.Run(name+"/host store", func(t *testing.T) {
			tw, dev := newTwin(image), unit.device()
			ls := sweep(unit, 3, 5)
			for i, l := range ls {
				if i == 10 {
					// Into the last row of tile 0 and the first of tile 4,
					// before the third row of tiles: the launches that read
					// them next must see the stores. The tiles' rows
					// interleave within the lines of B, so no tile of that
					// row is kept.
					tw.write8(ls[0].b+uint64(unit.depth-1)*l.strideB+3, byte(rng.Intn(256)))
					tw.write8(ls[4].b+uint64(unit.cols-1), byte(rng.Intn(256)))
				}
				tw.check(t, dev, l)
			}
			if got, want := hits(dev), 5; got != want {
				t.Errorf("%d launches reused their tile, want %d: the second row of tiles only", got, want)
			}
		})
		t.Run(name+"/C into another tile's B", func(t *testing.T) {
			tw, dev := newTwin(image), unit.device()
			ls := sweep(unit, 2, 3)
			for _, l := range ls[:3] {
				tw.check(t, dev, l)
			}
			// Tile 2 again, its C rows on tile 0's columns of B rows 1..:
			// tile 0 must be widened again when it comes back.
			over := ls[2]
			over.c, over.strideC = ls[0].b+over.strideB, over.strideB
			tw.check(t, dev, over)
			for _, l := range ls[3:] {
				tw.check(t, dev, l)
			}
			if got, want := hits(dev), 1; got != want {
				t.Errorf("%d launches reused their tile, want %d (tile 2's second launch only)", got, want)
			}
		})
		t.Run(name+"/same address, other tile", func(t *testing.T) {
			tw, dev := newTwin(image), unit.device()
			l := sweep(unit, 1, 2)[0]
			variants := []launch{l}
			wide := l
			wide.strideB += 8
			variants = append(variants, wide)
			if !l.gemmini {
				for _, sub := range []int8{3, -128} {
					v := l
					v.subB = sub
					variants = append(variants, v)
				}
			}
			for _, v := range variants {
				tw.check(t, dev, v)
			}
			if got := hits(dev); got != 0 {
				t.Errorf("%d launches reused a tile widened under another stride or zero point", got)
			}
			for _, v := range variants {
				tw.check(t, dev, v)
			}
			if got := hits(dev); got != len(variants) {
				t.Errorf("%d of %d repeated launches reused their tile", got, len(variants))
			}
		})
	}
}

// TestTileReuseProperty: random launches drawn from a small pool — so tiles
// repeat — with random host stores and C rows that may land anywhere in B,
// on one device and one memory, each checked against the reference.
func TestTileReuseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	image := smallImage(rng)
	for round := 0; round < 8; round++ {
		gem := round%2 == 0
		unit := opengemmLaunch(1+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(4))
		if gem {
			unit = gemminiLaunch(1, 1+rng.Intn(2), 1+rng.Intn(2))
		}
		pool := sweep(unit, 2, 3)
		for i := range pool {
			if !gem && rng.Intn(3) == 0 {
				pool[i].subB = int8(rng.Intn(256))
			}
			if rng.Intn(4) == 0 {
				// C into the B matrix, at a random offset and stride.
				pool[i].c = pool[0].b + uint64(rng.Intn(2*unit.depth*unit.cols))
				pool[i].strideC = uint64(unit.cols*unit.outBytes + rng.Intn(64))
			}
		}
		tw, dev := newTwin(image), pool[0].device()
		for step := 0; step < 40; step++ {
			if rng.Intn(3) == 0 {
				tw.write8(pool[0].b+uint64(rng.Intn(2*unit.depth*unit.cols)), byte(rng.Intn(256)))
			}
			tw.check(t, dev, pool[rng.Intn(len(pool))])
		}
	}
}

// TestSecondLaunchAllocatesNothing: the widened tiles and the accumulator
// row live on the model. A repeated tile allocates nothing and is not
// widened again; once the slab has grown, a new tile allocates nothing
// either.
func TestSecondLaunchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, l := range []launch{gemminiLaunch(4, 4, 4), opengemmLaunch(1, 1, 8)} {
		// Random strides; A, B, C and D in lines of their own, so storing C
		// leaves B's kept tile valid.
		l = l.place(rng)
		l.a, l.b, l.c = 0x10000, 0x80000, 0x100000
		if l.d != 0 {
			l.d = 0x200000
		}
		mm := mem.New(memSize)
		dev := l.device()
		run := func() {
			if _, err := dev.Launch(mm); err != nil {
				t.Fatal(err)
			}
		}
		run()
		before := hits(dev)
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s: %v allocations per launch after the first, want 0", dev.Name(), allocs)
		}
		if got := hits(dev) - before; got != 11 {
			t.Errorf("%s: %d of 11 repeated launches reused the tile", dev.Name(), got)
		}

		// Thirty-two tiles grow the slab; a kernel keeps the tiles of one
		// memory, so a second memory starts from an empty slab of that size.
		fresh := func(mm *mem.Memory, i int) {
			next := l
			next.b += uint64(i)
			next.configure(dev)
			if _, err := dev.Launch(mm); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 32; i++ {
			fresh(mm, i)
		}
		other, i := mem.New(memSize), 0
		before = hits(dev)
		if allocs := testing.AllocsPerRun(10, func() { fresh(other, i); i++ }); allocs != 0 {
			t.Errorf("%s: %v allocations per new tile in a grown slab, want 0", dev.Name(), allocs)
		}
		if got := hits(dev) - before; got != 0 {
			t.Errorf("%s: %d new tiles were found kept", dev.Name(), got)
		}
	}
}
