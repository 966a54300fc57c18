package accel

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"configwall/internal/mem"
)

// The launch memo. A launch of a built-in model is a pure function of its
// configuration state and of the bytes it reads, and its whole effect is the
// bytes it writes and its accel.Launch. The four
// pipelines of one (target, workload, n) family write their configuration
// differently but launch the same jobs on the same data, so three launches
// in four repeat one that another cell of the family already ran. A
// LaunchMemo keeps each launch's effect under its exact inputs and replays
// it: the paper's "redo only what changed" (§5.4), applied to the simulator.
//
// Key. The model's type, its whole configuration state (Footprint.State)
// and the exact bytes of every rectangle it reads. Operand bytes are
// interned once per distinct content as images; a key holds the images by
// pointer, so equal pointers mean equal bytes. A hash indexes both tables,
// and a hit is a byte-for-byte match: images are compared to memory before
// they are shared, states to states.
//
// Within a cell (one wrapped device on one memory), a rectangle whose
// mem.Version over its hull has not moved since it was resolved keeps its
// image without being hashed again — the rule MAC's kept tiles follow.
//
// Value. The final bytes of every rectangle the launch writes and its
// accel.Launch. A hit stores the bytes through mem.Region, so dirty pages
// and write versions move as the model's own stores would move them.
//
// Bound. Everything kept is charged to launchMemoBudget; an allocation that
// would pass it forgets everything first, as core's golden memo does.

// launchMemoBudget bounds the bytes a LaunchMemo keeps: images, recorded
// outputs, states and entries. A sweep_large block — both targets, n = 128,
// 256 and 512, four pipelines each — keeps about 4.4 MB. It is a constant, not
// a knob: past it the memo forgets everything and starts again.
const launchMemoBudget = 16 << 20

const (
	// chunkBytes is the block images and outputs are carved from; a request
	// above a quarter of it gets an allocation of its own.
	chunkBytes = 64 << 10
	// slabLen is how many images, or entries, one allocation holds.
	slabLen = 128
	// indexBytes is what one map slot is charged (key, pointer, overhead),
	// and mapHint the slots a map starts with, so a memo's first cell does
	// not grow it slot by slot.
	indexBytes = 32
	mapHint    = 512
	// maxReads and maxWrites bound the rectangles a memoized launch reads
	// (A, B, D) and writes (C); a footprint with more runs unmemoized.
	maxReads  = 3
	maxWrites = 1
	// maxResolved bounds a cell's resolved rectangles, so a lookup never
	// scans a long list; past it the cell forgets them and hashes again.
	maxResolved = 512
)

// Rect is a strided rectangle of simulated memory: Rows rows of Width
// bytes, the first at Addr and each Stride bytes after the one before.
type Rect struct{ Addr, Stride, Rows, Width uint64 }

// hull returns the end of the bytes r spans, and false when a row leaves
// the first size bytes of memory or the arithmetic overflows.
func (r Rect) hull(size uint64) (end uint64, ok bool) {
	if r.Rows == 0 || r.Width == 0 {
		return r.Addr, r.Addr <= size
	}
	hi, span := bits.Mul64(r.Rows-1, r.Stride)
	last, c1 := bits.Add64(r.Addr, span, 0)
	end, c2 := bits.Add64(last, r.Width, 0)
	return end, hi == 0 && c1 == 0 && c2 == 0 && end <= size
}

// bytes returns how many bytes r's rows hold, rows counted apart.
func (r Rect) bytes() uint64 { return r.Rows * r.Width }

// Footprint is a launch as its model decodes it from the staged
// configuration: the state it is a function of and the memory it touches.
type Footprint struct {
	// State is the model's whole configuration state — every register it
	// keeps and its cost parameters — in an encoding that is equal exactly
	// when the state is.
	State []byte
	// Reads are the rectangles Launch reads; Writes those it stores. Launch
	// writes every byte of every Write and nothing else.
	Reads, Writes []Rect
}

// Footprinter is the optional method of a device whose launches may be
// memoized. A device without it runs every launch.
type Footprinter interface {
	// Footprint appends the staged launch's state and rectangles to fp,
	// whose slices the caller has emptied, and reports whether the staged
	// configuration decodes to a launch (Launch reports why it does not).
	// The launch must be a pure function of the state and of the bytes of
	// the reads.
	Footprint(fp *Footprint) bool
}

// LaunchMemo keeps launches' effects under their exact inputs, for the
// devices Wrap returns. It is safe for concurrent use; two devices that
// miss on one key at once both run the launch, and the first to finish
// records it.
type LaunchMemo struct {
	seed maphash.Seed
	// gen counts the times the memo forgot everything (from 1). An image
	// of an older generation is not in the tables any more, so a device
	// resolves its rectangle again and no entry is recorded over it.
	gen          atomic.Uint64
	hits, misses atomic.Uint64

	mu      sync.Mutex
	images  map[uint64]*image     // by content hash
	entries map[uint64]*memoEntry // by key hash
	bytes   int
	ids     uint64
	// The free tails of the current chunk and slabs.
	chunk     []byte
	imageSlab []image
	entrySlab []memoEntry
}

// image is one interned operand: the rows of a rectangle, concatenated.
// It is never written once published.
type image struct {
	data []byte
	id   uint64 // distinct per image for the memo's life; keys hash it
	gen  uint64
	next *image // another image of the same content hash
}

// memoEntry is one recorded launch. It is never written once published.
type memoEntry struct {
	model  reflect.Type
	state  []byte
	reads  [maxReads]*image
	out    []byte // the final bytes of the writes, row by row
	launch Launch
	next   *memoEntry // another entry of the same key hash
}

// NewLaunchMemo returns an empty memo.
func NewLaunchMemo() *LaunchMemo {
	m := &LaunchMemo{seed: maphash.MakeSeed()}
	m.gen.Store(1)
	return m
}

// Stats returns the launches its devices answered from the memo and those
// that ran the model.
func (m *LaunchMemo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// Wrap returns d with its launches looked up in m first: d itself when m is
// nil or d has no Footprint. The device is a cell's: it is used by one
// goroutine at a time, as every device is.
func (m *LaunchMemo) Wrap(d Device) Device {
	f, ok := d.(Footprinter)
	if m == nil || !ok {
		return d
	}
	md := &memoDevice{Device: d, model: f, typ: reflect.TypeOf(d), memo: m}
	md.h.SetSeed(m.seed)
	return md
}

// memoDevice is a model behind a LaunchMemo. WriteConfig and ConfigPort
// are the model's own.
type memoDevice struct {
	Device
	model Footprinter
	typ   reflect.Type
	memo  *LaunchMemo

	fp       Footprint
	stateBuf [512]byte
	readBuf  [maxReads]Rect
	writeBuf [maxWrites]Rect
	h        maphash.Hash

	// The cell's resolved rectangles on mm, in resolvedBuf until they
	// outgrow it; cur is where each read slot last found its rectangle,
	// where the next search starts.
	mm          *mem.Memory
	resolved    []resolved
	resolvedBuf [16]resolved
	cur         [maxReads]int
}

// resolved is a rectangle's image as of the version its hull had.
type resolved struct {
	Rect
	version uint64
	img     *image
}

// Launch implements Device: a recorded launch of the same model, state and
// read bytes is replayed; any other runs the model and is recorded. A
// configuration that does not decode, or a rectangle outside memory, goes
// to the model unmemoized, so it fails exactly as it would alone.
func (d *memoDevice) Launch(mm *mem.Memory) (Launch, error) {
	m := d.memo
	fp := &d.fp
	fp.State, fp.Reads, fp.Writes = d.stateBuf[:0], d.readBuf[:0], d.writeBuf[:0]
	if !d.model.Footprint(fp) || len(fp.Reads) > maxReads || len(fp.Writes) > maxWrites || !fits(mm, fp) {
		m.misses.Add(1)
		return d.Device.Launch(mm)
	}
	if mm != d.mm {
		d.mm, d.resolved = mm, d.resolvedBuf[:0]
	}
	var key [maxReads]*image
	for i, r := range fp.Reads {
		key[i] = d.resolve(i, r)
	}
	h := maphash.Bytes(m.seed, fp.State)
	for _, img := range key[:len(fp.Reads)] {
		h = (h ^ img.id) * 0x9e3779b97f4a7c15
	}
	m.mu.Lock()
	e := m.find(h, d.typ, fp.State, &key)
	m.mu.Unlock()
	if e != nil {
		m.hits.Add(1)
		e.replay(mm, fp.Writes)
		return e.launch, nil
	}
	m.misses.Add(1)
	l, err := d.Device.Launch(mm)
	if err == nil {
		m.record(h, d.typ, fp, &key, mm, l)
	}
	return l, err
}

// fits reports whether every rectangle of fp lies inside mm.
func fits(mm *mem.Memory, fp *Footprint) bool {
	size := uint64(mm.Size())
	for _, rs := range [2][]Rect{fp.Reads, fp.Writes} {
		for _, r := range rs {
			if _, ok := r.hull(size); !ok {
				return false
			}
		}
	}
	return true
}

// resolve returns the image of read slot i's rectangle r: the one this cell
// resolved before if no write has touched r's hull since, and the memo's
// otherwise.
func (d *memoDevice) resolve(i int, r Rect) *image {
	end, _ := r.hull(uint64(d.mm.Size()))
	gen := d.memo.gen.Load()
	n := len(d.resolved)
	for k := 0; k < n; k++ {
		j := (d.cur[i] + k) % n
		c := &d.resolved[j]
		if c.Rect != r {
			continue
		}
		d.cur[i] = j
		if v := d.mm.Version(r.Addr, end-r.Addr); v != c.version || c.img.gen != gen {
			c.version, c.img = v, d.intern(r)
		}
		return c.img
	}
	if n == maxResolved {
		d.resolved = d.resolved[:0]
	}
	v := d.mm.Version(r.Addr, end-r.Addr)
	d.resolved = append(d.resolved, resolved{Rect: r, version: v, img: d.intern(r)})
	d.cur[i] = len(d.resolved) - 1
	return d.resolved[d.cur[i]].img
}

// intern hashes r's rows and returns the memo's image of them.
func (d *memoDevice) intern(r Rect) *image {
	d.h.Reset()
	for row := uint64(0); row < r.Rows; row++ {
		d.h.Write(d.mm.View(r.Addr+row*r.Stride, r.Width))
	}
	return d.memo.intern(d.h.Sum64(), d.mm, r)
}

// intern returns the image of r's rows among those of content hash h,
// copying them into a new one if none matches byte for byte. An image the
// budget cannot hold is returned unkept (generation 0): no entry is
// recorded over it.
func (m *LaunchMemo) intern(h uint64, mm *mem.Memory, r Rect) *image {
	m.mu.Lock()
	defer m.mu.Unlock()
	for img := m.images[h]; img != nil; img = img.next {
		if img.holds(mm, r) {
			return img
		}
	}
	n := int(r.bytes())
	var img *image
	if m.reserve(n, false) {
		img = &m.imageSlab[0]
		m.imageSlab = m.imageSlab[1:]
		img.data, img.gen, img.next = m.take(n), m.gen.Load(), m.images[h]
		if m.images == nil {
			m.images = make(map[uint64]*image, mapHint)
		}
		m.images[h] = img
	} else {
		img = &image{data: make([]byte, n)}
	}
	m.ids++
	img.id = m.ids
	off := 0
	for row := uint64(0); row < r.Rows; row++ {
		off += copy(img.data[off:], mm.View(r.Addr+row*r.Stride, r.Width))
	}
	return img
}

// holds reports whether img is r's rows, byte for byte.
func (img *image) holds(mm *mem.Memory, r Rect) bool {
	if uint64(len(img.data)) != r.bytes() {
		return false
	}
	off := uint64(0)
	for row := uint64(0); row < r.Rows; row++ {
		if !bytes.Equal(img.data[off:off+r.Width], mm.View(r.Addr+row*r.Stride, r.Width)) {
			return false
		}
		off += r.Width
	}
	return true
}

// find returns the entry recorded under key hash h for this model, state
// and images, or nil. The caller holds mu.
func (m *LaunchMemo) find(h uint64, typ reflect.Type, state []byte, key *[maxReads]*image) *memoEntry {
	for e := m.entries[h]; e != nil; e = e.next {
		if e.model == typ && e.reads == *key && bytes.Equal(e.state, state) {
			return e
		}
	}
	return nil
}

// record keeps a launch that just ran: its state, its read images, the
// final bytes of its writes and its outcome. A launch whose
// images the memo has since forgotten, or that a concurrent device has
// recorded meanwhile, is not recorded.
func (m *LaunchMemo) record(h uint64, typ reflect.Type, fp *Footprint, key *[maxReads]*image, mm *mem.Memory, l Launch) {
	out := uint64(0)
	for _, w := range fp.Writes {
		out += w.bytes()
	}
	need := len(fp.State) + int(out)
	m.mu.Lock()
	defer m.mu.Unlock()
	gen := m.gen.Load()
	for _, img := range key[:len(fp.Reads)] {
		if img.gen != gen {
			return
		}
	}
	if m.find(h, typ, fp.State, key) != nil || !m.reserve(need, true) || m.gen.Load() != gen {
		return
	}
	e := &m.entrySlab[0]
	m.entrySlab = m.entrySlab[1:]
	buf := m.take(need)
	copy(buf, fp.State)
	e.model, e.reads, e.launch = typ, *key, l
	e.state, e.out, e.next = buf[:len(fp.State):len(fp.State)], buf[len(fp.State):], m.entries[h]
	off := 0
	for _, w := range fp.Writes {
		for row := uint64(0); row < w.Rows; row++ {
			off += copy(e.out[off:], mm.View(w.Addr+row*w.Stride, w.Width))
		}
	}
	if m.entries == nil {
		m.entries = make(map[uint64]*memoEntry, mapHint)
	}
	m.entries[h] = e
}

// reserve makes room for one image (or, with entry, one entry) of n bytes:
// it charges the bytes, one index slot and any new chunk or slab to the
// budget, forgetting everything first if they would pass it, and reports
// false, charging nothing, when they alone would. After it the current slab
// has a free element and take hands out the bytes. The caller holds mu.
func (m *LaunchMemo) reserve(n int, entry bool) bool {
	cost := func() int {
		c := indexBytes
		switch {
		case n > chunkBytes/4:
			c += n
		case n > len(m.chunk):
			c += chunkBytes
		}
		if entry && len(m.entrySlab) == 0 {
			c += slabLen * int(unsafe.Sizeof(memoEntry{}))
		} else if !entry && len(m.imageSlab) == 0 {
			c += slabLen * int(unsafe.Sizeof(image{}))
		}
		return c
	}
	if m.bytes+cost() > launchMemoBudget {
		m.images, m.entries, m.bytes = nil, nil, 0
		m.chunk, m.imageSlab, m.entrySlab = nil, nil, nil
		m.gen.Add(1)
		if cost() > launchMemoBudget {
			return false
		}
	}
	m.bytes += cost()
	if n <= chunkBytes/4 && n > len(m.chunk) {
		m.chunk = make([]byte, chunkBytes)
	}
	if entry && len(m.entrySlab) == 0 {
		m.entrySlab = make([]memoEntry, slabLen)
	} else if !entry && len(m.imageSlab) == 0 {
		m.imageSlab = make([]image, slabLen)
	}
	return true
}

// take hands out n bytes reserve has charged.
func (m *LaunchMemo) take(n int) []byte {
	if n > chunkBytes/4 {
		return make([]byte, n)
	}
	b := m.chunk[:n:n]
	m.chunk = m.chunk[n:]
	return b
}

// replay stores the recorded final bytes of the writes — the rectangles of
// the same state, so of the same shape.
//
//cwlint:hotpath
func (e *memoEntry) replay(mm *mem.Memory, writes []Rect) {
	out := e.out
	for _, w := range writes {
		for row := uint64(0); row < w.Rows; row++ {
			out = out[copy(mm.Region(w.Addr+row*w.Stride, w.Width), out):]
		}
	}
}
