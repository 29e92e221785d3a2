package cachesim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"easycrash/internal/mem"
)

func tiny() Config {
	return Config{
		Name: "tiny",
		Levels: []LevelConfig{
			{Name: "L1", Size: 256, Ways: 2},  // 2 sets
			{Name: "L2", Size: 512, Ways: 2},  // 4 sets
			{Name: "L3", Size: 1024, Ways: 2}, // 8 sets
		},
	}
}

func newPair(t testing.TB, cfg Config, memBytes uint64) (*Hierarchy, *mem.Image) {
	t.Helper()
	im := mem.NewImage(memBytes)
	return New(cfg, im), im
}

func TestConfigValidate(t *testing.T) {
	good := []Config{tiny(), TestConfig(), PaperConfig()}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %q should validate: %v", c.Name, err)
		}
	}
	bad := []Config{
		{Name: "no-levels"},
		{Name: "bad-size", Levels: []LevelConfig{{Size: 100, Ways: 2}}},
		{Name: "shrinking", Levels: []LevelConfig{{Size: 1024, Ways: 2}, {Size: 512, Ways: 2}}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should fail validation", c.Name)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}, mem.NewImage(64))
}

func TestFlushOpString(t *testing.T) {
	for op, want := range map[FlushOp]string{CLFLUSH: "CLFLUSH", CLFLUSHOPT: "CLFLUSHOPT", CLWB: "CLWB", FlushOp(9): "FlushOp(9)"} {
		if got := op.String(); got != want {
			t.Errorf("FlushOp(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

func TestReadYourWrite(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<16)
	w := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	h.Store(0, 640, w)
	r := make([]byte, 8)
	h.Load(0, 640, r)
	if !bytes.Equal(w, r) {
		t.Fatalf("read %v after writing %v", r, w)
	}
}

func TestStoreNotDurableUntilWriteback(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<16)
	h.Store(0, 0, []byte{0xEE})
	if im.Bytes(0, 1)[0] == 0xEE {
		t.Fatal("store reached NVM without eviction or flush")
	}
	if got := h.DirtyBytesIn(0, 64); got != 1 {
		t.Fatalf("DirtyBytesIn = %d, want 1", got)
	}
	h.Flush(0, 1, CLWB)
	if im.Bytes(0, 1)[0] != 0xEE {
		t.Fatal("flush did not persist store")
	}
	if got := h.DirtyBytesIn(0, 64); got != 0 {
		t.Fatalf("DirtyBytesIn after flush = %d, want 0", got)
	}
}

func TestCrashLosesDirtyData(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<16)
	h.Store(0, 128, []byte{0xAB})
	h.DropAll() // crash
	if im.Bytes(128, 1)[0] == 0xAB {
		t.Fatal("dirty store survived the crash")
	}
	// After the crash a fresh load sees the stale durable value.
	r := make([]byte, 1)
	h.Load(0, 128, r)
	if r[0] != 0 {
		t.Fatalf("post-crash load = %#x, want 0", r[0])
	}
}

func TestFlushSemantics(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<16)
	// Dirty block: flush writes it back.
	h.Store(0, 0, []byte{1})
	res := h.Flush(0, 64, CLFLUSHOPT)
	if res.DirtyFlushed != 1 || res.CleanFlushed != 0 {
		t.Fatalf("dirty flush result %+v", res)
	}
	if im.BlockWrites() != 1 {
		t.Fatalf("BlockWrites = %d, want 1", im.BlockWrites())
	}
	// CLFLUSHOPT invalidated the block: flushing again is a clean flush
	// of a non-resident block, costing no write.
	res = h.Flush(0, 64, CLFLUSHOPT)
	if res.DirtyFlushed != 0 || res.CleanFlushed != 1 {
		t.Fatalf("non-resident flush result %+v", res)
	}
	if im.BlockWrites() != 1 {
		t.Fatalf("non-resident flush wrote to NVM: %d writes", im.BlockWrites())
	}
	// Clean resident block (loaded, never stored): no write.
	buf := make([]byte, 8)
	h.Load(0, 4096, buf)
	res = h.Flush(4096, 8, CLFLUSH)
	if res.DirtyFlushed != 0 || res.CleanFlushed != 1 {
		t.Fatalf("clean resident flush result %+v", res)
	}
	if im.BlockWrites() != 1 {
		t.Fatal("clean flush caused NVM write")
	}
}

func TestCLWBKeepsBlockResident(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<16)
	h.Store(0, 0, []byte{7})
	h.Flush(0, 1, CLWB)
	res, _ := h.ResidentBlocks()
	if res != 1 {
		t.Fatalf("resident blocks after CLWB = %d, want 1", res)
	}
	misses := h.Stats().Misses[0]
	h.Load(0, 0, make([]byte, 1))
	if h.Stats().Misses[0] != misses {
		t.Fatal("load after CLWB missed L1")
	}

	h2, _ := newPair(t, tiny(), 1<<16)
	h2.Store(0, 0, []byte{7})
	h2.Flush(0, 1, CLFLUSH)
	if res, _ := h2.ResidentBlocks(); res != 0 {
		t.Fatalf("resident blocks after CLFLUSH = %d, want 0", res)
	}
}

func TestFlushRangeCoversPartialBlocks(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<16)
	// Range [60, 70) spans two blocks.
	res := h.Flush(60, 10, CLWB)
	if res.Blocks != 2 {
		t.Fatalf("Blocks = %d, want 2", res.Blocks)
	}
	if res := h.Flush(0, 0, CLWB); res.Blocks != 0 {
		t.Fatalf("zero-size flush issued %d ops", res.Blocks)
	}
}

func TestEvictionWritesBackThroughLLC(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<20)
	// Dirty more distinct blocks than the whole hierarchy can hold; LLC has
	// 16 lines, so writing 64 blocks must force eviction write-backs.
	for i := 0; i < 64; i++ {
		h.Store(0, uint64(i)*64, []byte{byte(i)})
	}
	if im.BlockWrites() == 0 {
		t.Fatal("no eviction writebacks despite capacity pressure")
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	// Every evicted block's value must be durable and correct.
	h.WriteBackAll()
	for i := 0; i < 64; i++ {
		if got := im.Bytes(uint64(i)*64, 1)[0]; got != byte(i) {
			t.Fatalf("block %d durable value %#x, want %#x", i, got, byte(i))
		}
	}
}

func TestWriteBackAllCleansEverything(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<20)
	for i := 0; i < 10; i++ {
		h.Store(0, uint64(i)*64, []byte{byte(i + 1)})
	}
	n := h.WriteBackAll()
	if n == 0 {
		t.Fatal("WriteBackAll drained nothing")
	}
	if _, dirty := h.ResidentBlocks(); dirty != 0 {
		t.Fatalf("dirty blocks after drain: %d", dirty)
	}
	for i := 0; i < 10; i++ {
		if got := im.Bytes(uint64(i)*64, 1)[0]; got != byte(i+1) {
			t.Fatalf("block %d not durable after drain", i)
		}
	}
	if h.WriteBackAll() != 0 {
		t.Fatal("second drain wrote blocks")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{Name: "direct", Levels: []LevelConfig{{Name: "L1", Size: 128, Ways: 2}}}
	h, _ := newPair(t, cfg, 1<<16)
	buf := make([]byte, 1)
	// Single-level, 1 set x 2 ways for even blocks... sets=1? 128/(64*2)=1 set.
	h.Load(0, 0, buf)   // block 0
	h.Load(0, 64, buf)  // block 1
	h.Load(0, 0, buf)   // touch block 0 (block 1 is now LRU)
	h.Load(0, 128, buf) // block 2 evicts block 1
	base := h.Stats().Hits[0]
	h.Load(0, 0, buf) // must still hit
	if h.Stats().Hits[0] != base+1 {
		t.Fatal("MRU block was evicted")
	}
	m := h.Stats().Misses[0]
	h.Load(0, 64, buf) // must miss
	if h.Stats().Misses[0] != m+1 {
		t.Fatal("LRU block was not evicted")
	}
}

func TestStatsAccounting(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<16)
	buf := make([]byte, 8)
	h.Load(0, 0, buf)
	h.Load(0, 0, buf)
	h.Store(0, 0, buf)
	s := h.Stats()
	if s.Loads != 2 || s.Stores != 1 {
		t.Fatalf("loads/stores = %d/%d", s.Loads, s.Stores)
	}
	if s.Fills != 1 {
		t.Fatalf("fills = %d, want 1", s.Fills)
	}
	if s.Hits[0] != 2 || s.Misses[0] != 1 {
		t.Fatalf("L1 hits/misses = %d/%d, want 2/1", s.Hits[0], s.Misses[0])
	}
	if s.Accesses() != 3 {
		t.Fatalf("Accesses = %d", s.Accesses())
	}
	h.ResetStats()
	s = h.Stats()
	if s.Loads != 0 || s.Hits[0] != 0 || s.Fills != 0 {
		t.Fatal("ResetStats left residue")
	}
}

func TestAccessSpanningBlocks(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<16)
	w := make([]byte, 100)
	for i := range w {
		w[i] = byte(i)
	}
	h.Store(0, 30, w) // spans 3 blocks
	r := make([]byte, 100)
	h.Load(0, 30, r)
	if !bytes.Equal(w, r) {
		t.Fatal("spanning store/load mismatch")
	}
}

func TestDirtyBytesInCountsOnlyDifferingBytes(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<16)
	im.RawWrite(0, []byte{9, 9, 9, 9})
	// Overwrite two bytes with the same value and two with new values.
	h.Store(0, 0, []byte{9, 9, 5, 5})
	if got := h.DirtyBytesIn(0, 64); got != 2 {
		t.Fatalf("DirtyBytesIn = %d, want 2 (only changed bytes)", got)
	}
	// Restricting the range restricts the count.
	if got := h.DirtyBytesIn(0, 3); got != 1 {
		t.Fatalf("DirtyBytesIn(0,3) = %d, want 1", got)
	}
	if got := h.DirtyBytesIn(0, 0); got != 0 {
		t.Fatalf("DirtyBytesIn(0,0) = %d, want 0", got)
	}
}

func TestArchValueMergesCacheAndMemory(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<16)
	im.RawWrite(64, []byte{1, 1, 1, 1})
	h.Store(0, 0, []byte{2, 2})
	got := make([]byte, 66)
	h.ArchValue(0, got)
	if got[0] != 2 || got[1] != 2 {
		t.Fatal("ArchValue missed cached bytes")
	}
	if got[64] != 1 || got[65] != 1 {
		t.Fatal("ArchValue missed durable bytes")
	}
	s := h.Stats()
	if s.Loads != 0 {
		t.Fatal("ArchValue perturbed stats")
	}
}

func TestOccupancy(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<16)
	h.Store(0, 0, []byte{1})
	occ := h.Occupancy()
	if occ["L1"][0] != 1 || occ["L1"][1] != 1 {
		t.Fatalf("L1 occupancy %v, want [1 1]", occ["L1"])
	}
	if occ["L3"][0] != 1 {
		t.Fatalf("L3 occupancy %v, want 1 valid (inclusion)", occ["L3"])
	}
}

func TestSingleLevelHierarchy(t *testing.T) {
	cfg := Config{Name: "llc-only", Levels: []LevelConfig{{Name: "LLC", Size: 1024, Ways: 2}}}
	h, im := newPair(t, cfg, 1<<16)
	h.Store(0, 0, []byte{0x55})
	r := make([]byte, 1)
	h.Load(0, 0, r)
	if r[0] != 0x55 {
		t.Fatal("single-level read-your-write failed")
	}
	h.Flush(0, 1, CLFLUSH)
	if im.Bytes(0, 1)[0] != 0x55 {
		t.Fatal("single-level flush did not persist")
	}
}

// referenceMemory executes the same access trace against a flat byte array
// to check value correctness of the hierarchy under arbitrary interleavings.
type traceOp struct {
	Addr  uint16
	Val   uint8
	Store bool
	Flush bool
}

func TestQuickValueCoherenceVsFlatMemory(t *testing.T) {
	f := func(ops []traceOp) bool {
		h, _ := newPair(t, tiny(), 1<<16)
		ref := make([]byte, 1<<16)
		buf := make([]byte, 1)
		for _, op := range ops {
			a := uint64(op.Addr)
			switch {
			case op.Flush:
				h.Flush(a, 1, CLFLUSHOPT)
			case op.Store:
				buf[0] = op.Val
				h.Store(0, a, buf)
				ref[a] = op.Val
			default:
				h.Load(0, a, buf)
				if buf[0] != ref[a] {
					return false
				}
			}
		}
		// Architectural view must equal the reference at every touched spot.
		got := make([]byte, 1)
		for _, op := range ops {
			h.ArchValue(uint64(op.Addr), got)
			if got[0] != ref[op.Addr] {
				return false
			}
		}
		return h.CheckInclusion() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after WriteBackAll the durable image equals the architectural
// state over the touched range, and DirtyBytesIn is zero everywhere.
func TestQuickDrainMakesDurableEqualArch(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, im := newPair(t, tiny(), 1<<16)
		span := uint64(4096)
		for i := 0; i < int(n)+8; i++ {
			a := uint64(rng.Intn(int(span - 8)))
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			if rng.Intn(2) == 0 {
				h.Store(0, a, w[:])
			} else {
				h.Load(0, a, w[:])
			}
		}
		arch := make([]byte, span)
		h.ArchValue(0, arch)
		h.WriteBackAll()
		if h.DirtyBytesIn(0, span) != 0 {
			return false
		}
		return bytes.Equal(arch, im.Bytes(0, span))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: flushing a range persists exactly that range's architectural
// bytes; untouched dirty blocks elsewhere stay volatile.
func TestQuickSelectiveFlushIsSelective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, im := newPair(t, tiny(), 1<<16)
		// Two disjoint objects.
		objA, objB := uint64(0), uint64(8192)
		for i := 0; i < 50; i++ {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			h.Store(0, objA+uint64(rng.Intn(56)), w[:])
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			h.Store(0, objB+uint64(rng.Intn(56)), w[:])
		}
		archA := make([]byte, 64)
		h.ArchValue(objA, archA)
		h.Flush(objA, 64, CLWB)
		if !bytes.Equal(archA, im.Bytes(objA, 64)) {
			return false // flushed object must be durable
		}
		return h.DirtyBytesIn(objB, 64) > 0 // unflushed object still volatile
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: inclusion invariant holds under random mixed traffic.
func TestQuickInclusionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, _ := newPair(t, tiny(), 1<<16)
		buf := make([]byte, 8)
		for i := 0; i < 500; i++ {
			a := uint64(rng.Intn(1 << 14))
			switch rng.Intn(4) {
			case 0:
				h.Store(0, a, buf)
			case 1:
				h.Load(0, a, buf)
			case 2:
				h.Flush(a, 8, CLFLUSHOPT)
			case 3:
				h.Flush(a, 8, CLWB)
			}
		}
		return h.CheckInclusion() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWritebacksCounter(t *testing.T) {
	h, im := newPair(t, tiny(), 1<<20)
	for i := 0; i < 64; i++ {
		h.Store(0, uint64(i)*64, []byte{1})
	}
	h.Flush(0, 64, CLWB) // likely non-resident by now, but count ops either way
	h.WriteBackAll()
	s := h.Stats()
	if s.Writebacks() != s.EvictionWritebacks+s.DirtyFlushes+s.DrainWritebacks {
		t.Fatal("Writebacks() identity violated")
	}
	if uint64(im.BlockWrites()) != s.Writebacks() {
		t.Fatalf("image writes %d != hierarchy writebacks %d", im.BlockWrites(), s.Writebacks())
	}
}

func TestReplacementString(t *testing.T) {
	for r, want := range map[Replacement]string{LRU: "lru", FIFO: "fifo", Random: "random", Replacement(9): "Replacement(9)"} {
		if got := r.String(); got != want {
			t.Errorf("Replacement(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestFIFOIgnoresReuse(t *testing.T) {
	cfg := Config{Name: "fifo", Replace: FIFO,
		Levels: []LevelConfig{{Name: "L1", Size: 128, Ways: 2}}}
	h, _ := newPair(t, cfg, 1<<16)
	buf := make([]byte, 1)
	h.Load(0, 0, buf)   // block 0 inserted first
	h.Load(0, 64, buf)  // block 1
	h.Load(0, 0, buf)   // reuse block 0: FIFO must NOT refresh it
	h.Load(0, 128, buf) // block 2 evicts block 0 (oldest insertion)
	m := h.Stats().Misses[0]
	h.Load(0, 0, buf) // must miss under FIFO (and re-inserts block 0)
	if h.Stats().Misses[0] != m+1 {
		t.Fatal("FIFO refreshed a way on reuse (behaved like LRU)")
	}
	hits := h.Stats().Hits[0]
	h.Load(0, 128, buf) // block 2 is younger than evicted block 1: resident
	if h.Stats().Hits[0] != hits+1 {
		t.Fatal("FIFO evicted the younger block")
	}
}

func TestRandomReplacementIsDeterministicAndCorrect(t *testing.T) {
	cfg := tiny()
	cfg.Replace = Random
	run := func() (Stats, []byte) {
		h, im := newPair(t, cfg, 1<<16)
		for i := 0; i < 200; i++ {
			h.Store(0, uint64((i*97)%8192), []byte{byte(i)})
		}
		if err := h.CheckInclusion(); err != nil {
			t.Fatal(err)
		}
		h.WriteBackAll()
		return h.Stats(), bytes.Clone(im.Bytes(0, im.Size()))
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1.EvictionWritebacks != s2.EvictionWritebacks {
		t.Fatal("random replacement not deterministic across runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("random replacement produced different durable state")
	}
}

func TestReplacementPoliciesPreserveValues(t *testing.T) {
	// Whatever the eviction order, values must be preserved end to end.
	for _, rp := range []Replacement{LRU, FIFO, Random} {
		cfg := tiny()
		cfg.Replace = rp
		h, im := newPair(t, cfg, 1<<20)
		for i := 0; i < 256; i++ {
			h.Store(0, uint64(i)*64, []byte{byte(i + 1)})
		}
		h.WriteBackAll()
		for i := 0; i < 256; i++ {
			if got := im.Bytes(uint64(i)*64, 1)[0]; got != byte(i+1) {
				t.Fatalf("%v: block %d durable value %#x", rp, i, got)
			}
		}
	}
}
