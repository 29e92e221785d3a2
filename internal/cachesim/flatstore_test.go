package cachesim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"easycrash/internal/mem"
)

// recordingBacking wraps a Backing and records the block base address of
// every media write, in order. Embedding hides the image's optional Size and
// Poisoned methods, so it also exercises the unsized-backing growth path.
type recordingBacking struct {
	Backing
	writes []uint64
}

func (r *recordingBacking) WriteBlock(addr uint64, src []byte) {
	r.writes = append(r.writes, addr)
	r.Backing.WriteBlock(addr, src)
}

// The drain order is observable through the backing's write hook (tear
// targets, recorded fault replay), so WriteBackAll must issue media writes in
// ascending block order — the map-ordered drain this regression test would
// have caught varied run to run.
func TestWriteBackAllDrainsAscendingBlockOrder(t *testing.T) {
	rb := &recordingBacking{Backing: mem.NewImage(1 << 16)}
	h := New(tiny(), rb)
	// Dirty blocks in scrambled order, fewer than the 16-line LLC holds so
	// no eviction write-back interleaves with the drain.
	blks := []uint64{9, 2, 13, 5, 0, 11, 7}
	for _, blk := range blks {
		h.Store(0, blk*BlockSize, []byte{byte(blk + 1)})
	}
	rb.writes = rb.writes[:0]
	if n := h.WriteBackAll(); int(n) != len(blks) {
		t.Fatalf("drained %d blocks, want %d", n, len(blks))
	}
	want := []uint64{0, 2, 5, 7, 9, 11, 13}
	if len(rb.writes) != len(want) {
		t.Fatalf("recorded %d media writes, want %d", len(rb.writes), len(want))
	}
	for i, addr := range rb.writes {
		if addr != want[i]*BlockSize {
			t.Fatalf("media write %d hit block %d, want %d (drain not ascending: %v)",
				i, addr/BlockSize, want[i], rb.writes)
		}
	}
}

// A reset hierarchy over a reset image must be indistinguishable from a
// fresh pair: same stats, same durable state, same free-list accounting.
// Random replacement stresses the rng rewind.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	cfg := tiny()
	cfg.Replace = Random
	run := func(h *Hierarchy, im *mem.Image) (Stats, []byte) {
		rng := rand.New(rand.NewSource(7))
		var w [8]byte
		for i := 0; i < 400; i++ {
			a := uint64(rng.Intn(1 << 13))
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			switch rng.Intn(3) {
			case 0:
				h.Store(0, a, w[:])
			case 1:
				h.Load(0, a, w[:])
			case 2:
				h.Flush(a, 8, CLWB)
			}
			audit(t, h, "after an access")
		}
		h.WriteBackAll()
		audit(t, h, "after the drain")
		return h.Stats(), bytes.Clone(im.Bytes(0, im.Size()))
	}
	h1, im1 := newPair(t, cfg, 1<<16)
	wantStats, wantImage := run(h1, im1)

	h2, im2 := newPair(t, cfg, 1<<16)
	// Unrelated dirty traffic, then reset both layers.
	for i := 0; i < 64; i++ {
		h2.Store(0, uint64(i)*BlockSize, []byte{0xFF})
	}
	im2.ResetPrefix(im2.Size())
	h2.Reset()
	audit(t, h2, "after Reset")
	if res, dirty := h2.ResidentBlocks(); res != 0 || dirty != 0 {
		t.Fatalf("reset hierarchy still holds %d resident (%d dirty) blocks", res, dirty)
	}
	gotStats, gotImage := run(h2, im2)
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("stats after reset differ:\n got  %+v\n want %+v", gotStats, wantStats)
	}
	if !bytes.Equal(gotImage, wantImage) {
		t.Fatal("durable state after reset differs from a fresh hierarchy")
	}
}

// Postmortem helpers must survive poisoned backing blocks instead of
// escaping with the image's media-error panic: a dirty cached block over
// poisoned media counts as fully inconsistent, and a non-resident poisoned
// block's bytes are lost and read as zero.
func TestPostmortemHelpersArePoisonAware(t *testing.T) {
	im := mem.NewImage(1 << 16)
	h := New(tiny(), im)
	h.Store(0, 0, []byte{1, 2, 3, 4})
	im.PoisonBlock(0)
	if got := h.DirtyBytesIn(0, BlockSize); got != BlockSize {
		t.Fatalf("DirtyBytesIn over poisoned dirty block = %d, want %d", got, BlockSize)
	}
	if got := h.DirtyBytesIn(8, 16); got != 16 {
		t.Fatalf("DirtyBytesIn(8,16) over poisoned dirty block = %d, want 16", got)
	}
	// The cached value is intact; ArchValue serves it without touching media.
	buf := make([]byte, 4)
	h.ArchValue(0, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("ArchValue of resident poisoned block = %v", buf)
	}
	// Non-resident poisoned block: no durable or cached copy exists.
	im.RawWrite(4096, []byte{9, 9})
	im.PoisonBlock(4096)
	lost := []byte{7, 7}
	h.ArchValue(4096, lost)
	if lost[0] != 0 || lost[1] != 0 {
		t.Fatalf("ArchValue of lost block = %v, want zeros", lost)
	}
	if got := h.DirtyBytesIn(4096, BlockSize); got != 0 {
		t.Fatalf("DirtyBytesIn over non-resident block = %d, want 0", got)
	}
}

// DropAll must recycle every arena slot so crash-heavy campaigns run
// allocation-free: fill past LLC capacity, crash, refill, and keep the
// slot accounting intact throughout.
func TestDropAllRecyclesArenaSlots(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<20)
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			h.Store(0, uint64(i)*BlockSize, []byte{byte(round)})
		}
		if err := h.CheckInclusion(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		h.DropAll()
		if res, _ := h.ResidentBlocks(); res != 0 {
			t.Fatalf("round %d: %d blocks resident after DropAll", round, res)
		}
		if err := h.CheckInclusion(); err != nil {
			t.Fatalf("round %d after DropAll: %v", round, err)
		}
	}
}
