package mem

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestNewImageRoundsUpToBlocks(t *testing.T) {
	for _, sz := range []uint64{1, 63, 64, 65, 1000} {
		im := NewImage(sz)
		if im.Size()%BlockSize != 0 {
			t.Errorf("size %d: image size %d not block-aligned", sz, im.Size())
		}
		if im.Size() < sz {
			t.Errorf("size %d: image size %d smaller than requested", sz, im.Size())
		}
	}
}

func TestImageBlockReadWrite(t *testing.T) {
	im := NewImage(256)
	src := make([]byte, BlockSize)
	for i := range src {
		src[i] = byte(i + 1)
	}
	im.WriteBlock(64, src)
	dst := make([]byte, BlockSize)
	im.ReadBlock(64, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("read block differs from written block")
	}
	// Reads within the block resolve to the same block base.
	dst2 := make([]byte, BlockSize)
	im.ReadBlock(64+17, dst2)
	if !bytes.Equal(src, dst2) {
		t.Fatal("unaligned ReadBlock did not resolve to block base")
	}
}

func TestImageWriteCounting(t *testing.T) {
	im := NewImage(1024)
	blk := make([]byte, BlockSize)
	if im.BlockWrites() != 0 {
		t.Fatal("fresh image has nonzero write count")
	}
	im.WriteBlock(0, blk)
	im.WriteBlock(128, blk)
	if got := im.BlockWrites(); got != 2 {
		t.Fatalf("BlockWrites = %d, want 2", got)
	}
	if got := im.BytesWritten(); got != 2*BlockSize {
		t.Fatalf("BytesWritten = %d, want %d", got, 2*BlockSize)
	}
	// RawWrite and Set*At are out-of-band and must not count.
	im.RawWrite(0, []byte{1, 2, 3})
	im.SetFloat64At(8, 3.5)
	im.SetInt64At(16, -9)
	if got := im.BlockWrites(); got != 2 {
		t.Fatalf("out-of-band writes counted: BlockWrites = %d, want 2", got)
	}
	im.ResetWriteCounters()
	if im.BlockWrites() != 0 || im.BytesWritten() != 0 {
		t.Fatal("ResetWriteCounters did not zero counters")
	}
}

func TestImageTypedAccessors(t *testing.T) {
	im := NewImage(128)
	im.SetFloat64At(0, math.Pi)
	if got := im.Float64At(0); got != math.Pi {
		t.Fatalf("Float64At = %v, want %v", got, math.Pi)
	}
	im.SetInt64At(8, -12345)
	if got := im.Int64At(8); got != -12345 {
		t.Fatalf("Int64At = %v, want -12345", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	im := NewImage(256)
	im.SetFloat64At(0, 1.25)
	snap := im.Snapshot()
	im.SetFloat64At(0, 99)
	if im.Float64At(0) != 99 {
		t.Fatal("mutation lost")
	}
	im.Restore(snap)
	if got := im.Float64At(0); got != 1.25 {
		t.Fatalf("after restore Float64At = %v, want 1.25", got)
	}
	// Snapshot is a deep copy: mutating the image must not change it.
	im.SetFloat64At(0, 7)
	im2 := NewImage(256)
	im2.Restore(snap)
	if got := im2.Float64At(0); got != 1.25 {
		t.Fatalf("snapshot aliased image: got %v", got)
	}
}

func TestRestoreClearsPoison(t *testing.T) {
	im := NewImage(4 * BlockSize)
	snap := im.Snapshot()
	im.PoisonBlock(0)
	im.PoisonBlock(2 * BlockSize)
	if !im.Poisoned(0) || len(im.PoisonedBlocks()) != 2 {
		t.Fatal("poison not recorded")
	}
	im.Restore(snap)
	if im.Poisoned(0) || im.Poisoned(2*BlockSize) || im.PoisonedBlocks() != nil {
		t.Fatalf("restore left poison: %v", im.PoisonedBlocks())
	}
}

func TestRestoreSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	NewImage(128).Restore(make([]byte, 64))
}

func TestSpaceAllocAlignmentAndRegistry(t *testing.T) {
	s := NewSpace(1 << 16)
	a := s.Alloc("a", 100, true)
	b := s.AllocF64("b", 10, false)
	c := s.AllocI64("c", 3, true)
	for _, o := range []Object{a, b, c} {
		if o.Addr%BlockSize != 0 {
			t.Errorf("object %s at %d not block-aligned", o.Name, o.Addr)
		}
	}
	if b.Addr < a.End() || c.Addr < b.End() {
		t.Fatal("objects overlap")
	}
	if b.Size != 80 || c.Size != 24 {
		t.Fatalf("typed alloc sizes wrong: %d %d", b.Size, c.Size)
	}
	got, ok := s.Object("b")
	if !ok || got != b {
		t.Fatalf("Object(b) = %+v, %v", got, ok)
	}
	if _, ok := s.Object("nope"); ok {
		t.Fatal("lookup of unknown object succeeded")
	}
	if n := len(s.Objects()); n != 3 {
		t.Fatalf("Objects() len = %d, want 3", n)
	}
	cands := s.Candidates()
	if len(cands) != 2 || cands[0].Name != "a" || cands[1].Name != "c" {
		t.Fatalf("Candidates() = %+v", cands)
	}
	if s.Footprint() != 100+80+24 {
		t.Fatalf("Footprint = %d", s.Footprint())
	}
	if s.CandidateFootprint() != 100+24 {
		t.Fatalf("CandidateFootprint = %d", s.CandidateFootprint())
	}
}

func TestSpaceDuplicateAndOverflowPanic(t *testing.T) {
	s := NewSpace(256)
	s.Alloc("x", 64, false)
	mustPanic(t, "duplicate", func() { s.Alloc("x", 64, false) })
	mustPanic(t, "zero size", func() { s.Alloc("z", 0, false) })
	mustPanic(t, "overflow", func() { s.Alloc("big", 1<<20, false) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	f()
}

func TestObjectAt(t *testing.T) {
	s := NewSpace(1 << 16)
	a := s.Alloc("a", 64, false)
	b := s.Alloc("b", 200, false)
	if o, ok := s.ObjectAt(a.Addr); !ok || o.Name != "a" {
		t.Fatalf("ObjectAt(a.Addr) = %+v %v", o, ok)
	}
	if o, ok := s.ObjectAt(b.Addr + b.Size - 1); !ok || o.Name != "b" {
		t.Fatalf("ObjectAt(last byte of b) = %+v %v", o, ok)
	}
	if _, ok := s.ObjectAt(b.End() + 1000); ok {
		t.Fatal("ObjectAt past allocations succeeded")
	}
	// Gap between block-aligned b end and next object belongs to nobody.
	if b.End()%BlockSize != 0 {
		if _, ok := s.ObjectAt(b.End()); ok {
			t.Fatal("ObjectAt in alignment gap succeeded")
		}
	}
}

func TestMustObject(t *testing.T) {
	s := NewSpace(1 << 12)
	s.Alloc("u", 64, true)
	if s.MustObject("u").Name != "u" {
		t.Fatal("MustObject returned wrong object")
	}
	mustPanic(t, "unknown object", func() { s.MustObject("v") })
}

// Property: typed accessors round-trip arbitrary values at arbitrary aligned
// offsets, and never perturb neighbouring words.
func TestQuickTypedRoundTrip(t *testing.T) {
	im := NewImage(1 << 12)
	f := func(slot uint16, v float64, w int64) bool {
		a := uint64(slot%200)*16 + 8
		im.SetFloat64At(a, v)
		im.SetInt64At(a+8, w)
		fv := im.Float64At(a)
		if im.Int64At(a+8) != w {
			return false
		}
		if math.IsNaN(v) {
			return math.IsNaN(fv)
		}
		return fv == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot/Restore is an exact involution regardless of content.
func TestQuickSnapshotRestore(t *testing.T) {
	f := func(content []byte) bool {
		im := NewImage(uint64(len(content)) + 64)
		im.RawWrite(0, content)
		snap := im.Snapshot()
		im.RawWrite(0, bytes.Repeat([]byte{0xAA}, len(content)+1))
		im.Restore(snap)
		return bytes.Equal(im.Bytes(0, uint64(len(content))), content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
