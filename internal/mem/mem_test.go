package mem

import (
	"bytes"
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
	// RawWrite is out-of-band and must not count.
	im.RawWrite(0, []byte{1, 2, 3})
	if got := im.BlockWrites(); got != 2 {
		t.Fatalf("out-of-band write counted: BlockWrites = %d, want 2", got)
	}
	im.ResetPrefix(0)
	if im.BlockWrites() != 0 {
		t.Fatal("ResetPrefix did not zero the counter")
	}
}

func TestSnapshotRestore(t *testing.T) {
	im := NewImage(256)
	im.RawWrite(0, []byte{1, 2, 3})
	snap := im.Fork(im.Size())
	im.RawWrite(0, []byte{9, 9, 9})
	im.RestoreSnapshot(snap)
	if got := im.Bytes(0, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("after restore %v, want [1 2 3]", got)
	}
	// The snapshot is a deep copy: mutating the image must not change it.
	im.RawWrite(0, []byte{7})
	im2 := NewImage(256)
	im2.RestoreSnapshot(snap)
	if got := im2.Bytes(0, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("snapshot aliased image: got %v", got)
	}
}

func TestRestoreClearsPoison(t *testing.T) {
	im := NewImage(4 * BlockSize)
	snap := im.Fork(im.Size())
	im.PoisonBlock(0)
	im.PoisonBlock(2 * BlockSize)
	if !im.Poisoned(0) || len(im.PoisonedBlocks()) != 2 {
		t.Fatal("poison not recorded")
	}
	im.RestoreSnapshot(snap)
	if im.Poisoned(0) || im.Poisoned(2*BlockSize) || im.PoisonedBlocks() != nil {
		t.Fatalf("restore left poison: %v", im.PoisonedBlocks())
	}
}

func TestSpaceAllocAlignmentAndRegistry(t *testing.T) {
	s := NewSpace(NewImage(1 << 16))
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
	if _, ok := s.Object("c"); !ok {
		t.Fatal("lookup of c failed")
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
	s := NewSpace(NewImage(256))
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

func TestMustObject(t *testing.T) {
	s := NewSpace(NewImage(1 << 12))
	s.Alloc("u", 64, true)
	if s.MustObject("u").Name != "u" {
		t.Fatal("MustObject returned wrong object")
	}
	mustPanic(t, "unknown object", func() { s.MustObject("v") })
}

// Property: Fork/RestoreSnapshot is an exact involution regardless of content.
func TestQuickSnapshotRestore(t *testing.T) {
	f := func(content []byte) bool {
		im := NewImage(uint64(len(content)) + 64)
		im.RawWrite(0, content)
		snap := im.Fork(im.Size())
		im.RawWrite(0, bytes.Repeat([]byte{0xAA}, len(content)+1))
		im.RestoreSnapshot(snap)
		return bytes.Equal(im.Bytes(0, uint64(len(content))), content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
