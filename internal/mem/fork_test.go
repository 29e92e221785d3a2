package mem

import (
	"bytes"
	"testing"
)

// fillBlock writes a recognisable pattern into the block at base.
func fillBlock(im *Image, base uint64, tag byte) {
	var blk [BlockSize]byte
	for i := range blk {
		blk[i] = tag ^ byte(i)
	}
	im.WriteBlock(base, blk[:])
}

func TestForkIsImmutableCopy(t *testing.T) {
	im := NewImage(4 * SnapPageSize)
	fillBlock(im, 0, 0x11)
	fillBlock(im, SnapPageSize, 0x22)

	extent := uint64(2 * SnapPageSize)
	snap := im.Fork(extent)
	if snap.Extent() != extent {
		t.Fatalf("Extent() = %d, want %d", snap.Extent(), extent)
	}
	want := append([]byte(nil), im.Bytes(0, extent)...)

	// Mutate the live image through every tracked path; the fork must not see it.
	fillBlock(im, 0, 0x33)
	im.RawWrite(SnapPageSize, []byte{9, 9, 9, 9})

	got := make([]byte, extent)
	snap.copyTo(got)
	if !bytes.Equal(got, want) {
		t.Fatal("fork contents changed when the live image was mutated")
	}
}

func TestForkSharesCleanPages(t *testing.T) {
	im := NewImage(4 * SnapPageSize)
	for p := uint64(0); p < 4; p++ {
		fillBlock(im, p*SnapPageSize, byte(0x40+p))
	}
	s1 := im.Fork(im.Size())
	s2 := im.Fork(im.Size()) // nothing dirtied in between
	for i := range s1.pages {
		if &s1.pages[i][0] != &s2.pages[i][0] {
			t.Fatalf("page %d not shared between back-to-back forks", i)
		}
	}

	// Dirty exactly one page; only that page gets a fresh copy.
	fillBlock(im, 2*SnapPageSize, 0x77)
	s3 := im.Fork(im.Size())
	for i := range s3.pages {
		shared := &s3.pages[i][0] == &s2.pages[i][0]
		if i == 2 && shared {
			t.Fatal("dirtied page 2 still shared with the previous fork")
		}
		if i != 2 && !shared {
			t.Fatalf("clean page %d was copied instead of shared", i)
		}
	}
}

func TestForkTracksAllMutationPaths(t *testing.T) {
	im := NewImage(8 * SnapPageSize)
	base := im.Fork(im.Size())

	mutate := []struct {
		name string
		page int
		do   func()
	}{
		{"WriteBlock", 0, func() { fillBlock(im, 0, 0x01) }},
		{"RawWrite", 1, func() { im.RawWrite(1*SnapPageSize, []byte{1, 2, 3}) }},
	}
	for _, m := range mutate {
		m.do()
		s := im.Fork(im.Size())
		if &s.pages[m.page][0] == &base.pages[m.page][0] {
			t.Errorf("%s: page %d still shared after mutation", m.name, m.page)
		}
		base = s
	}

	// RestoreSnapshot dirties everything it rewrites.
	im.RestoreSnapshot(base)
	s := im.Fork(im.Size())
	for i := range s.pages {
		if &s.pages[i][0] == &base.pages[i][0] {
			t.Fatalf("page %d still shared after RestoreSnapshot", i)
		}
	}
}

func TestRestoreSnapshotRoundTrip(t *testing.T) {
	im := NewImage(4 * SnapPageSize)
	fillBlock(im, 0, 0x0a)
	fillBlock(im, 3*SnapPageSize, 0x0b) // beyond the forked extent
	extent := uint64(2 * SnapPageSize)
	snap := im.Fork(extent)
	want := make([]byte, extent)
	snap.copyTo(want)
	wantBW := im.BlockWrites()

	// A different, freshly reset image resumes from the snapshot.
	dst := NewImage(4 * SnapPageSize)
	fillBlock(dst, SnapPageSize, 0xee)
	dst.ResetPrefix(dst.Size())
	dst.RestoreSnapshot(snap)
	if !bytes.Equal(dst.Bytes(0, extent), want) {
		t.Fatal("restored prefix differs from the forked contents")
	}
	for _, b := range dst.Bytes(extent, dst.Size()-extent) {
		if b != 0 {
			t.Fatal("bytes past the snapshot extent are not zero after ResetPrefix+RestoreSnapshot")
		}
	}
	if dst.BlockWrites() != wantBW {
		t.Fatalf("write counter %d not restored to %d", dst.BlockWrites(), wantBW)
	}

	// RestoreSnapshot counts as a mutation for the target's own fork tracking.
	pre := dst.Fork(extent)
	dst.RestoreSnapshot(snap)
	post := dst.Fork(extent)
	_ = pre
	_ = post // contents identical, but pages must still be fresh copies where rewritten
}

func TestResetClearsForkTracking(t *testing.T) {
	im := NewImage(2 * SnapPageSize)
	fillBlock(im, 0, 0x5c)
	s1 := im.Fork(im.Size())
	im.ResetPrefix(im.Size())
	if im.snapDirty != nil || im.lastFork != nil {
		t.Fatal("Reset left fork tracking attached")
	}
	// A fork after ResetPrefix restarts tracking and shares nothing with the old one.
	s2 := im.Fork(im.Size())
	for i := range s2.pages {
		if &s2.pages[i][0] == &s1.pages[i][0] {
			t.Fatalf("page %d shared across Reset", i)
		}
	}
	got := make([]byte, im.Size())
	s2.copyTo(got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("post-Reset fork captured stale bytes")
		}
	}
}

func TestForkExtentClampAndPartialPage(t *testing.T) {
	// An image whose size is not page-aligned: the tail page is short.
	im := NewImage(2*SnapPageSize + 100)
	sz := im.Size() // NewImage rounds up to a block multiple, not a page multiple
	im.RawWrite(sz-4, []byte{1, 2, 3, 4})
	snap := im.Fork(sz + 999) // clamped to Size
	if snap.Extent() != sz {
		t.Fatalf("extent = %d, want clamped %d", snap.Extent(), sz)
	}
	got := make([]byte, sz)
	snap.copyTo(got)
	if !bytes.Equal(got[sz-4:], []byte{1, 2, 3, 4}) {
		t.Fatal("tail of the short final page not captured")
	}
}
