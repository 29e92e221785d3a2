package cachesim

import (
	"bytes"
	"reflect"
	"testing"

	"easycrash/internal/mem"
)

// audit fails the test if the hierarchy's inclusion identities (slot table,
// inclusion directory) or its incremental counters disagree with a scan.
func audit(t testing.TB, h *Hierarchy, when string) {
	t.Helper()
	if err := h.CheckInclusion(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if err := h.CheckCounters(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// driveOps runs a deterministic mixed access sequence on a hierarchy, calling
// step (when non-nil) after every operation.
func driveOps(h *Hierarchy, seed uint64, n int, step func()) {
	x := seed
	var buf [16]byte
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x % (48 << 10)) &^ 7
		switch x % 5 {
		case 0, 1:
			for j := range buf {
				buf[j] = byte(x >> (j % 8 * 8))
			}
			h.Store(0, addr, buf[:])
		case 2, 3:
			h.Load(0, addr, buf[:])
		case 4:
			h.Flush(addr, 64, CLWB)
		}
		if step != nil {
			step()
		}
	}
}

func TestSnapshotResumeIdenticalFuture(t *testing.T) {
	const imgSize = 256 << 10
	imA := mem.NewImage(imgSize)
	imB := mem.NewImage(imgSize)
	ref := New(TestConfig(), imA)
	driveOps(ref, 0x9e3779b97f4a7c15, 4000, func() { audit(t, ref, "reference prefix") })

	snap := ref.Snapshot()
	imgSnap := imA.Fork(imA.Size())

	// A recycled hierarchy over a different image resumes from the snapshot.
	fork := New(TestConfig(), imB)
	driveOps(fork, 12345, 500, func() { audit(t, fork, "fork's first life") }) // dirty it first, then recycle
	fork.Reset()
	audit(t, fork, "after Reset")
	imB.ResetPrefix(imB.Size())
	imB.RestoreSnapshot(imgSnap)
	fork.ResumeFrom(snap)
	audit(t, fork, "after ResumeFrom")

	// Identical future: same ops on both must produce identical stats,
	// architectural values, and identical images after a full drain.
	driveOps(ref, 0xdeadbeef, 3000, func() { audit(t, ref, "reference future") })
	driveOps(fork, 0xdeadbeef, 3000, func() { audit(t, fork, "resumed future") })

	if !reflect.DeepEqual(ref.Stats(), fork.Stats()) {
		t.Fatalf("stats diverged:\nref  %+v\nfork %+v", ref.Stats(), fork.Stats())
	}
	a := make([]byte, 48<<10)
	b := make([]byte, 48<<10)
	ref.ArchValue(0, a)
	fork.ArchValue(0, b)
	if !bytes.Equal(a, b) {
		t.Fatal("architectural values diverged after resume")
	}
	if ref.WriteBackAll() != fork.WriteBackAll() {
		t.Fatal("drain write-back counts diverged")
	}
	audit(t, ref, "reference after drain")
	audit(t, fork, "fork after drain")
	if !bytes.Equal(imA.Bytes(0, imgSize), imB.Bytes(0, imgSize)) {
		t.Fatal("backing images diverged after drain")
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	im := mem.NewImage(64 << 10)
	h := New(TestConfig(), im)
	driveOps(h, 777, 2000, nil)
	snap := h.Snapshot()
	want := append([]uint64(nil), snap.tags...)
	wantData := append([]byte(nil), snap.data...)

	driveOps(h, 888, 2000, nil) // keep mutating the source hierarchy

	im2 := mem.NewImage(64 << 10)
	h2 := New(TestConfig(), im2)
	h2.ResumeFrom(snap)
	driveOps(h2, 999, 2000, nil) // and mutate a hierarchy resumed from it

	if !reflect.DeepEqual(snap.tags, want) || !bytes.Equal(snap.data, wantData) {
		t.Fatal("snapshot mutated by source or restored hierarchy activity")
	}
	// Restoring the same snapshot again still yields the captured state.
	im3 := mem.NewImage(64 << 10)
	h3 := New(TestConfig(), im3)
	h3.ResumeFrom(snap)
	if h3.tick != snap.tick {
		t.Fatalf("second restore: tick %d, want %d", h3.tick, snap.tick)
	}
	if err := h3.CheckInclusion(); err != nil {
		t.Fatalf("second restore violates inclusion: %v", err)
	}
}

func TestResumeFromRequiresPristineHierarchy(t *testing.T) {
	im := mem.NewImage(64 << 10)
	h := New(TestConfig(), im)
	driveOps(h, 31337, 1000, nil)
	snap := h.Snapshot()

	dirty := New(TestConfig(), mem.NewImage(64<<10))
	driveOps(dirty, 1, 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("ResumeFrom on a non-Reset hierarchy did not panic")
		}
	}()
	dirty.ResumeFrom(snap)
}

func TestResumeFromRejectsConfigMismatch(t *testing.T) {
	h := New(TestConfig(), mem.NewImage(64<<10))
	snap := h.Snapshot()
	other := New(PaperConfig(), mem.NewImage(64<<10))
	defer func() {
		if recover() == nil {
			t.Fatal("ResumeFrom across configurations did not panic")
		}
	}()
	other.ResumeFrom(snap)
}
