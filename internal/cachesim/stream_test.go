package cachesim

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRunAndStreamMatchScalarRandomized drives two identically configured
// hierarchies with the same randomized 8-byte-aligned access trace — one
// through the batched Run/Stream fast paths, one through per-element scalar
// Load/Store — and demands identical statistics, recency clocks and (after a
// full drain) identical durable images. The trace mixes run lengths that
// straddle block boundaries, interleaved stream cursors (so memos go stale
// and revalidate), plain scalar accesses that evict memoized blocks, and
// flushes that invalidate under the streams' feet.
func TestRunAndStreamMatchScalarRandomized(t *testing.T) {
	const memBytes = 1 << 14
	fast, fim := newPair(t, tiny(), memBytes)
	ref, rim := newPair(t, tiny(), memBytes)

	streams := make([]Stream, 4)
	for i := range streams {
		streams[i] = fast.NewStream()
	}
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 8*64)
	buf2 := make([]byte, 8*64)
	for op := 0; op < 4000; op++ {
		addr := uint64(rng.Intn(memBytes/8-64)) * 8
		switch rng.Intn(6) {
		case 0: // run store
			n := (1 + rng.Intn(64)) * 8
			rng.Read(buf[:n])
			fast.StoreRun(0, addr, buf[:n])
			for o := 0; o < n; o += 8 {
				ref.Store(0, addr+uint64(o), buf[o:o+8])
			}
		case 1: // run load
			n := (1 + rng.Intn(64)) * 8
			fast.LoadRun(0, addr, buf[:n])
			for o := 0; o < n; o += 8 {
				ref.Load(0, addr+uint64(o), buf2[o:o+8])
			}
			if !bytes.Equal(buf[:n], buf2[:n]) {
				t.Fatalf("op %d: run load at %#x returned different data", op, addr)
			}
		case 2: // stream store burst
			s := &streams[rng.Intn(len(streams))]
			v := rng.Uint64()
			for i := 0; i < 1+rng.Intn(24); i++ {
				s.Store8(0, addr+uint64(i)*8, v+uint64(i))
				putLE(buf2[:8], v+uint64(i))
				ref.Store(0, addr+uint64(i)*8, buf2[:8])
			}
		case 3: // stream load burst
			s := &streams[rng.Intn(len(streams))]
			for i := 0; i < 1+rng.Intn(24); i++ {
				got := s.Load8(0, addr+uint64(i)*8)
				ref.Load(0, addr+uint64(i)*8, buf2[:8])
				if got != leU64(buf2[:8]) {
					t.Fatalf("op %d: stream load at %#x = %#x, scalar %#x",
						op, addr+uint64(i)*8, got, leU64(buf2[:8]))
				}
			}
		case 4: // plain scalar access on both (perturbs residency under memos)
			rng.Read(buf[:8])
			fast.Store(0, addr, buf[:8])
			ref.Store(0, addr, buf[:8])
		case 5: // flush invalidates memoized lines
			fast.Flush(addr, 64, CLFLUSHOPT)
			ref.Flush(addr, 64, CLFLUSHOPT)
		}
		fs, rs := fast.Stats(), ref.Stats()
		if fs.Loads != rs.Loads || fs.Stores != rs.Stores ||
			fs.EvictionWritebacks != rs.EvictionWritebacks ||
			fs.Hits[0] != rs.Hits[0] || fs.Misses[len(fs.Misses)-1] != rs.Misses[len(rs.Misses)-1] {
			t.Fatalf("op %d: stats diverged:\nfast %+v\nref  %+v", op, fs, rs)
		}
	}
	if err := fast.CheckCounters(); err != nil {
		t.Fatal(err)
	}
	if err := fast.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	fast.WriteBackAll()
	ref.WriteBackAll()
	if !bytes.Equal(fim.Bytes(0, memBytes), rim.Bytes(0, memBytes)) {
		t.Fatal("durable images diverged after drain")
	}
}

func putLE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func leU64(b []byte) (v uint64) {
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return
}

// TestStreamSurvivesSnapshotResume checks the memo's self-validation across
// Reset+ResumeFrom: a stream memoized before the snapshot cycle must not
// serve stale residency afterwards.
func TestStreamSurvivesSnapshotResume(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<14)
	s := h.NewStream()
	s.Store8(0, 0, 0x1111)
	s.Store8(0, 8, 0x2222)
	snap := h.Snapshot()
	h.Reset()
	h.ResumeFrom(snap)
	if got := s.Load8(0, 8); got != 0x2222 {
		t.Fatalf("post-resume stream load = %#x, want 0x2222", got)
	}
	if err := h.CheckCounters(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCountersDetectsCorruption makes sure the incremental valid/dirty
// counters are actually asserted against a ground-truth scan.
func TestCheckCountersDetectsCorruption(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<14)
	h.Store(0, 0, []byte{1})
	if err := h.CheckCounters(); err != nil {
		t.Fatalf("fresh hierarchy failed counter check: %v", err)
	}
	h.llc.valid++
	if err := h.CheckCounters(); err == nil {
		t.Fatal("corrupted valid counter went undetected")
	}
}

// TestCheckInclusionDetectsDirectoryCorruption makes sure the inclusion
// directory is audited in both directions against independent tag scans: a
// resident private line its row does not point at, a row entry pointing at a
// way that does not hold the block, and an entry surviving on an invalid LLC
// line must each be reported.
func TestCheckInclusionDetectsDirectoryCorruption(t *testing.T) {
	h, _ := newPair(t, tiny(), 1<<14)
	// Blocks 0, 2 and 4 share L1 set 0 (2 ways): block 0 ends up out of the
	// L1 but still in the L2 and the LLC; L1 set 1 stays empty.
	for _, blk := range []uint64{0, 2, 4} {
		h.Store(0, blk*BlockSize, []byte{1})
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatalf("fresh hierarchy failed inclusion check: %v", err)
	}
	row := func(blk uint64) int { return int(h.slots[blk]) * h.npriv }
	if h.dir[row(0)] != -1 || h.dir[row(4)] < 0 {
		t.Fatalf("setup: block 0 L1 entry %d (want -1), block 4 L1 entry %d (want a way)", h.dir[row(0)], h.dir[row(4)])
	}
	free := -1 // an invalid LLC line
	for i, st := range h.llc.state {
		if st&stValid == 0 {
			free = i
			break
		}
	}
	for _, c := range []struct {
		name  string
		entry int
		value int32
	}{
		{"resident private line without an entry", row(4), -1},
		{"entry at a way holding another block", row(0), h.dir[row(4)]},
		{"entry at an invalid way", row(0), int32(h.priv[0].ways)},
		{"entry on an invalid LLC line", free * h.npriv, 0},
	} {
		saved := h.dir[c.entry]
		h.dir[c.entry] = c.value
		if err := h.CheckInclusion(); err == nil {
			t.Errorf("%s went undetected", c.name)
		}
		h.dir[c.entry] = saved
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatalf("restored hierarchy failed inclusion check: %v", err)
	}
}
