package pmemkv

import (
	"slices"
	"strings"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

func testMachine(t testing.TB) *sim.Machine {
	t.Helper()
	return sim.NewMachine(64<<20, cachesim.TestConfig())
}

// damage rewrites the durable word at addr with f(old), the way in-place
// media corruption would leave it after power loss: through the cache,
// written back, then the caches dropped.
func damage(m *sim.Machine, addr uint64, f func(int64) int64) {
	m.StoreI64(addr, f(m.LoadI64(addr)))
	m.FlushRange(addr, 8, cachesim.CLWB)
	m.CrashNow()
}

// runIters runs the first n iterations and fails the test on any error.
func runIters(t *testing.T, s *Store, m *sim.Machine, n int64) {
	t.Helper()
	if _, err := s.Run(m, 0, n); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestInitLeavesDurableEmptyCommitMark(t *testing.T) {
	// A crash after Init but before the first put must recover to a valid
	// empty log — Init flushes the [0, headSum(0)] commit mark for exactly
	// this window.
	s := New(apps.ProfileTest)
	m := testMachine(t)
	s.Setup(m)
	s.Init(m)
	m.CrashNow()
	s.PostRestart(m, 0)
	if s.recoveryErr != nil {
		t.Fatalf("recovery after pre-put crash failed: %v", s.recoveryErr)
	}
	if s.replayed != 0 {
		t.Fatalf("replayed = %d, want 0", s.replayed)
	}
}

func TestDurableHeadCoversEveryAck(t *testing.T) {
	// The correct store's invariant: at any crash, the on-media commit mark
	// is at least the ack count (it may be one ahead for the in-flight put).
	for _, crashAt := range []uint64{64, 500, 1111, 2000} {
		s := New(apps.ProfileTest)
		m := testMachine(t)
		s.Setup(m)
		s.Init(m)
		m.SetCrashAfter(crashAt)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*sim.Crash); !ok {
						panic(r)
					}
				}
			}()
			_, _ = s.Run(m, 0, s.nit)
		}()
		m.CrashNow()
		h := m.I64(s.head).At(0) // the caches are empty: this reads the media
		if h < s.acked || h > s.acked+1 {
			t.Fatalf("crashAt %d: durable head %d outside [acked, acked+1] = [%d, %d]",
				crashAt, h, s.acked, s.acked+1)
		}
	}
}

func TestReplayDetectsPoisonedWAL(t *testing.T) {
	// A detected-uncorrectable block under the log must surface as a loud
	// recovery failure — refusing to serve — never as silently wrong values.
	s := New(apps.ProfileTest)
	m := testMachine(t)
	s.Setup(m)
	s.Init(m)
	runIters(t, s, m, 3)
	// Power loss under an ECC that detects every error it cannot correct,
	// with bit errors drawn over [0, end of the WAL's first block).
	ecc := faultmodel.ECC{DetectBits: mem.BlockSize * 8}
	m.ReplayCrash(faultmodel.New(faultmodel.Config{RBER: 0.1, ECC: ecc}, 1), s.wal.Addr+mem.BlockSize, nil)
	if !slices.Contains(m.PoisonedBlocks(), s.wal.Addr) {
		t.Fatalf("poisoned blocks %v miss the WAL's first block %#x", m.PoisonedBlocks(), s.wal.Addr)
	}
	s.PostRestart(m, 3)
	if s.recoveryErr == nil {
		t.Fatal("replay over a poisoned WAL block reported no error")
	}
	if !strings.Contains(s.recoveryErr.Error(), "media") {
		t.Fatalf("recovery error does not name the media failure: %v", s.recoveryErr)
	}
	if a := s.Audit(m, s.Journal()); a.Detected == nil {
		t.Fatal("audit did not propagate the detected recovery failure")
	}
	if _, err := s.Run(m, 3, s.nit); err != apps.ErrInterrupted {
		t.Fatalf("store served requests after failed recovery: err = %v", err)
	}
}

func TestReplayDetectsCorruptRecord(t *testing.T) {
	// A non-zero record below the commit mark that fails its checksum is
	// media damage (bit flips, torn write), not a truncation point.
	s := New(apps.ProfileTest)
	m := testMachine(t)
	s.Setup(m)
	s.Init(m)
	runIters(t, s, m, 3)
	m.CrashNow()
	damage(m, s.wal.Addr+5*recBytes+24, func(v int64) int64 { return v ^ 1 }) // flip a checksum bit
	s.PostRestart(m, 3)
	if s.recoveryErr == nil || !strings.Contains(s.recoveryErr.Error(), "corrupt") {
		t.Fatalf("corrupt record not detected: err = %v", s.recoveryErr)
	}
}

func TestReplayDetectsCorruptCommitMark(t *testing.T) {
	s := New(apps.ProfileTest)
	m := testMachine(t)
	s.Setup(m)
	s.Init(m)
	runIters(t, s, m, 3)
	m.CrashNow()
	damage(m, s.head.Addr+8, func(v int64) int64 { return v ^ 1 })
	s.PostRestart(m, 3)
	if s.recoveryErr == nil || !strings.Contains(s.recoveryErr.Error(), "commit mark") {
		t.Fatalf("corrupt commit mark not detected: err = %v", s.recoveryErr)
	}
}

func TestReplayTruncatesAtHole(t *testing.T) {
	// An all-zero slot below the commit mark is the missing-flush signature:
	// replay truncates there silently (the oracle's business, not replay's).
	s := New(apps.ProfileTest)
	m := testMachine(t)
	s.Setup(m)
	s.Init(m)
	runIters(t, s, m, 3)
	m.CrashNow()
	base := s.wal.Addr + 7*recBytes
	for off := uint64(0); off < recBytes; off += 8 {
		damage(m, base+off, func(int64) int64 { return 0 }) // the record never reached the media
	}
	s.PostRestart(m, 3)
	if s.recoveryErr != nil {
		t.Fatalf("hole should truncate silently, got: %v", s.recoveryErr)
	}
	if s.replayed != 7 {
		t.Fatalf("replayed = %d, want truncation at 7", s.replayed)
	}
	if a := s.Audit(m, journal{acked: s.acked}); len(a.Violations) == 0 {
		t.Fatal("audit missed the acknowledged puts lost to the hole")
	}
}

func TestJournalMergeFoldsForeignType(t *testing.T) {
	j := journal{acked: 4}
	if got := j.Merge(fakeJournal{}); got != j {
		t.Fatalf("merge with foreign journal = %#v, want receiver", got)
	}
	if got := j.Merge(journal{acked: 9}); got != (journal{acked: 9}) {
		t.Fatalf("merge did not take the larger prefix: %#v", got)
	}
}

type fakeJournal struct{}

func (fakeJournal) Merge(o apps.AckJournal) apps.AckJournal { return o }

func TestAuditRejectsForeignJournal(t *testing.T) {
	s := New(apps.ProfileTest)
	m := testMachine(t)
	s.Setup(m)
	s.Init(m)
	if a := s.Audit(m, fakeJournal{}); a.Detected == nil {
		t.Fatal("audit accepted a journal of the wrong type")
	}
}
