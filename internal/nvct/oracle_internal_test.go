package nvct

import (
	"context"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/mem"

	// Register the persistent KV workload under test.
	_ "easycrash/internal/pmemkv"
)

// TestPoisonedWALRestartNeverSilent pins the engine-level handling of a KV
// restart over a poisoned WAL. A detected-uncorrectable WAL must never let
// the store resume as a silent success: without the scrub path the restart
// aborts as a DUE (SDue, the regression this test pins — never S1/S2), and
// with scrubbing the WAL is re-initialised, the loss is accounted in
// ScrubbedObjects, and the oracle's audit is skipped rather than charging a
// violation for state the engine discarded on purpose.
func TestPoisonedWALRestartNeverSilent(t *testing.T) {
	f, err := apps.New("pmemkv", apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTester(f, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Crash deep in the run so plenty of puts are acknowledged and durable.
	const crashAt = 2000
	r := ts.newRun(context.Background(), nil, CampaignOpts{},
		campaignPlan{space: ts.golden.MainAccesses, trials: []plannedTrial{{point: crashAt}}})
	w := r.watchdog()
	s := r.firstLife(0, w)
	if s == nil {
		t.Fatalf("crash point %d did not fire", crashAt)
	}
	defer ts.putDump(s.dump)
	if s.journal == nil {
		t.Fatal("the first life captured no ack journal from the KV kernel")
	}

	var wal mem.Object
	for _, o := range ts.golden.Candidates {
		if o.Name == "wal" {
			wal = o
		}
	}
	if wal.Size == 0 {
		t.Fatal("golden run registered no wal candidate")
	}
	poison := make(map[uint64]struct{})
	for b := wal.Addr &^ (mem.BlockSize - 1); b < wal.End(); b += mem.BlockSize {
		poison[b] = struct{}{}
	}

	a := s.attempt()
	a.poison = poison
	st := r.restartOnce(w, a)
	if st.outcome != SDue {
		t.Fatalf("unscrubbed restart over poisoned WAL classified %s, want %s", st.outcome, SDue)
	}

	r.opts.ScrubOnRestart = true
	st = r.restartOnce(w, a)
	if st.scrubbed == 0 {
		t.Fatal("scrub restart re-initialised no objects")
	}
	if st.outcome == S1 || st.outcome == S2 {
		t.Fatalf("scrubbed WAL with acknowledged data classified %s — a silent success", st.outcome)
	}
	if st.outcome == SViol || len(st.violations) > 0 {
		t.Fatalf("scrub path charged oracle violations: %s %v", st.outcome, st.violations)
	}
}
