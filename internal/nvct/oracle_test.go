package nvct_test

import (
	"context"
	"reflect"
	"testing"

	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"

	// Register the persistent KV workload ("pmemkv", "pmemkv-bug").
	_ "easycrash/internal/pmemkv"
)

// kvFaults is the media-fault mix the KV oracle campaigns run under.
func kvFaults() faultmodel.Config {
	return faultmodel.Config{RBER: 2e-6, TornWrites: true, ECC: faultmodel.SECDED()}
}

// TestKVCorrectCampaignHasNoViolations: the acceptance bar for the oracle's
// specificity — the flush-before-ack store must audit clean at every crash
// point, with and without media faults, in classic and nested campaigns. On
// damaged media the store may fail loudly (S3 detected, DUE, scrubbed
// fallbacks) but must never be charged with a silent violation.
func TestKVCorrectCampaignHasNoViolations(t *testing.T) {
	ts := tester(t, "pmemkv")
	for _, tc := range []struct {
		label string
		opts  nvct.CampaignOpts
	}{
		{"classic", nvct.CampaignOpts{Tests: 200, Seed: 7}},
		{"faults", nvct.CampaignOpts{Tests: 200, Seed: 7, Faults: kvFaults(), ScrubOnRestart: true}},
		{"nested", nvct.CampaignOpts{Tests: 100, Seed: 7, RecrashDepth: 2}},
	} {
		rep := ts.RunCampaign(nil, tc.opts)
		if n := rep.Counts[nvct.SViol]; n != 0 {
			for _, tr := range rep.Tests {
				if tr.Outcome == nvct.SViol {
					t.Logf("%s: access %d iter %d: %v", tc.label, tr.CrashAccess, tr.CrashIter, tr.Violations)
				}
			}
			t.Fatalf("%s: correct store charged with %d violations", tc.label, n)
		}
	}
}

// TestKVBuggyCampaignIsCaught: the acceptance bar for sensitivity — the store
// missing the record flush before its commit-mark update must be caught
// losing acknowledged writes in a 200-trial seeded campaign.
func TestKVBuggyCampaignIsCaught(t *testing.T) {
	rep := tester(t, "pmemkv-bug").RunCampaign(nil, nvct.CampaignOpts{Tests: 200, Seed: 7})
	if rep.Counts[nvct.SViol] == 0 {
		t.Fatal("oracle caught no violations in 200 trials of the buggy store")
	}
	for _, tr := range rep.Tests {
		if tr.Outcome == nvct.SViol && len(tr.Violations) == 0 {
			t.Fatalf("SViol trial at access %d lists no violations", tr.CrashAccess)
		}
		if tr.Outcome != nvct.SViol && len(tr.Violations) > 0 {
			t.Fatalf("%s trial at access %d lists violations: %v", tr.Outcome, tr.CrashAccess, tr.Violations)
		}
	}
	if sviol, listed := rep.ConsistencyViolations(); sviol == 0 || listed < sviol {
		t.Fatalf("ConsistencyViolations() = (%d, %d), want every SViol trial itemised", sviol, listed)
	}
}

// TestKVBuggyNestedCampaign: the ack journal must merge across the lives of a
// crash chain — recovery attempts acknowledge more writes before dying, and
// the final audit must honour all of them. The buggy store must still be
// caught when its recoveries are themselves crashed.
func TestKVBuggyNestedCampaign(t *testing.T) {
	rep := tester(t, "pmemkv-bug").RunCampaign(nil, nvct.CampaignOpts{Tests: 100, Seed: 13, RecrashDepth: 2})
	if rep.Counts[nvct.SViol] == 0 {
		t.Fatal("nested campaign caught no violations in the buggy store")
	}
}

// TestKVPrefixLiveEquivalence: the prefix-sharing fast path captures the ack
// journal in the fork hook instead of after a live crash panic; both engines
// must produce byte-identical reports, violations included.
func TestKVPrefixLiveEquivalence(t *testing.T) {
	for _, kernel := range []string{"pmemkv", "pmemkv-bug"} {
		ts := tester(t, kernel)
		opts := nvct.CampaignOpts{Tests: 60, Seed: 11}
		fast := reportDigest(ts.RunCampaign(nil, opts))
		live := reportDigest(ts.RunCampaignLive(nil, opts))
		if fast != live {
			t.Fatalf("%s: prefix-shared and live engines disagree:\n fast %s\n live %s", kernel, fast, live)
		}
	}
}

// TestReproTrialMatchesCampaign: re-running one trial by its campaign index
// must reproduce the campaign's record exactly — the contract the repro CLI
// (nvct -repro) is built on.
func TestReproTrialMatchesCampaign(t *testing.T) {
	ts := tester(t, "pmemkv-bug")
	opts := nvct.CampaignOpts{Tests: 40, Seed: 9, RecrashDepth: 1}
	rep := ts.RunCampaign(nil, opts)
	if len(rep.Tests) != opts.Tests {
		t.Fatalf("campaign kept %d of %d trials", len(rep.Tests), opts.Tests)
	}
	checked := 0
	for i, want := range rep.Tests {
		// Replaying all 40 would double the campaign; sample across outcomes.
		if i%11 != 0 && want.Outcome != nvct.SViol {
			continue
		}
		got, err := ts.ReproTrial(context.Background(), nil, opts, i)
		if err != nil {
			t.Fatalf("ReproTrial(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReproTrial(%d) diverged from campaign record:\n got  %+v\n want %+v", i, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trials sampled")
	}
	if _, err := ts.ReproTrial(context.Background(), nil, opts, opts.Tests); err == nil {
		t.Fatal("out-of-range trial index accepted")
	}
}

// goldenKVDigest pins the buggy-store campaign byte-for-byte alongside the
// six existing seed-replay pins: crash points, outcomes, violation strings.
// Regenerate with -v after a deliberate behaviour change.
const goldenKVDigest = "41a5ad2ef03890612c2e2d1e94c097e6d7057a8ac872360fc5c545a49fd72c78"

func TestSeedReplayKV(t *testing.T) {
	opts := nvct.CampaignOpts{Tests: 30, Seed: 59, Parallel: 1}
	serial := digestCampaign(t, "pmemkv-bug", nil, opts)
	opts.Parallel = 4
	parallel := digestCampaign(t, "pmemkv-bug", nil, opts)
	if serial != parallel {
		t.Fatalf("KV campaign differs across parallelism:\n serial   %s\n parallel %s", serial, parallel)
	}
	checkGolden(t, serial, goldenKVDigest, "kv")
}
