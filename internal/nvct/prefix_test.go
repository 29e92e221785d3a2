package nvct_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/nvct"
)

// TestPrefixSharedMatchesLiveCampaign is the engine-level equivalence
// property behind the prefix-sharing fast path: for random seeds and crash
// points (faults off), a campaign run off one shared reference execution must
// be deep-equal — outcomes, inconsistency stats, final results, chains — to
// the same campaign with every pre-crash prefix replayed live from access 0.
// Testers are shared and machines pooled across these runs, so the property
// holds across pooled-machine recycling too.
func TestPrefixSharedMatchesLiveCampaign(t *testing.T) {
	cases := []struct {
		name   string
		kernel string
		policy *nvct.Policy
		opts   nvct.CampaignOpts
	}{
		{name: "baseline-serial", kernel: "lu",
			opts: nvct.CampaignOpts{Tests: 25, Seed: 7, Parallel: 1}},
		{name: "baseline-parallel", kernel: "lu",
			opts: nvct.CampaignOpts{Tests: 25, Seed: 7, Parallel: 4}},
		{name: "policy-verified", kernel: "lu",
			policy: nvct.IterationPolicy([]string{"u", "scal"}),
			opts:   nvct.CampaignOpts{Tests: 20, Seed: 11, Verified: true, Parallel: 4}},
		{name: "during-persistence", kernel: "lu",
			policy: nvct.IterationPolicy([]string{"u", "scal"}),
			opts:   nvct.CampaignOpts{Tests: 15, Seed: 3, CrashDuringPersistence: true, Parallel: 2}},
		{name: "nested-depth2", kernel: "lu",
			opts: nvct.CampaignOpts{Tests: 15, Seed: 5, RecrashDepth: 2, Parallel: 4}},
		{name: "second-kernel", kernel: "mg",
			opts: nvct.CampaignOpts{Tests: 15, Seed: 23, Parallel: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tt := tester(t, tc.kernel)
			fast := tt.RunCampaign(tc.policy, tc.opts)
			live := tt.RunCampaignLive(tc.policy, tc.opts)
			if !reflect.DeepEqual(fast.Tests, live.Tests) {
				for i := range fast.Tests {
					if !reflect.DeepEqual(fast.Tests[i], live.Tests[i]) {
						t.Fatalf("test %d diverged:\nfast %+v\nlive %+v", i, fast.Tests[i], live.Tests[i])
					}
				}
				t.Fatal("reports diverged")
			}
			if fast.Counts != live.Counts {
				t.Fatalf("outcome counts diverged: fast %v live %v", fast.Counts, live.Counts)
			}
		})
	}
}

// TestPrefixSharedSimulatesPrefixOnce proves the fast path actually engages:
// a faults-off campaign of n tests builds the application once for the shared
// reference run plus once per restart — not twice per test as the live engine
// does. A counting factory observes the difference.
func TestPrefixSharedSimulatesPrefixOnce(t *testing.T) {
	inner, err := apps.New("lu", apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	counting := func() apps.Kernel {
		calls++
		return inner()
	}
	tt, err := nvct.NewTester(counting, nvct.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const tests = 20
	calls = 0
	tt.RunCampaign(nil, nvct.CampaignOpts{Tests: tests, Seed: 1, Parallel: 1})
	if calls > tests+2 {
		t.Fatalf("fast path built the application %d times for %d tests; want <= %d (one reference + one restart per test)",
			calls, tests, tests+2)
	}
	calls = 0
	tt.RunCampaignLive(nil, nvct.CampaignOpts{Tests: tests, Seed: 1, Parallel: 1})
	if calls < 2*tests {
		t.Fatalf("live path built the application %d times for %d tests; want >= %d", calls, tests, 2*tests)
	}
}

// TestCampaignDumpBuffersPooled is the bench-guard for the satellite
// allocation fix: even on the per-trial live path, per-test durable
// dumps must come from the pool instead of allocating the image prefix fresh
// each test. GC is disabled so sync.Pool cannot shed its contents mid-
// measurement.
func TestCampaignDumpBuffersPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items on purpose under -race, so every getMachine rebuilds the 64 MiB image; the byte bound only holds without it")
	}
	tt := tester(t, "lu")
	opts := nvct.CampaignOpts{Tests: 15, Seed: 9, Parallel: 1}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the machine and dump pools.
	tt.RunCampaignLive(nil, nvct.CampaignOpts{Tests: 2, Seed: 9, Parallel: 1})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tt.RunCampaignLive(nil, opts)
	runtime.ReadMemStats(&after)

	perTest := (after.TotalAlloc - before.TotalAlloc) / uint64(opts.Tests)
	// The historical engine allocated the full 64 MiB image per test (67 MB
	// per op). Pooled dumps bound per-test allocation by
	// transient postmortem state — orders of magnitude below that. The
	// threshold is generous so the guard only trips on a real regression.
	if perTest > 8<<20 {
		t.Fatalf("live campaign allocates %d bytes per test; dump pooling should keep it well under 8 MiB", perTest)
	}
}
