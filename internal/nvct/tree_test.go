package nvct_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"easycrash/internal/apps"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
	"easycrash/internal/nvct"
	"easycrash/internal/sim"
)

// treeFaults is the media-fault model the tree-sharing equivalence tests run
// under: every injection mechanism enabled (tears, RBER, ECC classification).
func treeFaults() faultmodel.Config {
	return faultmodel.Config{RBER: 2e-6, TornWrites: true, ECC: faultmodel.SECDED()}
}

// TestTreeSharedFaultsMatchesLiveCampaign is the engine-level equivalence
// property behind faults-on and recovery-bound tree sharing: campaigns that
// replay seed-drawn media faults on forked branches and share recovery runs
// between trials with identical durable state must be deep-equal to the same
// campaigns with every trial executed live. The 50-trial faults case is the
// treeshare-smoke CI pin.
func TestTreeSharedFaultsMatchesLiveCampaign(t *testing.T) {
	cases := []struct {
		name   string
		kernel string
		policy *nvct.Policy
		opts   nvct.CampaignOpts
	}{
		{name: "faults-50", kernel: "lu",
			policy: nvct.IterationPolicy([]string{"u", "scal"}),
			opts:   nvct.CampaignOpts{Tests: 50, Seed: 29, Parallel: 4, Faults: treeFaults(), ScrubOnRestart: true}},
		{name: "faults-verified", kernel: "lu",
			policy: nvct.IterationPolicy([]string{"u", "scal"}),
			opts:   nvct.CampaignOpts{Tests: 20, Seed: 31, Parallel: 4, Faults: treeFaults(), Verified: true}},
		{name: "faults-no-scrub", kernel: "lu",
			policy: nvct.IterationPolicy([]string{"u", "scal"}),
			opts:   nvct.CampaignOpts{Tests: 20, Seed: 37, Parallel: 2, Faults: treeFaults()}},
		{name: "nested-faults-depth2", kernel: "lu",
			policy: nvct.IterationPolicy([]string{"u", "scal"}),
			opts:   nvct.CampaignOpts{Tests: 20, Seed: 41, Parallel: 4, RecrashDepth: 2, Faults: treeFaults(), ScrubOnRestart: true}},
		{name: "faults-second-kernel", kernel: "mg",
			opts: nvct.CampaignOpts{Tests: 15, Seed: 43, Parallel: 2, Faults: treeFaults(), ScrubOnRestart: true}},
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

// trapKernel delegates to a real kernel but panics the moment its main run
// returns — after the fork hook has dispatched every crash point. It models a
// reference-run failure that strikes once the workers' forks are all taken.
type trapKernel struct {
	apps.Kernel
}

func (k *trapKernel) Run(m *sim.Machine, from, maxIter int64) (int64, error) {
	executed, err := k.Kernel.Run(m, from, maxIter)
	_ = executed
	_ = err
	panic("trap: reference run failed after the forks")
}

// TestTreeFallbackKeepsFinishedTrials is the regression test for the fallback
// bug: when the shared reference run fails, trials the tree already finished
// must stay finished — only undone trials re-run live. The trapped factory
// fails the reference after every fork fired, so a correct fallback re-runs
// nothing: the build count stays within the fast path's bound, and the report
// still matches an all-live campaign. (The old fallback cleared done[] and
// re-ran everything, costing two extra builds per trial.)
func TestTreeFallbackKeepsFinishedTrials(t *testing.T) {
	inner, err := apps.New("lu", apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	armed := false
	factory := func() apps.Kernel {
		calls++
		k := inner()
		if armed && calls == 1 {
			return &trapKernel{Kernel: k}
		}
		return k
	}
	tt, err := nvct.NewTester(factory, nvct.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const tests = 20
	opts := nvct.CampaignOpts{Tests: tests, Seed: 13, Parallel: 1}

	armed, calls = true, 0
	trapped := tt.RunCampaign(nil, opts)
	armed = false
	if len(trapped.Tests) != tests {
		t.Fatalf("trapped campaign kept %d of %d trials", len(trapped.Tests), tests)
	}
	// One trapped reference + at most one shared recovery per trial. A
	// fallback that discarded the finished forks would add two live builds
	// per trial on top (>= 3*tests total).
	if calls > tests+2 {
		t.Fatalf("fallback rebuilt the application %d times for %d tests; want <= %d (finished trials must not re-run)",
			calls, tests, tests+2)
	}

	live := tt.RunCampaignLive(nil, opts)
	if !reflect.DeepEqual(trapped.Tests, live.Tests) {
		t.Fatal("trapped-reference campaign diverged from the all-live campaign")
	}
}

// TestDeadlineCampaignRunsOnTree pins that per-test and per-trial deadlines
// no longer drop a campaign to the live path: with a deadline no trial comes
// near, the application is built exactly as often as the no-deadline tree
// builds it — once for the reference run plus once per shared recovery leg
// (at most tests+1 for a classic campaign), never the live path's one first
// life plus one restart per attempt — and the report is the no-deadline
// campaign's.
func TestDeadlineCampaignRunsOnTree(t *testing.T) {
	inner, err := apps.New("lu", apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	tt, err := nvct.NewTester(func() apps.Kernel { calls++; return inner() }, nvct.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const tests = 20
	for _, tc := range []struct {
		name string
		opts nvct.CampaignOpts
	}{
		{"test-timeout", nvct.CampaignOpts{Tests: tests, Seed: 13, Parallel: 1, TestTimeout: time.Hour}},
		{"trial-deadline", nvct.CampaignOpts{Tests: tests, Seed: 13, Parallel: 1, RecrashDepth: 1, TrialDeadline: time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			unbounded := tc.opts
			unbounded.TestTimeout, unbounded.TrialDeadline = 0, 0
			calls = 0
			want := tt.RunCampaign(nil, unbounded)
			treeBuilds := calls
			if tc.opts.RecrashDepth == 0 && treeBuilds > tests+2 {
				t.Fatalf("classic tree campaign built the application %d times for %d tests; want <= %d", treeBuilds, tests, tests+2)
			}

			calls = 0
			got := tt.RunCampaign(nil, tc.opts)
			if calls != treeBuilds || calls >= 2*tests {
				t.Fatalf("deadline campaign built the application %d times for %d tests; want the tree's %d (the live path needs >= %d)",
					calls, tests, treeBuilds, 2*tests)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("deadline campaign diverged from the no-deadline campaign")
			}
		})
	}
}

// tinyKernel is a minimal fixed-iteration kernel with a single-digit crash
// space: campaigns over it draw many duplicate crash points, so one snapshot
// is shared by many concurrent branch workers — the race-detector surface for
// read-only ResumeFrom. Its updates are non-idempotent on purpose, giving
// restarts real S2/S4 variety.
type tinyKernel struct {
	acc mem.Object
	it  mem.Object
}

func (k *tinyKernel) Name() string           { return "tiny" }
func (k *tinyKernel) Description() string    { return "duplicate-crash-point probe" }
func (k *tinyKernel) RegionCount() int       { return 1 }
func (k *tinyKernel) NominalIters() int64    { return 4 }
func (k *tinyKernel) Convergent() bool       { return false }
func (k *tinyKernel) IterObject() mem.Object { return k.it }

func (k *tinyKernel) Setup(m *sim.Machine) {
	k.acc = m.Space().AllocI64("acc", 4, true)
	k.it = apps.AllocIter(m)
}

func (k *tinyKernel) Init(m *sim.Machine) {
	acc := m.I64(k.acc)
	for i := 0; i < acc.Len(); i++ {
		acc.Set(i, 0)
	}
	m.I64(k.it).Set(0, 0)
}

func (k *tinyKernel) Run(m *sim.Machine, from, maxIter int64) (int64, error) {
	if maxIter > k.NominalIters() {
		maxIter = k.NominalIters()
	}
	acc := m.I64(k.acc)
	itv := m.I64(k.it)
	m.MainLoopBegin()
	defer m.MainLoopEnd()
	var executed int64
	for it := from; it < maxIter; it++ {
		m.BeginIteration(it)
		m.BeginRegion(0)
		slot := int(it) % acc.Len()
		acc.Set(slot, acc.At(slot)+it+1)
		m.EndRegion(0)
		itv.Set(0, it+1)
		m.EndIteration(it)
		executed++
	}
	return executed, nil
}

func (k *tinyKernel) Result(m *sim.Machine) []float64 {
	acc := m.I64(k.acc)
	out := make([]float64, acc.Len())
	for i := range out {
		out[i] = float64(acc.At(i))
	}
	return out
}

func (k *tinyKernel) Verify(m *sim.Machine, golden []float64) bool {
	got := k.Result(m)
	for i := range got {
		if got[i] != golden[i] {
			return false
		}
	}
	return true
}

// TestTreeSharedDuplicatePointsRace drives a campaign whose crash-point space
// is a handful of accesses, so nearly every point is drawn several times and
// each snapshot is resumed by several workers at once. Run under the race
// detector (CI does) it proves ResumeFrom leaves the shared snapshot
// untouched; in any mode it checks the duplicated forks still classify
// identically to the live engine.
func TestTreeSharedDuplicatePointsRace(t *testing.T) {
	tt, err := nvct.NewTester(func() apps.Kernel { return &tinyKernel{} }, nvct.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := nvct.CampaignOpts{Tests: 32, Seed: 3, Parallel: 4}
	fast := tt.RunCampaign(nil, opts)

	// The point of the fixture: duplicates must actually occur.
	seen := map[uint64]int{}
	for _, res := range fast.Tests {
		seen[res.CrashAccess]++
	}
	if len(seen) >= len(fast.Tests) {
		t.Fatalf("no duplicate crash points across %d trials; the kernel's crash space grew", len(fast.Tests))
	}

	live := tt.RunCampaignLive(nil, opts)
	if !reflect.DeepEqual(fast.Tests, live.Tests) {
		t.Fatal("duplicate-point campaign diverged from the live engine")
	}
}

// TestReproTrialMatchesTreeSharedCampaign pins -repro parity for trials that
// originally ran tree-shared: ReproTrial re-runs one trial on the live engine
// and must reproduce the campaign record field-for-field — including for
// faults-on and nested campaigns, whose trials now run prefix-shared too.
func TestReproTrialMatchesTreeSharedCampaign(t *testing.T) {
	policy := nvct.IterationPolicy([]string{"u", "scal"})
	cases := []struct {
		name string
		opts nvct.CampaignOpts
	}{
		{"baseline", nvct.CampaignOpts{Tests: 20, Seed: 17, Parallel: 4}},
		{"faults", nvct.CampaignOpts{Tests: 20, Seed: 19, Parallel: 4, Faults: treeFaults(), ScrubOnRestart: true}},
		{"nested-faults", nvct.CampaignOpts{Tests: 15, Seed: 23, Parallel: 4, RecrashDepth: 2, Faults: treeFaults(), ScrubOnRestart: true}},
	}
	tt := tester(t, "lu")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := tt.RunCampaign(policy, tc.opts)
			if len(rep.Tests) != tc.opts.Tests {
				t.Fatalf("campaign kept %d of %d trials", len(rep.Tests), tc.opts.Tests)
			}
			for _, idx := range []int{0, tc.opts.Tests / 2, tc.opts.Tests - 1} {
				got, err := tt.ReproTrial(context.Background(), policy, tc.opts, idx)
				if err != nil {
					t.Fatalf("ReproTrial(%d): %v", idx, err)
				}
				if !reflect.DeepEqual(got, rep.Tests[idx]) {
					t.Fatalf("trial %d repro diverged:\ncampaign %+v\nrepro    %+v", idx, rep.Tests[idx], got)
				}
			}
		})
	}
}
