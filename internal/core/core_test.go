package core_test

import (
	"context"
	"errors"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/core"
	"easycrash/internal/faultmodel"
	"easycrash/internal/knapsack"
	"easycrash/internal/mem"
	"easycrash/internal/nvct"
)

func runWorkflow(t *testing.T, kernel string, cfg core.Config) *core.Result {
	t.Helper()
	f, err := apps.New(kernel, apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkflowSelectsUForMG(t *testing.T) {
	// The paper's Figure 4(a): u is the critical object for MG; r, uc, rc
	// and the scratch buffer are not.
	res := runWorkflow(t, "mg", core.Config{Tests: 60, Seed: 1})
	if len(res.Critical) != 1 || res.Critical[0] != "u" {
		t.Fatalf("critical objects = %v, want [u]", res.Critical)
	}
	for _, o := range res.Objects {
		if o.Name == "u" {
			if !o.Selected || o.Rs >= 0 {
				t.Fatalf("u analysis = %+v", o)
			}
		} else if o.Selected {
			t.Fatalf("object %s selected, want only u", o.Name)
		}
	}
	if res.Policy == nil {
		t.Fatal("no production policy emitted")
	}
	if res.Final == nil {
		t.Fatal("no validation campaign")
	}
	if got, base := res.AchievedY(), res.BaselineY; got < base {
		t.Fatalf("EasyCrash recomputability %v below baseline %v", got, base)
	}
}

func TestWorkflowImprovesLU(t *testing.T) {
	res := runWorkflow(t, "lu", core.Config{Tests: 50, Seed: 2})
	if res.AchievedY() < res.BaselineY+0.3 {
		t.Fatalf("LU: %v -> %v, want a large improvement", res.BaselineY, res.AchievedY())
	}
	// The decision record must be complete.
	if len(res.Regions) != 4 {
		t.Fatalf("region analyses = %d", len(res.Regions))
	}
	var aSum float64
	for _, r := range res.Regions {
		aSum += r.A
		if r.C < 0 || r.C > 1 || r.CMax < 0 || r.CMax > 1 {
			t.Fatalf("region %d has out-of-range recomputability: %+v", r.Region, r)
		}
	}
	if aSum < 0.99 || aSum > 1.01 {
		t.Fatalf("a_k sum = %v, want 1", aSum)
	}
}

func TestWorkflowFallsBackWhenCorrelationCannotDiscriminate(t *testing.T) {
	// EP never recomputes, so the success vector is constant and Spearman
	// cannot rank objects; the framework falls back to all candidates and
	// reports that EasyCrash does not reach τ.
	res := runWorkflow(t, "ep", core.Config{Tests: 30, Seed: 3, Tau: 0.2})
	if len(res.Critical) != len(res.Candidates) {
		t.Fatalf("fallback selection = %v, want all of %v", res.Critical, res.Candidates)
	}
	if res.MeetsTau {
		t.Fatalf("EP meets tau with predicted Y = %v, want unmet (paper excludes EP)", res.PredictedY)
	}
}

func TestWorkflowRespectsTsBudget(t *testing.T) {
	// With a tiny budget the knapsack must pick fewer/cheaper regions or a
	// lower frequency than with a generous one.
	gen := runWorkflow(t, "lu", core.Config{Tests: 40, Seed: 4, Ts: 0.20})
	tight := runWorkflow(t, "lu", core.Config{Tests: 40, Seed: 4, Ts: 0.002})
	costOf := func(r *core.Result) float64 {
		var c float64
		for _, reg := range r.Regions {
			if reg.Chosen {
				c += reg.Loss / float64(r.Frequency)
			}
		}
		return c
	}
	if costOf(tight) > 0.002+1e-9 {
		t.Fatalf("tight budget violated: cost %v", costOf(tight))
	}
	if costOf(gen) < costOf(tight) {
		t.Fatalf("generous budget chose less persistence (%v) than tight (%v)", costOf(gen), costOf(tight))
	}
}

func TestSelectObjectsDirectly(t *testing.T) {
	// Build a synthetic report: object "bad" has rates anti-correlated
	// with success, "noise" is uncorrelated, "flat" is constant.
	rep := &nvct.Report{}
	for i := 0; i < 40; i++ {
		success := i%2 == 0
		out := nvct.S4
		if success {
			out = nvct.S1
		}
		badRate := 0.8
		if success {
			badRate = 0.1 + float64(i)*0.001
		} else {
			badRate = 0.7 + float64(i)*0.001
		}
		rep.Tests = append(rep.Tests, nvct.TestResult{
			Outcome: out,
			Inconsistency: map[string]float64{
				"bad":   badRate,
				"noise": float64((i*37)%40) / 40,
				"flat":  0.5,
			},
		})
		rep.Counts[out]++
	}
	analyses, critical := core.SelectObjects(rep, 0.01)
	if len(critical) != 1 || critical[0] != "bad" {
		t.Fatalf("critical = %v, want [bad]", critical)
	}
	reasons := map[string]string{}
	for _, a := range analyses {
		reasons[a.Name] = a.Reason
	}
	if reasons["flat"] == "" {
		t.Fatal("constant object should carry a reason")
	}
	if reasons["noise"] == "" {
		t.Fatal("uncorrelated object should carry a reason")
	}
}

func TestSelectRegionsEquationFive(t *testing.T) {
	// A single expensive region: with the budget below its cost, frequency
	// interpolation (Equation 5) must engage rather than dropping it.
	golden := nvct.Golden{
		Iters:          10,
		MainAccesses:   10000,
		RegionAccesses: map[int]uint64{0: 10000},
		Regions:        1,
		Candidates:     nil,
	}
	baseline := &nvct.Report{Regions: 1}
	everywhere := &nvct.Report{Regions: 1}
	for i := 0; i < 20; i++ {
		baseline.Tests = append(baseline.Tests, nvct.TestResult{CrashRegion: 0, Outcome: nvct.S4})
		baseline.Counts[nvct.S4]++
		everywhere.Tests = append(everywhere.Tests, nvct.TestResult{CrashRegion: 0, Outcome: nvct.S1})
		everywhere.Counts[nvct.S1]++
	}
	// Fabricate a critical set with a known size via golden.Candidates.
	golden.Candidates = append(golden.Candidates, mem.Object{Name: "x", Size: 64 * 100, Candidate: true}) // 100 blocks
	cfg := core.Config{Ts: 0.06}
	// At the fixed flush cost of 4 accesses per block, loss at freq 1 =
	// 10*100*4/10000 = 0.40 > Ts and freq 4 gives 0.10 > Ts; freq 8 gives
	// 0.05 <= Ts.
	regions, chosen, freq, predicted := core.SelectRegions(golden, baseline, everywhere, []string{"x"}, cfg)
	if len(chosen) != 1 || freq < 8 {
		t.Fatalf("chosen=%v freq=%d, want region 0 at freq 8", chosen, freq)
	}
	if !regions[0].Chosen {
		t.Fatal("region analysis not marked chosen")
	}
	// Equation 5: gain scales by 1/x, so predicted Y = (1-0)/8.
	if predicted < 0.12 || predicted > 0.13 {
		t.Fatalf("predicted Y = %v, want 1/8", predicted)
	}
}

func TestKnapsackIntegration(t *testing.T) {
	// Regions with distinct gains and equal costs: the knapsack must take
	// the highest-gain regions first.
	items := []knapsack.Item{
		{Weight: 0.01, Value: 0.5},
		{Weight: 0.01, Value: 0.1},
		{Weight: 0.01, Value: 0.3},
	}
	chosen, total := knapsack.Solve(items, 0.02)
	if len(chosen) != 2 || total != 0.8 {
		t.Fatalf("chosen %v total %v", chosen, total)
	}
}

// TestWorkflowAllKernels is the integration sweep: the complete EasyCrash
// workflow must run on every kernel and never make recomputability worse
// than the baseline.
func TestWorkflowAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("all-kernel workflow sweep skipped with -short")
	}
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := runWorkflow(t, name, core.Config{Tests: 30, Seed: 14})
			if len(res.Candidates) == 0 {
				t.Fatal("no candidates recorded")
			}
			if len(res.Critical) == 0 {
				t.Fatal("no critical objects (fallback should have engaged)")
			}
			if res.PredictedY < 0 || res.PredictedY > 1 {
				t.Fatalf("predicted Y = %v", res.PredictedY)
			}
			// A marker-contract panic on a restart-only path is contained as
			// an SErr trial; none may hide in either campaign.
			for _, rep := range []*nvct.Report{res.Baseline, res.Final} {
				if rep != nil && rep.Counts[nvct.SErr] != 0 {
					t.Fatalf("%d ERR trials in a %s campaign", rep.Counts[nvct.SErr], name)
				}
			}
			if res.Final != nil && res.Final.Recomputability() < res.BaselineY-0.15 {
				t.Fatalf("EasyCrash made %s worse: %.2f -> %.2f",
					name, res.BaselineY, res.Final.Recomputability())
			}
			// The decision record covers every region exactly once.
			seen := map[int]bool{}
			for _, r := range res.Regions {
				if seen[r.Region] {
					t.Fatalf("duplicate region %d", r.Region)
				}
				seen[r.Region] = true
			}
			if len(seen) != res.Golden.Regions {
				t.Fatalf("region analyses %d != regions %d", len(seen), res.Golden.Regions)
			}
		})
	}
}

func TestWorkflowWithMediaFaults(t *testing.T) {
	// The workflow runs end to end on imperfect media: every campaign
	// injects faults, and the Step-4 production validation recovers from
	// detected-uncorrectable blocks via the scrub-and-fallback restart.
	res := runWorkflow(t, "mg", core.Config{
		Tests: 30, Seed: 1,
		Faults: faultmodel.Config{
			RBER:       1e-5,
			TornWrites: true,
			ECC:        faultmodel.SECDED(),
		},
	})
	if res.Policy == nil || res.Final == nil {
		t.Fatal("faulty-media workflow produced no production policy or validation")
	}
	if res.Final.Counts[nvct.SDue] != 0 {
		t.Fatalf("production validation returned %d DUE despite scrub-and-fallback",
			res.Final.Counts[nvct.SDue])
	}
	clean := runWorkflow(t, "mg", core.Config{Tests: 30, Seed: 1})
	if res.BaselineY > clean.BaselineY {
		t.Fatalf("media faults improved the baseline: %.3f vs %.3f", res.BaselineY, clean.BaselineY)
	}
}

func TestWorkflowValidatesUnderRecrash(t *testing.T) {
	// Step 4 with a re-crash depth: the production policy is validated under
	// the nested-failure model (crashes striking the recovery runs, scrub
	// fallback included) and the validation report carries the R(k) curve.
	res := runWorkflow(t, "mg", core.Config{
		Tests: 40, Seed: 1, RecrashDepth: 2,
		Faults: faultmodel.Config{RBER: 1e-5, TornWrites: true, ECC: faultmodel.SECDED()},
	})
	if res.Policy == nil || res.Final == nil {
		t.Fatal("nested workflow produced no production policy or validation")
	}
	// Steps 1-3 keep the single-crash model the selection statistics assume.
	if res.Baseline.MaxDepth() != 0 || res.CriticalEverywhere.MaxDepth() != 0 {
		t.Fatal("selection campaigns ran nested chains; they must stay single-crash")
	}
	if res.Final.MaxDepth() < 2 {
		t.Fatalf("validation MaxDepth = %d, want a K=2 chain to engage", res.Final.MaxDepth())
	}
	rk := res.Final.RecrashRecoverability()
	if len(rk) != res.Final.MaxDepth() {
		t.Fatalf("R(k) has %d entries for MaxDepth %d", len(rk), res.Final.MaxDepth())
	}
	if res.Final.Counts[nvct.SErr] != 0 {
		t.Fatalf("nested validation recorded %d engine errors", res.Final.Counts[nvct.SErr])
	}
}

func TestWorkflowContextCancellation(t *testing.T) {
	// A cancelled workflow returns promptly with the context error and the
	// partial evidence gathered so far instead of finishing the campaigns.
	f, err := apps.New("mg", apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := core.RunContext(ctx, f, core.Config{Tests: 40, Seed: 1})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled workflow dropped the partial result")
	}
	if res.Final != nil {
		t.Fatal("cancelled-before-start workflow still produced a validation campaign")
	}
}
