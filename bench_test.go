// The figure runner: the one home of every table and figure of the paper's
// evaluation (§4, §6, §7, §8). Each artifact is an entry of experiments;
// every BenchmarkTableN / BenchmarkFigureN is the same one-line driver,
// which computes its artifact once per process, prints the rows the paper
// reports, and reports the headline numbers as benchmark metrics.
// TestPaperClaims checks the cheap rows' orderings under plain go test.
//
// Campaign sizes default to 100 crash tests per campaign and can be scaled
// with EASYCRASH_TESTS (the paper used 1000-2000; shapes stabilise far
// earlier at the simulator's problem sizes).
//
// The simulator's own speed is measured by the campaign benchmark in
// benchmark/ (go run ./benchmark), end to end and layer by layer.
package easycrash_test

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/ckpt"
	"easycrash/internal/cli"
	"easycrash/internal/core"
	"easycrash/internal/nvct"
	"easycrash/internal/nvmperf"
	"easycrash/internal/predict"
	"easycrash/internal/sysmodel"
)

func campaignTests() int {
	if n, err := strconv.Atoi(os.Getenv("EASYCRASH_TESTS")); err == nil && n > 0 {
		return n
	}
	return 100
}

// harnessTs is the runtime-overhead budget the evaluation harness hands the
// workflow. The paper's t_s = 3% assumed Class-C problems where one
// persistence operation costs ~0.03 s against minutes of compute; at the
// simulator's problem sizes the flush-to-compute cost ratio is roughly four
// times higher, so the equivalent budget is ~12%.
const harnessTs = 0.12

// artifact is one regenerated table or figure: the lines it prints, the
// headline metrics (unit -> value) its benchmark reports, and the values
// TestPaperClaims checks, in row order.
type artifact struct {
	lines   []string
	metrics map[string]float64
	values  []float64
}

func (a *artifact) printf(format string, args ...any) {
	a.lines = append(a.lines, fmt.Sprintf(format, args...))
}

// experiments is every artifact the runner regenerates, keyed by its
// benchmark's name without the "Benchmark" prefix.
var experiments = map[string]func(testing.TB) artifact{
	"Table1": table1, "Figure3": figure3, "Figure4a": figure4a, "Figure4b": figure4b,
	"Figure5": figure5, "Figure6": figure6, "Table4": table4, "Figure7": figure7,
	"Figure8": figure8, "Figure9": figure9, "Figure10": figure10, "Figure11": figure11,
	"Tau": tau, "WriteReduction": writeReduction,
	"TsSensitivity": tsSensitivity, "Characterization": characterization,
	"AblationReplacement": ablationReplacement, "AblationFlushOp": ablationFlushOp,
	"AblationFrequency": ablationFrequency, "AblationCacheSize": ablationCacheSize,
}

// lab caches what the artifacts share for the life of the process.
// Benchmarks and tests in this package run one at a time, so it needs no
// lock.
var lab struct {
	testers, benchTesters map[string]*nvct.Tester
	results               map[string]*core.Result
	best                  map[string]float64
	profiles              map[string]profileSet
	writes                map[string]ckpt.WritesReport
	artifacts             map[string]artifact
	printed               map[string]bool
}

// cached returns (*m)[key], computing and storing it on first use.
func cached[V any](m *map[string]V, key string, compute func() V) V {
	if *m == nil {
		*m = map[string]V{}
	}
	v, ok := (*m)[key]
	if !ok {
		v = compute()
		(*m)[key] = v
	}
	return v
}

// regenerate is the body of every benchmark in this package.
func regenerate(b *testing.B) {
	name := strings.TrimPrefix(b.Name(), "Benchmark")
	a := artifactOf(b, name)
	cached(&lab.printed, name, func() bool {
		for _, l := range a.lines {
			fmt.Println(l)
		}
		return true
	})
	for unit, v := range a.metrics {
		b.ReportMetric(v, unit)
	}
	for range b.N {
	}
}

func artifactOf(tb testing.TB, name string) artifact {
	exp, ok := experiments[name]
	if !ok {
		tb.Fatalf("no experiment %q", name)
	}
	return cached(&lab.artifacts, name, func() artifact { return exp(tb) })
}

func newTester(tb testing.TB, kernel string, p apps.Profile, cache cachesim.Config) *nvct.Tester {
	tb.Helper()
	f, err := apps.New(kernel, p)
	if err != nil {
		tb.Fatal(err)
	}
	t, err := nvct.NewTester(f, nvct.Config{Cache: cache})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func tester(tb testing.TB, kernel string) *nvct.Tester {
	return cached(&lab.testers, kernel, func() *nvct.Tester {
		return newTester(tb, kernel, apps.ProfileTest, cachesim.Config{})
	})
}

// benchTester is a tester at the large-object bench profile — the footprint
// ≫ LLC regime the paper's write experiments need: there, most of a
// critical object's blocks are clean or absent at flush time, so flushing
// adds little beyond the write-backs that would happen anyway, while a
// checkpoint copies the whole object.
func benchTester(tb testing.TB, kernel string) *nvct.Tester {
	return cached(&lab.benchTesters, kernel, func() *nvct.Tester {
		return newTester(tb, kernel, apps.ProfileBench, cachesim.Config{})
	})
}

// workflow is the EasyCrash workflow's result for a kernel.
func workflow(tb testing.TB, kernel string) *core.Result {
	return cached(&lab.results, kernel, func() *core.Result {
		r, err := core.RunWithTester(tester(tb, kernel), core.Config{Tests: campaignTests(), Seed: 1, Ts: harnessTs})
		if err != nil {
			tb.Fatal(err)
		}
		return r
	})
}

// ecPolicy is the workflow's production policy, or the critical objects at
// every iteration end when no region was chosen.
func ecPolicy(res *core.Result) *nvct.Policy {
	if res.Policy != nil {
		return res.Policy
	}
	return nvct.IterationPolicy(res.Critical)
}

// bestRecomputability measures the paper's "best" reference: critical
// objects persisted at every region of every iteration, or — for kernels
// whose mid-region state is non-idempotent and suffers from mid-step
// flushing — at every iteration end, whichever is higher.
func bestRecomputability(tb testing.TB, kernel string) float64 {
	return cached(&lab.best, kernel, func() float64 {
		res, t := workflow(tb, kernel), tester(tb, kernel)
		opts := nvct.CampaignOpts{Tests: campaignTests(), Seed: 5}
		every := t.RunCampaign(nvct.EveryRegionPolicy(res.Critical, res.Golden.Regions), opts).Recomputability()
		return max(every, t.RunCampaign(nvct.IterationPolicy(res.Critical), opts).Recomputability())
	})
}

// profileSet holds the profiled undisturbed runs each performance figure
// prices.
type profileSet struct {
	base, ec, all nvct.Golden
}

func profiles(tb testing.TB, kernel string) profileSet {
	return cached(&lab.profiles, kernel, func() profileSet {
		res, t := workflow(tb, kernel), tester(tb, kernel)
		return profileSet{
			base: profileRun(tb, t, nil),
			ec:   profileRun(tb, t, ecPolicy(res)),
			all:  profileRun(tb, t, nvct.IterationPolicy(res.Candidates)),
		}
	})
}

func profileRun(tb testing.TB, t *nvct.Tester, policy *nvct.Policy) nvct.Golden {
	tb.Helper()
	g, err := t.ProfileRun(policy)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// writes is the Figure-9 write-traffic comparison for a kernel at the bench
// profile, shared by Figure 9 and the §7 write reduction.
func writes(tb testing.TB, kernel string) ckpt.WritesReport {
	return cached(&lab.writes, kernel, func() ckpt.WritesReport {
		res := workflow(tb, kernel)
		policy := nvct.IterationPolicy(res.Critical)
		if res.Policy != nil {
			policy.Frequency = res.Policy.Frequency
		}
		rep, err := ckpt.CompareWrites(benchTester(tb, kernel), policy, res.Critical)
		if err != nil {
			tb.Fatal(err)
		}
		return rep
	})
}

func BenchmarkTable1(b *testing.B)           { regenerate(b) }
func BenchmarkFigure3(b *testing.B)          { regenerate(b) }
func BenchmarkFigure4a(b *testing.B)         { regenerate(b) }
func BenchmarkFigure4b(b *testing.B)         { regenerate(b) }
func BenchmarkFigure5(b *testing.B)          { regenerate(b) }
func BenchmarkFigure6(b *testing.B)          { regenerate(b) }
func BenchmarkTable4(b *testing.B)           { regenerate(b) }
func BenchmarkFigure7(b *testing.B)          { regenerate(b) }
func BenchmarkFigure8(b *testing.B)          { regenerate(b) }
func BenchmarkFigure9(b *testing.B)          { regenerate(b) }
func BenchmarkFigure10(b *testing.B)         { regenerate(b) }
func BenchmarkFigure11(b *testing.B)         { regenerate(b) }
func BenchmarkTau(b *testing.B)              { regenerate(b) }
func BenchmarkWriteReduction(b *testing.B)   { regenerate(b) }
func BenchmarkTsSensitivity(b *testing.B)    { regenerate(b) }
func BenchmarkCharacterization(b *testing.B) { regenerate(b) }

// table1 regenerates Table 1: per-benchmark characteristics.
func table1(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Table 1: benchmark information for crash experiments ==="}}
	a.printf("%-9s %-48s %7s %8s %10s %10s %10s %-18s %5s",
		"bench", "description", "regions", "R/W", "footprint", "cand.DO", "crit.DO", "extra-iters", "iters")
	for _, name := range apps.Names() {
		res := workflow(tb, name)
		g := res.Golden
		var critBytes uint64
		for _, o := range g.Candidates {
			if slices.Contains(res.Critical, o.Name) {
				critBytes += o.Size
			}
		}
		// Restart overhead is the paper's baseline-campaign measurement:
		// how many extra iterations a plain restart costs, or N/A when the
		// restart cannot complete or verify at all.
		extra := "0"
		switch {
		case res.Baseline.Counts[nvct.S3] > len(res.Baseline.Tests)/2:
			extra = "N/A (segfault)"
		case res.Baseline.Counts[nvct.S4] > (9*len(res.Baseline.Tests))/10:
			extra = "N/A (verif. fails)"
		case res.Baseline.AvgExtraIters() > 0:
			extra = fmt.Sprintf("%.1f", res.Baseline.AvgExtraIters())
		}
		f, err := apps.New(name, apps.ProfileTest)
		if err != nil {
			tb.Fatal(err)
		}
		rw := float64(g.CacheStats.Loads) / float64(g.CacheStats.Stores)
		a.printf("%-9s %-48s %7d %6.1f:1 %10s %10s %10s %-18s %5d",
			name, f().Description(), g.Regions, rw, cli.Size(g.Footprint), cli.Size(g.CandidateBytes),
			cli.Size(critBytes), extra, g.Iters)
	}
	return a
}

// figure3 regenerates Figure 3: application responses after crash and
// restart without persistence.
func figure3(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 3: responses after crash and restart (no persistence) ==="}}
	a.printf("%-9s %7s %7s %7s %7s", "bench", "S1", "S2", "S3", "S4")
	var avg [4]float64
	for _, name := range apps.Names() {
		rep := workflow(tb, name).Baseline
		n := float64(len(rep.Tests))
		a.printf("%-9s %6.1f%% %6.1f%% %6.1f%% %6.1f%%", name, 100*float64(rep.Counts[0])/n,
			100*float64(rep.Counts[1])/n, 100*float64(rep.Counts[2])/n, 100*float64(rep.Counts[3])/n)
		for i := range avg {
			avg[i] += float64(rep.Counts[i]) / n
		}
	}
	n := float64(len(apps.Names()))
	a.printf("%-9s %6.1f%% %6.1f%% %6.1f%% %6.1f%%", "average", 100*avg[0]/n, 100*avg[1]/n, 100*avg[2]/n, 100*avg[3]/n)
	a.metrics = map[string]float64{"S1-rate": avg[0] / n}
	return a
}

// figure4a regenerates Figure 4(a): MG recomputability persisting individual
// data objects. Values: none, iterator, u, r.
func figure4a(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 4a: MG recomputability persisting different objects ==="}}
	for _, tc := range []struct {
		label  string
		policy *nvct.Policy
	}{
		{"none", nil},
		{"index (iterator)", nvct.IterationPolicy([]string{"it"})},
		{"u", nvct.IterationPolicy([]string{"u"})},
		{"r", nvct.IterationPolicy([]string{"r"})},
	} {
		r := tester(tb, "mg").RunCampaign(tc.policy, nvct.CampaignOpts{Tests: campaignTests(), Seed: 2}).Recomputability()
		a.printf("  persist %-18s R = %.2f", tc.label, r)
		a.values = append(a.values, r)
	}
	return a
}

// figure4b regenerates Figure 4(b): MG recomputability persisting u at each
// single code region. Values: R0..R3.
func figure4b(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 4b: MG recomputability persisting u at single regions ==="}}
	for r := 0; r < 4; r++ {
		policy := &nvct.Policy{Objects: []string{"u"}, AtRegionEnds: []int{r}, Frequency: 1}
		rec := tester(tb, "mg").RunCampaign(policy, nvct.CampaignOpts{Tests: campaignTests(), Seed: 2}).Recomputability()
		a.printf("  persist u at R%d only: R = %.2f", r, rec)
		a.values = append(a.values, rec)
	}
	return a
}

// figure5 regenerates Figure 5: recomputability persisting no objects, the
// selected (critical) objects, and all candidate objects.
func figure5(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 5: persist none vs selected vs all candidate objects ==="}}
	a.printf("%-9s %8s %10s %8s", "bench", "none", "selected", "all")
	opts := nvct.CampaignOpts{Tests: campaignTests(), Seed: 3}
	var maxGap float64
	for _, name := range apps.Names() {
		res, t := workflow(tb, name), tester(tb, name)
		sel := t.RunCampaign(nvct.IterationPolicy(res.Critical), opts).Recomputability()
		all := t.RunCampaign(nvct.IterationPolicy(res.Candidates), opts).Recomputability()
		a.printf("%-9s %8.2f %10.2f %8.2f", name, res.BaselineY, sel, all)
		maxGap = max(maxGap, all-sel)
	}
	a.printf("largest (all - selected) gap: %.2f  (paper: < 3%% in all cases)", maxGap)
	a.metrics = map[string]float64{"max-gap": maxGap}
	return a
}

// figure6 regenerates Figure 6: recomputability without EasyCrash, with
// object selection only, with the full EasyCrash policy, the best
// reference, and the copy-based verified variant.
func figure6(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 6: recomputability with different methods ==="}}
	a.printf("%-9s %8s %9s %8s %8s %8s", "bench", "none", "+objects", "EC", "best", "VFY")
	opts := nvct.CampaignOpts{Tests: campaignTests(), Seed: 4}
	vopts := opts
	vopts.Verified = true
	var sumBase, sumEC, transformed, failed float64
	for _, name := range apps.Names() {
		res, t := workflow(tb, name), tester(tb, name)
		objOnly := t.RunCampaign(nvct.IterationPolicy(res.Critical), opts).Recomputability()
		ec := res.AchievedY()
		vfy := t.RunCampaign(ecPolicy(res), vopts).Recomputability()
		a.printf("%-9s %8.2f %9.2f %8.2f %8.2f %8.2f",
			name, res.BaselineY, objOnly, ec, bestRecomputability(tb, name), vfy)
		sumBase += res.BaselineY
		sumEC += ec
		failed += 1 - res.BaselineY
		transformed += max(0, ec-res.BaselineY)
	}
	n := float64(len(apps.Names()))
	a.printf("%-9s %8.2f %19.2f", "average", sumBase/n, sumEC/n)
	a.printf("crashes that could not recompute transformed into success: %.0f%%", 100*transformed/failed)
	a.metrics = map[string]float64{"avg-EC-recomputability": sumEC / n, "transformed-fraction": transformed / failed}
	return a
}

// table4 regenerates Table 4: persistence-operation counts and normalized
// execution times on the DRAM profile.
func table4(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Table 4: persistence cost and normalized execution time (DRAM) ==="}}
	a.printf("%-9s %14s %8s %10s %12s", "bench", "persist-1x(us)", "ops", "EC", "persist-all")
	p := nvmperf.DRAM()
	var sumEC, sumAll float64
	for _, name := range apps.Names() {
		ps := profiles(tb, name)
		ecB := nvmperf.Breakdown(p, ps.ec.CacheStats, ps.ec.PersistStats, ps.base.CacheStats)
		allB := nvmperf.Breakdown(p, ps.all.CacheStats, ps.all.PersistStats, ps.base.CacheStats)
		a.printf("%-9s %14.1f %8d %10.3f %12.3f",
			name, ecB.AvgPersistOnceNS/1e3, ecB.Operations, ecB.Normalized, allB.Normalized)
		sumEC += ecB.Normalized
		sumAll += allB.Normalized
	}
	n := float64(len(apps.Names()))
	a.printf("%-9s %23s %10.3f %12.3f", "average", "", sumEC/n, sumAll/n)
	a.metrics = map[string]float64{"avg-EC-normalized-time": sumEC / n}
	return a
}

// figure7 regenerates Figure 7: normalized execution time with and without
// selective persistence across NVM latency/bandwidth profiles.
func figure7(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 7: normalized execution time across NVM profiles (average) ==="}}
	for _, p := range []nvmperf.Profile{nvmperf.Lat4x(), nvmperf.Lat8x(), nvmperf.BW6(), nvmperf.BW8()} {
		var sumEC, sumAll float64
		for _, name := range apps.Names() {
			ps := profiles(tb, name)
			sumEC += p.Normalized(ps.ec.CacheStats, ps.base.CacheStats)
			sumAll += p.Normalized(ps.all.CacheStats, ps.base.CacheStats)
		}
		n := float64(len(apps.Names()))
		a.printf("  %-18s EC %.3f   persist-all %.3f", p.Name, sumEC/n, sumAll/n)
	}
	return a
}

// figure8 regenerates Figure 8: normalized execution time on the Optane DC
// PMM profile.
func figure8(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 8: normalized execution time on Optane DC PMM ==="}}
	a.printf("%-9s %8s %12s", "bench", "EC", "persist-all")
	p := nvmperf.OptaneDC()
	var sumEC, sumAll float64
	for _, name := range apps.Names() {
		ps := profiles(tb, name)
		ec := p.Normalized(ps.ec.CacheStats, ps.base.CacheStats)
		all := p.Normalized(ps.all.CacheStats, ps.base.CacheStats)
		a.printf("%-9s %8.3f %12.3f", name, ec, all)
		sumEC += ec
		sumAll += all
	}
	n := float64(len(apps.Names()))
	a.printf("%-9s %8.3f %12.3f", "average", sumEC/n, sumAll/n)
	a.metrics = map[string]float64{"avg-EC-normalized-optane": sumEC / n}
	return a
}

// figure9 regenerates Figure 9: normalized NVM writes for EasyCrash vs
// single-checkpoint C/R, at the bench (large-object) profile.
func figure9(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 9: normalized NVM writes (1.0 = no fault tolerance) ==="}}
	a.printf("%-9s %10s %14s %10s", "bench", "easycrash", "ckpt-critical", "ckpt-all")
	var sumEC, sumCrit, sumAll float64
	for _, name := range apps.Names() {
		rep := writes(tb, name)
		a.printf("%-9s %10.3f %14.3f %10.3f",
			name, rep.NormalizedEasyCrash(), rep.NormalizedCkptCritical(), rep.NormalizedCkptAll())
		sumEC += rep.NormalizedEasyCrash()
		sumCrit += rep.NormalizedCkptCritical()
		sumAll += rep.NormalizedCkptAll()
	}
	n := float64(len(apps.Names()))
	a.printf("%-9s %10.3f %14.3f %10.3f", "average", sumEC/n, sumCrit/n, sumAll/n)
	a.metrics = map[string]float64{"avg-EC-extra-writes": sumEC/n - 1, "avg-CR-extra-writes": sumAll/n - 1}
	return a
}

// figure10 regenerates Figure 10: system efficiency with and without
// EasyCrash at MTBF 12h for the lowest- and highest-recomputability kernels
// and the average. It checks its own claim, that the average gain grows with
// T_chk, because the measured R it needs costs every kernel's workflow —
// too slow for TestPaperClaims under plain go test.
func figure10(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Figure 10: system efficiency without/with EasyCrash (MTBF 12h) ==="}}
	lowName, hiName := "", ""
	lowR, hiR := 2.0, -1.0
	var sumR, sumBytes float64
	for _, name := range apps.Names() {
		if name == "ep" {
			continue // the paper excludes EP (recomputability ~0)
		}
		res := workflow(tb, name)
		r := res.AchievedY()
		if r < lowR {
			lowR, lowName = r, name
		}
		if r > hiR {
			hiR, hiName = r, name
		}
		sumR += r
		sumBytes += float64(res.Golden.CandidateBytes)
	}
	n := float64(len(apps.Names()) - 1)
	for _, pt := range []struct {
		label    string
		r, bytes float64
	}{
		{lowName + " (lowest R)", lowR, float64(workflow(tb, lowName).Golden.CandidateBytes)},
		{hiName + " (highest R)", hiR, float64(workflow(tb, hiName).Golden.CandidateBytes)},
		{"average", sumR / n, sumBytes / n},
	} {
		prev := math.Inf(-1)
		for _, tchk := range sysmodel.CheckpointOverheads() {
			p := sysmodel.Params{MTBF: 12 * 3600, TChk: tchk, R: pt.r, Ts: 0.015, DataBytes: pt.bytes}
			base, ec, gain, err := sysmodel.Improvement(p)
			if err != nil {
				tb.Fatal(err)
			}
			a.printf("  %-22s Tchk=%5.0fs  base %.4f  EC %.4f  gain %+.4f", pt.label, tchk, base, ec, gain)
			if pt.label != "average" {
				continue
			}
			if gain <= prev {
				tb.Errorf("Figure 10: average gain did not grow with T_chk at %.0f s", tchk)
			}
			prev = gain
			if tchk == 3200 {
				a.metrics = map[string]float64{"avg-gain-tchk3200": gain}
			}
		}
	}
	return a
}

// figure11 regenerates Figure 11: CG's system efficiency as the system
// scales from 100k to 400k nodes. Values: the gains, row by row.
func figure11(tb testing.TB) artifact {
	res := workflow(tb, "cg")
	r := res.AchievedY()
	a := artifact{}
	a.printf("\n=== Figure 11: CG system efficiency vs scale (R = %.2f) ===", r)
	for _, tchk := range []float64{32, 3200} {
		for _, sc := range sysmodel.Scales() {
			p := sysmodel.Params{MTBF: sc.MTBF, TChk: tchk, R: r, Ts: 0.015, DataBytes: float64(res.Golden.CandidateBytes)}
			base, ec, gain, err := sysmodel.Improvement(p)
			if err != nil {
				tb.Fatal(err)
			}
			a.printf("  Tchk=%5.0fs  %7d nodes  base %.4f  EC %.4f  gain %+.4f", tchk, sc.Nodes, base, ec, gain)
			a.values = append(a.values, gain)
		}
	}
	return a
}

// tau regenerates the §7 τ derivation across operating points. Values: τ,
// row by row.
func tau(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== tau: recomputability threshold across operating points ==="}}
	for _, tchk := range sysmodel.CheckpointOverheads() {
		for _, sc := range sysmodel.Scales() {
			v, err := sysmodel.Tau(sysmodel.Params{MTBF: sc.MTBF, TChk: tchk, Ts: 0.015, DataBytes: 500e6})
			if err != nil {
				tb.Fatal(err)
			}
			a.printf("  Tchk=%5.0fs MTBF=%4.0fh  tau = %.3f", tchk, sc.MTBF/3600, v)
			a.values = append(a.values, v)
		}
	}
	return a
}

// writeReduction reports the §7 headline: EasyCrash's write reduction
// relative to C/R without EasyCrash, with each kernel's two extra-write
// bases, since a ratio over a near-zero C/R base swings far past -100%.
func writeReduction(tb testing.TB) artifact {
	var a artifact
	var reductions []float64
	for _, name := range apps.Names() {
		rep := writes(tb, name)
		ecExtra := float64(rep.EasyCrashWrites - rep.BaselineWrites)
		crExtra := float64(rep.CkptAllWrites - rep.BaselineWrites)
		ratio := "n/a"
		if crExtra > 0 {
			reductions = append(reductions, 1-ecExtra/crExtra)
			ratio = fmt.Sprintf("%.0f%%", 100*(1-ecExtra/crExtra))
		}
		a.printf("  %-9s reduction %6s  (extra writes: EasyCrash %+.1f%%, C/R %+.1f%%)",
			name, ratio, 100*ecExtra/float64(rep.BaselineWrites), 100*crExtra/float64(rep.BaselineWrites))
	}
	slices.Sort(reductions)
	var sum float64
	for _, r := range reductions {
		sum += r
	}
	avg := sum / float64(len(reductions))
	a.lines = slices.Insert(a.lines, 0, fmt.Sprintf(
		"\n=== §7: additional-write reduction vs C/R: min %.0f%%, max %.0f%%, avg %.0f%% ===",
		100*reductions[0], 100*reductions[len(reductions)-1], 100*avg))
	a.metrics = map[string]float64{"avg-write-reduction": avg}
	return a
}

// tsSensitivity reproduces the §6 sensitivity discussion: with a tighter
// overhead budget t_s, persistence becomes sparser and some kernels (the
// paper names FT) can no longer meet the recomputability threshold.
func tsSensitivity(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== t_s sensitivity (tau = 0.5) ==="}}
	for _, kernel := range []string{"mg", "ft"} {
		for _, ts := range []float64{0.02, 0.03, 0.05} {
			res, err := core.RunWithTester(tester(tb, kernel), core.Config{Ts: ts, Tests: campaignTests(), Seed: 1, Tau: 0.5})
			if err != nil {
				tb.Fatal(err)
			}
			verdict := "meets tau"
			if !res.MeetsTau {
				verdict = "fails tau"
			}
			a.printf("  %-8s ts=%.0f%%  freq=%d  predicted=%.2f  achieved=%.2f  %s",
				kernel, ts*100, res.Frequency, res.PredictedY, res.AchievedY(), verdict)
		}
	}
	return a
}

// characterization runs the §8 crash-test-free study: feature extraction
// for every kernel, the fitted recomputability model, and each kernel's
// prediction by a model fitted on the other kernels only.
func characterization(tb testing.TB) artifact {
	names := apps.Names()
	feats := make([]predict.Features, len(names))
	measured := make([]float64, len(names))
	for i, name := range names {
		f, err := apps.New(name, apps.ProfileTest)
		if err != nil {
			tb.Fatal(err)
		}
		if feats[i], err = predict.Characterize(f, cachesim.Config{}, 0); err != nil {
			tb.Fatal(err)
		}
		measured[i] = workflow(tb, name).BaselineY
	}
	model, err := predict.Fit(feats, measured)
	if err != nil {
		tb.Fatal(err)
	}
	a := artifact{lines: []string{"\n=== §8 extension: recomputability prediction without crash tests ==="}}
	a.printf("%-9s %10s %8s %10s %6s %10s %10s %11s",
		"bench", "dirty@end", "rmw", "rewrite", "conv", "measured", "predicted", "leave-1-out")
	for i, name := range names {
		loo, err := predict.Fit(slices.Concat(feats[:i], feats[i+1:]), slices.Concat(measured[:i], measured[i+1:]))
		if err != nil {
			tb.Fatal(err)
		}
		a.printf("%-9s %10.3f %8.3f %10.3f %6.0f %10.2f %10.2f %11.2f",
			name, feats[i].DirtyAtIterEnd, feats[i].RMWStoreFrac, feats[i].RewriteCoverage,
			feats[i].Convergent, measured[i], model.Predict(feats[i]), loo.Predict(feats[i]))
	}
	c := model.Coef
	a.printf("full-fit coefficients: intercept %.3f  dirty %.3f  rmw %.3f  rewrite %.3f  conv %.3f",
		c[0], c[1], c[2], c[3], c[4])
	return a
}

// TestPaperClaims asserts the orderings the cheap runner rows reproduce at
// their bench seeds (EXPERIMENTS.md), so a regression in object or region
// selection or in the §7 model fails tier-1 instead of changing a printed
// number.
func TestPaperClaims(t *testing.T) {
	// Fig. 4a — none, iterator, u, r: persisting u alone lifts MG.
	fig4a := artifactOf(t, "Figure4a").values
	none := fig4a[0]
	if !(fig4a[2] > none) || fig4a[1] != none || fig4a[3] != none {
		t.Errorf("Figure 4a: R persisting none/it/u/r = %v, want only u above none", fig4a)
	}
	// Fig. 4b — u at R0..R3: only the commit region R3 lifts.
	if v := artifactOf(t, "Figure4b").values; v[0] != none || v[1] != none || v[2] != none || !(v[3] > none) {
		t.Errorf("Figure 4b: R persisting u at R0..R3 = %v, want only R3 above none (%v)", v, none)
	}
	// Fig. 11 — T_chk 32 then 3200 s, each at 100k/200k/400k nodes: the gain
	// never shrinks with scale.
	fig11 := artifactOf(t, "Figure11").values
	for i := range fig11 {
		if i%3 > 0 && fig11[i] < fig11[i-1] {
			t.Errorf("Figure 11: gain shrank with scale: %v", fig11)
			break
		}
	}
	// τ — T_chk 32/320/3200 s, each at MTBF 12/6/3 h: τ falls as T_chk grows
	// and as MTBF shrinks.
	taus := artifactOf(t, "Tau").values
	for i := range taus {
		if (i%3 > 0 && !(taus[i] < taus[i-1])) || (i >= 3 && !(taus[i] < taus[i-3])) {
			t.Errorf("tau: %v, want decreasing in T_chk and in failure rate", taus)
			break
		}
	}
}
