// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§4, §6, §7). Each BenchmarkTableN / BenchmarkFigureN computes
// its experiment once (cached across the benchmark's b.N scaling), prints
// the same rows/series the paper reports, and reports headline numbers as
// benchmark metrics.
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
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/ckpt"
	"easycrash/internal/core"
	"easycrash/internal/nvct"
	"easycrash/internal/nvmperf"
	"easycrash/internal/predict"
	"easycrash/internal/sysmodel"
)

func campaignTests() int {
	if s := os.Getenv("EASYCRASH_TESTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 100
}

// scaledTs returns the runtime-overhead budget the evaluation harness hands
// the workflow. The paper's t_s = 3% assumed Class-C problems where one
// persistence operation costs ~0.03 s against minutes of compute; at the
// simulator's problem sizes the flush-to-compute cost ratio is roughly four
// times higher, so the equivalent budget is ~12% (override: EASYCRASH_TS).
func scaledTs() float64 {
	if s := os.Getenv("EASYCRASH_TS"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.12
}

// lab caches experiment artefacts across benchmarks within one process.
type labState struct {
	mu      sync.Mutex
	testers map[string]*nvct.Tester
	results map[string]*core.Result
	best    map[string]float64
}

var lab = &labState{
	testers: map[string]*nvct.Tester{},
	results: map[string]*core.Result{},
	best:    map[string]float64{},
}

func (l *labState) tester(b *testing.B, kernel string) *nvct.Tester {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t, ok := l.testers[kernel]; ok {
		return t
	}
	f, err := apps.New(kernel, apps.ProfileTest)
	if err != nil {
		b.Fatal(err)
	}
	t, err := nvct.NewTester(f, nvct.Config{})
	if err != nil {
		b.Fatal(err)
	}
	l.testers[kernel] = t
	return t
}

// workflow runs (once) the EasyCrash workflow for a kernel.
func (l *labState) workflow(b *testing.B, kernel string) *core.Result {
	t := l.tester(b, kernel)
	l.mu.Lock()
	defer l.mu.Unlock()
	if r, ok := l.results[kernel]; ok {
		return r
	}
	r, err := core.RunWithTester(t, core.Config{Tests: campaignTests(), Seed: 1, Ts: scaledTs()})
	if err != nil {
		b.Fatal(err)
	}
	l.results[kernel] = r
	return r
}

// bestRecomputability measures the paper's "best" reference: critical
// objects persisted at every region of every iteration, or — for kernels
// whose mid-region state is non-idempotent and suffers from mid-step
// flushing — at every iteration end, whichever is higher.
func (l *labState) bestRecomputability(b *testing.B, kernel string) float64 {
	res := l.workflow(b, kernel)
	t := l.tester(b, kernel)
	l.mu.Lock()
	defer l.mu.Unlock()
	if v, ok := l.best[kernel]; ok {
		return v
	}
	every := t.RunCampaign(nvct.EveryRegionPolicy(res.Critical, res.Golden.Regions),
		nvct.CampaignOpts{Tests: campaignTests(), Seed: 5})
	iter := t.RunCampaign(nvct.IterationPolicy(res.Critical),
		nvct.CampaignOpts{Tests: campaignTests(), Seed: 5})
	v := every.Recomputability()
	if iter.Recomputability() > v {
		v = iter.Recomputability()
	}
	l.best[kernel] = v
	return v
}

// printOnce guards each experiment's table against b.N re-invocations.
var printOnce sync.Map

func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

func spin(b *testing.B) {
	for i := 0; i < b.N; i++ {
	}
}

func sizeOf(bytes uint64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(bytes)/(1<<20))
	case bytes >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(bytes)/(1<<10))
	}
	return fmt.Sprintf("%dB", bytes)
}

// BenchmarkTable1 regenerates Table 1: per-benchmark characteristics.
func BenchmarkTable1(b *testing.B) {
	rows := make([]string, 0, len(apps.Names()))
	var sumExtra float64
	for _, name := range apps.Names() {
		res := lab.workflow(b, name)
		g := res.Golden
		var critBytes uint64
		for _, o := range g.Candidates {
			for _, c := range res.Critical {
				if o.Name == c {
					critBytes += o.Size
				}
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
		rw := float64(g.CacheStats.Loads) / float64(g.CacheStats.Stores)
		rows = append(rows, fmt.Sprintf("%-9s %7d %6.1f:1 %10s %10s %10s %-18s %5d",
			name, g.Regions, rw, sizeOf(g.Footprint), sizeOf(g.CandidateBytes),
			sizeOf(critBytes), extra, g.Iters))
		if res.Final != nil {
			sumExtra += res.Final.AvgExtraIters()
		}
	}
	once("table1", func() {
		fmt.Println("\n=== Table 1: benchmark information for crash experiments ===")
		fmt.Printf("%-9s %7s %8s %10s %10s %10s %-18s %5s\n",
			"bench", "regions", "R/W", "footprint", "cand.DO", "crit.DO", "extra-iters", "iters")
		for _, r := range rows {
			fmt.Println(r)
		}
	})
	spin(b)
}

// BenchmarkFigure3 regenerates Figure 3: application responses after crash
// and restart without persistence.
func BenchmarkFigure3(b *testing.B) {
	var avg [4]float64
	rows := make([]string, 0, len(apps.Names()))
	for _, name := range apps.Names() {
		rep := lab.workflow(b, name).Baseline
		n := float64(len(rep.Tests))
		rows = append(rows, fmt.Sprintf("%-9s %6.1f%% %6.1f%% %6.1f%% %6.1f%%",
			name, 100*float64(rep.Counts[0])/n, 100*float64(rep.Counts[1])/n,
			100*float64(rep.Counts[2])/n, 100*float64(rep.Counts[3])/n))
		for i := 0; i < 4; i++ {
			avg[i] += float64(rep.Counts[i]) / n
		}
	}
	once("figure3", func() {
		fmt.Println("\n=== Figure 3: responses after crash and restart (no persistence) ===")
		fmt.Printf("%-9s %7s %7s %7s %7s\n", "bench", "S1", "S2", "S3", "S4")
		for _, r := range rows {
			fmt.Println(r)
		}
		n := float64(len(apps.Names()))
		fmt.Printf("%-9s %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n", "average",
			100*avg[0]/n, 100*avg[1]/n, 100*avg[2]/n, 100*avg[3]/n)
	})
	b.ReportMetric(avg[0]/float64(len(apps.Names())), "S1-rate")
	spin(b)
}

// BenchmarkFigure4a regenerates Figure 4(a): MG recomputability persisting
// individual data objects.
func BenchmarkFigure4a(b *testing.B) {
	t := lab.tester(b, "mg")
	opts := nvct.CampaignOpts{Tests: campaignTests(), Seed: 2}
	var lines []string
	for _, tc := range []struct {
		label  string
		policy *nvct.Policy
	}{
		{"none", nil},
		{"index (iterator)", nvct.IterationPolicy([]string{"it"})},
		{"u", nvct.IterationPolicy([]string{"u"})},
		{"r", nvct.IterationPolicy([]string{"r"})},
	} {
		rep := t.RunCampaign(tc.policy, opts)
		lines = append(lines, fmt.Sprintf("  persist %-18s R = %.2f", tc.label, rep.Recomputability()))
	}
	once("figure4a", func() {
		fmt.Println("\n=== Figure 4a: MG recomputability persisting different objects ===")
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	spin(b)
}

// BenchmarkFigure4b regenerates Figure 4(b): MG recomputability persisting u
// at each single code region.
func BenchmarkFigure4b(b *testing.B) {
	t := lab.tester(b, "mg")
	opts := nvct.CampaignOpts{Tests: campaignTests(), Seed: 2}
	var lines []string
	for r := 0; r < 4; r++ {
		rep := t.RunCampaign(&nvct.Policy{Objects: []string{"u"}, AtRegionEnds: []int{r}, Frequency: 1}, opts)
		lines = append(lines, fmt.Sprintf("  persist u at R%d only: R = %.2f", r, rep.Recomputability()))
	}
	once("figure4b", func() {
		fmt.Println("\n=== Figure 4b: MG recomputability persisting u at single regions ===")
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	spin(b)
}

// BenchmarkFigure5 regenerates Figure 5: recomputability persisting no
// objects, the selected (critical) objects, and all candidate objects.
func BenchmarkFigure5(b *testing.B) {
	opts := nvct.CampaignOpts{Tests: campaignTests(), Seed: 3}
	var rows []string
	var maxGap float64
	for _, name := range apps.Names() {
		res := lab.workflow(b, name)
		t := lab.tester(b, name)
		sel := t.RunCampaign(nvct.IterationPolicy(res.Critical), opts).Recomputability()
		all := t.RunCampaign(nvct.IterationPolicy(res.Candidates), opts).Recomputability()
		rows = append(rows, fmt.Sprintf("%-9s %8.2f %10.2f %8.2f", name, res.BaselineY, sel, all))
		if gap := all - sel; gap > maxGap {
			maxGap = gap
		}
	}
	once("figure5", func() {
		fmt.Println("\n=== Figure 5: persist none vs selected vs all candidate objects ===")
		fmt.Printf("%-9s %8s %10s %8s\n", "bench", "none", "selected", "all")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Printf("largest (all - selected) gap: %.2f  (paper: < 3%% in all cases)\n", maxGap)
	})
	b.ReportMetric(maxGap, "max-gap")
	spin(b)
}

// BenchmarkFigure6 regenerates Figure 6: recomputability without EasyCrash,
// with object selection only, with the full EasyCrash policy, the best
// reference, and the copy-based verified variant.
func BenchmarkFigure6(b *testing.B) {
	opts := nvct.CampaignOpts{Tests: campaignTests(), Seed: 4}
	var rows []string
	var sumBase, sumEC float64
	var transformed, failed float64
	for _, name := range apps.Names() {
		res := lab.workflow(b, name)
		t := lab.tester(b, name)
		objOnly := t.RunCampaign(nvct.IterationPolicy(res.Critical), opts).Recomputability()
		ec := res.AchievedY()
		best := lab.bestRecomputability(b, name)
		vfyPolicy := res.Policy
		if vfyPolicy == nil {
			vfyPolicy = nvct.IterationPolicy(res.Critical)
		}
		vopts := opts
		vopts.Verified = true
		vfy := t.RunCampaign(vfyPolicy, vopts).Recomputability()
		rows = append(rows, fmt.Sprintf("%-9s %8.2f %9.2f %8.2f %8.2f %8.2f",
			name, res.BaselineY, objOnly, ec, best, vfy))
		sumBase += res.BaselineY
		sumEC += ec
		failed += 1 - res.BaselineY
		if ec > res.BaselineY {
			transformed += ec - res.BaselineY
		}
	}
	n := float64(len(apps.Names()))
	once("figure6", func() {
		fmt.Println("\n=== Figure 6: recomputability with different methods ===")
		fmt.Printf("%-9s %8s %9s %8s %8s %8s\n", "bench", "none", "+objects", "EC", "best", "VFY")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Printf("%-9s %8.2f %19.2f\n", "average", sumBase/n, sumEC/n)
		fmt.Printf("crashes that could not recompute transformed into success: %.0f%%\n",
			100*transformed/failed)
	})
	b.ReportMetric(sumEC/n, "avg-EC-recomputability")
	b.ReportMetric(transformed/failed, "transformed-fraction")
	spin(b)
}

// profileSet holds the profiled undisturbed runs each performance figure
// prices.
type profileSet struct {
	base, ec, all nvct.Golden
}

var profiles sync.Map // kernel -> profileSet

func (l *labState) profiles(b *testing.B, kernel string) profileSet {
	if v, ok := profiles.Load(kernel); ok {
		return v.(profileSet)
	}
	res := l.workflow(b, kernel)
	t := l.tester(b, kernel)
	base, err := t.ProfileRun(nil)
	if err != nil {
		b.Fatal(err)
	}
	policy := res.Policy
	if policy == nil {
		policy = nvct.IterationPolicy(res.Critical)
	}
	ec, err := t.ProfileRun(policy)
	if err != nil {
		b.Fatal(err)
	}
	all, err := t.ProfileRun(nvct.IterationPolicy(res.Candidates))
	if err != nil {
		b.Fatal(err)
	}
	ps := profileSet{base: base, ec: ec, all: all}
	profiles.Store(kernel, ps)
	return ps
}

// BenchmarkTable4 regenerates Table 4: persistence-operation counts and
// normalized execution times on the DRAM profile.
func BenchmarkTable4(b *testing.B) {
	p := nvmperf.DRAM()
	var rows []string
	var sumEC, sumAll float64
	for _, name := range apps.Names() {
		ps := lab.profiles(b, name)
		ecB := nvmperf.Breakdown(p, ps.ec.CacheStats, ps.ec.PersistStats, ps.base.CacheStats)
		allB := nvmperf.Breakdown(p, ps.all.CacheStats, ps.all.PersistStats, ps.base.CacheStats)
		rows = append(rows, fmt.Sprintf("%-9s %14.1f %8d %10.3f %12.3f",
			name, ecB.AvgPersistOnceNS/1e3, ecB.Operations, ecB.Normalized, allB.Normalized))
		sumEC += ecB.Normalized
		sumAll += allB.Normalized
	}
	n := float64(len(apps.Names()))
	once("table4", func() {
		fmt.Println("\n=== Table 4: persistence cost and normalized execution time (DRAM) ===")
		fmt.Printf("%-9s %14s %8s %10s %12s\n", "bench", "persist-1x(us)", "ops", "EC", "persist-all")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Printf("%-9s %23s %10.3f %12.3f\n", "average", "", sumEC/n, sumAll/n)
	})
	b.ReportMetric(sumEC/n, "avg-EC-normalized-time")
	spin(b)
}

// BenchmarkFigure7 regenerates Figure 7: normalized execution time with and
// without selective persistence across NVM latency/bandwidth profiles.
func BenchmarkFigure7(b *testing.B) {
	nvms := []nvmperf.Profile{nvmperf.Lat4x(), nvmperf.Lat8x(), nvmperf.BW6(), nvmperf.BW8()}
	var lines []string
	for _, p := range nvms {
		var sumEC, sumAll float64
		for _, name := range apps.Names() {
			ps := lab.profiles(b, name)
			sumEC += p.Normalized(ps.ec.CacheStats, ps.base.CacheStats)
			sumAll += p.Normalized(ps.all.CacheStats, ps.base.CacheStats)
		}
		n := float64(len(apps.Names()))
		lines = append(lines, fmt.Sprintf("  %-18s EC %.3f   persist-all %.3f", p.Name, sumEC/n, sumAll/n))
	}
	once("figure7", func() {
		fmt.Println("\n=== Figure 7: normalized execution time across NVM profiles (average) ===")
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	spin(b)
}

// BenchmarkFigure8 regenerates Figure 8: normalized execution time on the
// Optane DC PMM profile.
func BenchmarkFigure8(b *testing.B) {
	p := nvmperf.OptaneDC()
	var rows []string
	var sumEC, sumAll float64
	for _, name := range apps.Names() {
		ps := lab.profiles(b, name)
		ec := p.Normalized(ps.ec.CacheStats, ps.base.CacheStats)
		all := p.Normalized(ps.all.CacheStats, ps.base.CacheStats)
		rows = append(rows, fmt.Sprintf("%-9s %8.3f %12.3f", name, ec, all))
		sumEC += ec
		sumAll += all
	}
	n := float64(len(apps.Names()))
	once("figure8", func() {
		fmt.Println("\n=== Figure 8: normalized execution time on Optane DC PMM ===")
		fmt.Printf("%-9s %8s %12s\n", "bench", "EC", "persist-all")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Printf("%-9s %8.3f %12.3f\n", "average", sumEC/n, sumAll/n)
	})
	b.ReportMetric(sumEC/n, "avg-EC-normalized-optane")
	spin(b)
}

// benchTester builds (once per kernel) a tester at the large-object bench
// profile — the footprint ≫ LLC regime the paper's write experiments need:
// there, most of a critical object's blocks are clean or absent at flush
// time, so flushing adds little beyond the write-backs that would happen
// anyway, while a checkpoint copies the whole object.
var benchTesters sync.Map

func benchTester(b *testing.B, kernel string) *nvct.Tester {
	if v, ok := benchTesters.Load(kernel); ok {
		return v.(*nvct.Tester)
	}
	f, err := apps.New(kernel, apps.ProfileBench)
	if err != nil {
		b.Fatal(err)
	}
	t, err := nvct.NewTester(f, nvct.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchTesters.Store(kernel, t)
	return t
}

// BenchmarkFigure9 regenerates Figure 9: normalized NVM writes for
// EasyCrash vs single-checkpoint C/R, at the bench (large-object) profile.
func BenchmarkFigure9(b *testing.B) {
	var rows []string
	var sumEC, sumCrit, sumAll float64
	for _, name := range apps.Names() {
		res := lab.workflow(b, name)
		t := benchTester(b, name)
		policy := nvct.IterationPolicy(res.Critical)
		if res.Policy != nil {
			policy.Frequency = res.Policy.Frequency
		}
		rep, err := ckpt.CompareWrites(t, policy, res.Critical)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, fmt.Sprintf("%-9s %10.3f %14.3f %10.3f",
			name, rep.NormalizedEasyCrash(), rep.NormalizedCkptCritical(), rep.NormalizedCkptAll()))
		sumEC += rep.NormalizedEasyCrash()
		sumCrit += rep.NormalizedCkptCritical()
		sumAll += rep.NormalizedCkptAll()
	}
	n := float64(len(apps.Names()))
	once("figure9", func() {
		fmt.Println("\n=== Figure 9: normalized NVM writes (1.0 = no fault tolerance) ===")
		fmt.Printf("%-9s %10s %14s %10s\n", "bench", "easycrash", "ckpt-critical", "ckpt-all")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Printf("%-9s %10.3f %14.3f %10.3f\n", "average", sumEC/n, sumCrit/n, sumAll/n)
	})
	b.ReportMetric(sumEC/n-1, "avg-EC-extra-writes")
	b.ReportMetric(sumAll/n-1, "avg-CR-extra-writes")
	spin(b)
}

// BenchmarkFigure10 regenerates Figure 10: system efficiency with and
// without EasyCrash at MTBF 12h for the lowest- and highest-recomputability
// kernels and the average.
func BenchmarkFigure10(b *testing.B) {
	type point struct {
		label string
		r     float64
		bytes float64
	}
	lowName, hiName := "", ""
	lowR, hiR := 2.0, -1.0
	var sumR, sumBytes float64
	for _, name := range apps.Names() {
		if name == "ep" {
			continue // the paper excludes EP (recomputability ~0)
		}
		res := lab.workflow(b, name)
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
	points := []point{
		{lowName + " (lowest R)", lowR, float64(lab.workflow(b, lowName).Golden.CandidateBytes)},
		{hiName + " (highest R)", hiR, float64(lab.workflow(b, hiName).Golden.CandidateBytes)},
		{"average", sumR / n, sumBytes / n},
	}
	var lines []string
	var avgGain3200 float64
	for _, pt := range points {
		for _, tchk := range sysmodel.CheckpointOverheads() {
			p := sysmodel.Params{MTBF: 12 * 3600, TChk: tchk, R: pt.r, Ts: 0.015, DataBytes: pt.bytes}
			base, ec, gain, err := sysmodel.Improvement(p)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("  %-22s Tchk=%5.0fs  base %.4f  EC %.4f  gain %+.4f",
				pt.label, tchk, base, ec, gain))
			if pt.label == "average" && tchk == 3200 {
				avgGain3200 = gain
			}
		}
	}
	once("figure10", func() {
		fmt.Println("\n=== Figure 10: system efficiency without/with EasyCrash (MTBF 12h) ===")
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	b.ReportMetric(avgGain3200, "avg-gain-tchk3200")
	spin(b)
}

// BenchmarkFigure11 regenerates Figure 11: CG's system efficiency as the
// system scales from 100k to 400k nodes.
func BenchmarkFigure11(b *testing.B) {
	res := lab.workflow(b, "cg")
	r := res.AchievedY()
	bytes := float64(res.Golden.CandidateBytes)
	var lines []string
	for _, tchk := range []float64{32, 3200} {
		prev := -1.0
		for _, sc := range sysmodel.Scales() {
			p := sysmodel.Params{MTBF: sc.MTBF, TChk: tchk, R: r, Ts: 0.015, DataBytes: bytes}
			base, ec, gain, err := sysmodel.Improvement(p)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("  Tchk=%5.0fs  %7d nodes  base %.4f  EC %.4f  gain %+.4f",
				tchk, sc.Nodes, base, ec, gain))
			if gain < prev {
				b.Errorf("gain shrank with scale at %d nodes", sc.Nodes)
			}
			prev = gain
		}
	}
	once("figure11", func() {
		fmt.Printf("\n=== Figure 11: CG system efficiency vs scale (R = %.2f) ===\n", r)
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	spin(b)
}

// BenchmarkTau regenerates the §7 τ derivation across operating points.
func BenchmarkTau(b *testing.B) {
	var lines []string
	for _, tchk := range sysmodel.CheckpointOverheads() {
		for _, sc := range sysmodel.Scales() {
			tau, err := sysmodel.Tau(sysmodel.Params{MTBF: sc.MTBF, TChk: tchk, Ts: 0.015, DataBytes: 500e6})
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("  Tchk=%5.0fs MTBF=%4.0fh  tau = %.3f",
				tchk, sc.MTBF/3600, tau))
		}
	}
	once("tau", func() {
		fmt.Println("\n=== tau: recomputability threshold across operating points ===")
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	spin(b)
}

// BenchmarkWriteReduction reports the §7 headline: EasyCrash's write
// reduction relative to C/R without EasyCrash.
func BenchmarkWriteReduction(b *testing.B) {
	var reductions []float64
	for _, name := range apps.Names() {
		res := lab.workflow(b, name)
		t := benchTester(b, name)
		policy := nvct.IterationPolicy(res.Critical)
		if res.Policy != nil {
			policy.Frequency = res.Policy.Frequency
		}
		rep, err := ckpt.CompareWrites(t, policy, res.Critical)
		if err != nil {
			b.Fatal(err)
		}
		ecExtra := float64(rep.EasyCrashWrites - rep.BaselineWrites)
		crExtra := float64(rep.CkptAllWrites - rep.BaselineWrites)
		if crExtra > 0 {
			reductions = append(reductions, 1-ecExtra/crExtra)
		}
	}
	sort.Float64s(reductions)
	var sum float64
	for _, r := range reductions {
		sum += r
	}
	avg := sum / float64(len(reductions))
	once("writereduction", func() {
		fmt.Printf("\n=== §7: additional-write reduction vs C/R: min %.0f%%, max %.0f%%, avg %.0f%% ===\n",
			100*reductions[0], 100*reductions[len(reductions)-1], 100*avg)
	})
	b.ReportMetric(avg, "avg-write-reduction")
	spin(b)
}

// BenchmarkTsSensitivity reproduces the §6 sensitivity discussion: with a
// tighter overhead budget t_s, persistence becomes sparser and some kernels
// (the paper names FT) can no longer meet the recomputability threshold.
func BenchmarkTsSensitivity(b *testing.B) {
	var lines []string
	for _, kernel := range []string{"mg", "ft"} {
		t := lab.tester(b, kernel)
		for _, ts := range []float64{0.02, 0.03, 0.05} {
			res, err := core.RunWithTester(t, core.Config{
				Ts: ts, Tests: campaignTests(), Seed: 1, Tau: 0.5,
			})
			if err != nil {
				b.Fatal(err)
			}
			verdict := "meets tau"
			if !res.MeetsTau {
				verdict = "fails tau"
			}
			lines = append(lines, fmt.Sprintf("  %-8s ts=%.0f%%  freq=%d  predicted=%.2f  achieved=%.2f  %s",
				kernel, ts*100, res.Frequency, res.PredictedY, res.AchievedY(), verdict))
		}
	}
	once("ts-sensitivity", func() {
		fmt.Println("\n=== t_s sensitivity (tau = 0.5) ===")
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	spin(b)
}

// BenchmarkCharacterization runs the §8 crash-test-free study: feature
// extraction for every kernel plus the fitted recomputability model.
func BenchmarkCharacterization(b *testing.B) {
	names := apps.Names()
	feats := make([]predict.Features, len(names))
	measured := make([]float64, len(names))
	for i, name := range names {
		f, err := apps.New(name, apps.ProfileTest)
		if err != nil {
			b.Fatal(err)
		}
		feat, err := predict.Characterize(f, cachesim.Config{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		feats[i] = feat
		measured[i] = lab.workflow(b, name).BaselineY
	}
	model, err := predict.Fit(feats, measured)
	if err != nil {
		b.Fatal(err)
	}
	once("characterization", func() {
		fmt.Println("\n=== §8 extension: recomputability prediction without crash tests ===")
		fmt.Printf("%-9s %10s %8s %10s %6s %10s %10s\n",
			"bench", "dirty@end", "rmw", "rewrite", "conv", "measured", "predicted")
		for i, name := range names {
			fmt.Printf("%-9s %10.3f %8.3f %10.3f %6.0f %10.2f %10.2f\n",
				name, feats[i].DirtyAtIterEnd, feats[i].RMWStoreFrac,
				feats[i].RewriteCoverage, feats[i].Convergent,
				measured[i], model.Predict(feats[i]))
		}
	})
	spin(b)
}
