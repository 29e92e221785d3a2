// Ablation rows of the figure runner for the design choices DESIGN.md calls
// out: how much of the recomputability and overhead results depend on the
// cache replacement policy, the flush instruction, the persistence
// frequency, and the cache size. The paper fixes these (LRU, CLFLUSHOPT,
// knapsack-chosen frequency, one Xeon geometry); the ablations quantify the
// sensitivity.
package easycrash_test

import (
	"fmt"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/nvct"
	"easycrash/internal/nvmperf"
)

func BenchmarkAblationReplacement(b *testing.B) { regenerate(b) }
func BenchmarkAblationFlushOp(b *testing.B)     { regenerate(b) }
func BenchmarkAblationFrequency(b *testing.B)   { regenerate(b) }
func BenchmarkAblationCacheSize(b *testing.B)   { regenerate(b) }

// ablationReplacement measures how the replacement policy shifts LU's
// intrinsic and EasyCrash recomputability. Replacement order decides when
// dirty blocks drain to NVM naturally, so the baseline is sensitive;
// explicit flushing should largely erase the difference.
func ablationReplacement(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Ablation: cache replacement policy (LU) ==="}}
	for _, rp := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random} {
		cfg := cachesim.TestConfig()
		cfg.Replace = rp
		t := newTester(tb, "lu", apps.ProfileTest, cfg)
		opts := nvct.CampaignOpts{Tests: campaignTests() / 2, Seed: 8}
		base := t.RunCampaign(nil, opts).Recomputability()
		ec := t.RunCampaign(nvct.IterationPolicy([]string{"u", "scal"}), opts).Recomputability()
		a.printf("  %-7s baseline %.2f  easycrash %.2f", rp, base, ec)
	}
	return a
}

// ablationFlushOp compares CLFLUSHOPT (invalidating) and CLWB (retaining)
// as the persistence instruction: recomputability should match, while CLWB
// avoids the reload misses and so costs less time.
func ablationFlushOp(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Ablation: flush instruction (MG, persist u) ==="}}
	t := tester(tb, "mg")
	for _, op := range []cachesim.FlushOp{cachesim.CLFLUSHOPT, cachesim.CLWB, cachesim.CLFLUSH} {
		policy := &nvct.Policy{Objects: []string{"u"}, AtIterationEnd: true, Frequency: 1, Op: op}
		rec := t.RunCampaign(policy, nvct.CampaignOpts{Tests: campaignTests() / 2, Seed: 9}).Recomputability()
		run, base := profileRun(tb, t, policy), profileRun(tb, t, nil)
		norm := nvmperf.OptaneDC().Normalized(run.CacheStats, base.CacheStats)
		a.printf("  %-10s R %.2f  normalized time (optane) %.3f", op, rec, norm)
	}
	return a
}

// ablationFrequency sweeps the persistence period x (Equation 5's control
// knob): recomputability should fall roughly as 1/x while the persistence
// work shrinks.
func ablationFrequency(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Ablation: persistence frequency x (MG, persist u) ==="}}
	t := tester(tb, "mg")
	for _, x := range []int64{1, 2, 4, 8} {
		policy := nvct.IterationPolicy([]string{"u"})
		policy.Frequency = x
		rec := t.RunCampaign(policy, nvct.CampaignOpts{Tests: campaignTests() / 2, Seed: 10}).Recomputability()
		run := profileRun(tb, t, policy)
		a.printf("  x=%d  R %.2f  persistence ops %d  dirty flushes %d",
			x, rec, run.PersistStats.Operations, run.PersistStats.DirtyFlushed)
	}
	return a
}

// ablationCacheSize scales the LLC: a larger cache keeps more dirty state
// volatile (less natural persistence), depressing intrinsic recomputability
// — the effect behind the paper's footprint-vs-LLC framing.
func ablationCacheSize(tb testing.TB) artifact {
	a := artifact{lines: []string{"\n=== Ablation: LLC size (MG) ==="}}
	for _, llcKiB := range []int{16, 32, 64} {
		cfg := cachesim.TestConfig()
		cfg.Name = fmt.Sprintf("llc-%dk", llcKiB)
		cfg.Levels[2].Size = llcKiB << 10
		cfg.Levels[1].Size = min(cfg.Levels[1].Size, cfg.Levels[2].Size)
		t := newTester(tb, "mg", apps.ProfileTest, cfg)
		opts := nvct.CampaignOpts{Tests: campaignTests() / 2, Seed: 11}
		base := t.RunCampaign(nil, opts).Recomputability()
		ec := t.RunCampaign(nvct.IterationPolicy([]string{"u"}), opts).Recomputability()
		a.printf("  LLC %2d KiB  baseline %.2f  easycrash %.2f", llcKiB, base, ec)
	}
	return a
}
