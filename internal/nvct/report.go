// Campaign records: the outcome classes, one trial's record, and the report
// a campaign aggregates them into, with the paper's metrics over it.
package nvct

import (
	"fmt"

	"easycrash/internal/faultmodel"
)

// Outcome classifies one crash-and-restart test (Figure 3, extended).
type Outcome int

const (
	// S1 is successful recomputation without extra iterations.
	S1 Outcome = iota
	// S2 is successful recomputation that needed extra iterations.
	S2
	// S3 is an interruption: the restarted run could not complete.
	S3
	// S4 is a failed acceptance verification.
	S4
	// SDue is a detected-uncorrectable media error: restart found the
	// bookmark or a persisted object poisoned by the ECC model and (absent
	// the scrub-and-fallback path) could not proceed. Beyond the paper,
	// which assumes intact NVM.
	SDue
	// SErr is a campaign-engine error: the test panicked outside the
	// simulated crash protocol or exceeded its per-test deadline. The
	// campaign records it and continues.
	SErr
	// SViol is a crash-consistency violation caught by the campaign's
	// WITCHER-style oracle: recovery completed, but the recovered state lies
	// about acknowledged operations — an acked write lost, a key regressed
	// to a stale value, or a never-acked value visible. Only kernels
	// implementing apps.ConsistencyKernel (the persistent KV workload) can
	// produce it; recomputation kernels have no acknowledgement semantics to
	// violate.
	SViol

	// NumOutcomes is the number of outcome classes (the size of
	// Report.Counts).
	NumOutcomes = int(SViol) + 1
)

// String returns the paper's label for the outcome (or the extension's).
func (o Outcome) String() string {
	switch o {
	case S1:
		return "S1"
	case S2:
		return "S2"
	case S3:
		return "S3"
	case S4:
		return "S4"
	case SDue:
		return "DUE"
	case SErr:
		return "ERR"
	case SViol:
		return "VIOL"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// TestResult is one crash-and-restart test.
type TestResult struct {
	CrashAccess   uint64
	CrashRegion   int
	CrashIter     int64
	Outcome       Outcome
	ExtraIters    int64
	Inconsistency map[string]float64 // per-candidate data inconsistent rate at the crash
	// FinalResult is the restarted run's outcome scalars (nil when the run
	// was interrupted); comparing it with the golden Result shows how far
	// the recomputation deviated.
	FinalResult []float64
	// Media summarises the media faults injected at this crash (zero when
	// the campaign runs with perfect media).
	Media faultmodel.Injection
	// ScrubbedObjects counts objects (including the iterator bookmark) the
	// scrub-and-fallback restart path re-initialised because their blocks
	// were poisoned. In a nested-failure trial it totals scrubs across all
	// recovery attempts.
	ScrubbedObjects int
	// Err holds the engine error behind an SErr outcome, the named failure
	// mode behind a budget-exhausted S3, or the workload's own detected
	// recovery failure behind an oracle-audited S3.
	Err string
	// Violations lists the crash-consistency violations behind an SViol
	// outcome, as reported by the kernel's post-recovery audit
	// (apps.ConsistencyKernel). Empty for every other outcome.
	Violations []string

	// The remaining fields are populated only by nested-failure campaigns
	// (CampaignOpts.RecrashDepth > 0); classic campaigns leave them zero so
	// their reports stay byte-identical to the single-crash engine.

	// Depth is the number of crashes in this trial's chain (>= 1): the
	// initial crash plus every crash that struck a recovery attempt.
	Depth int
	// Retries is the number of recovery attempts the trial consumed.
	Retries int
	// Chain records every crash of the chain in order; Chain[0] repeats the
	// initial crash (CrashAccess/CrashRegion/CrashIter/Media above).
	// Accesses of re-crashes count from the start of their recovery run.
	Chain []ChainCrash
	// FinalInconsistency is the per-candidate data-inconsistency rate at
	// the *final* crash of the chain — the state the successful (or failed)
	// last recovery actually started from.
	FinalInconsistency map[string]float64
}

// ChainCrash is one crash of a nested-failure trial's chain.
type ChainCrash struct {
	// Access is the demand-access index at which the crash fired, counted
	// from the start of the run it interrupted (the initial run for the
	// first entry, the recovery run for later ones).
	Access uint64
	// Region and Iter locate the crash in the kernel's main loop.
	Region int
	Iter   int64
	// Media summarises the media faults injected at this power loss; faults
	// accumulate on the image across the chain through one injector.
	Media faultmodel.Injection
}

// Success reports whether the application recomputed (S1 or S2).
func (r TestResult) Success() bool { return r.Outcome == S1 || r.Outcome == S2 }

// Report aggregates a campaign.
type Report struct {
	Kernel  string
	Policy  *Policy
	Tests   []TestResult
	Counts  [NumOutcomes]int // indexed by Outcome
	Regions int
	// Requested is the campaign size asked for; len(Tests) falls short of
	// it only when the campaign was cancelled mid-run (partial results).
	Requested int
}

// Recomputability is the paper's headline metric: the fraction of crashes
// that recompute successfully without extra iterations (S1).
func (r *Report) Recomputability() float64 {
	if len(r.Tests) == 0 {
		return 0
	}
	return float64(r.Counts[S1]) / float64(len(r.Tests))
}

// SuccessRate is the fraction of S1+S2 responses.
func (r *Report) SuccessRate() float64 {
	if len(r.Tests) == 0 {
		return 0
	}
	return float64(r.Counts[S1]+r.Counts[S2]) / float64(len(r.Tests))
}

// AvgExtraIters is the mean number of extra iterations over successful
// recomputations (Table 1's restart overhead).
func (r *Report) AvgExtraIters() float64 {
	var n, sum int64
	for _, t := range r.Tests {
		if t.Success() {
			n++
			sum += t.ExtraIters
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// RegionRecomputability returns per-region S1 fractions (the c_k of §5.2)
// and per-region test counts.
func (r *Report) RegionRecomputability() (rec map[int]float64, tests map[int]int) {
	s1 := make(map[int]int)
	tests = make(map[int]int)
	for _, t := range r.Tests {
		tests[t.CrashRegion]++
		if t.Outcome == S1 {
			s1[t.CrashRegion]++
		}
	}
	rec = make(map[int]float64, len(tests))
	//eclint:allow campaigndet — independent per-key map fill, order-insensitive
	for k, n := range tests {
		rec[k] = float64(s1[k]) / float64(n)
	}
	return rec, tests
}

// MediaErrorCounts separates the media-fault outcomes of a campaign:
// due counts detected-uncorrectable results (SDue), silentCaught counts
// tests where silently corrupted blocks survived into restart but the
// acceptance verification failed (S4), and silentMissed counts tests where
// silent corruption passed verification (S1/S2) — the most dangerous class.
func (r *Report) MediaErrorCounts() (due, silentCaught, silentMissed int) {
	due = r.Counts[SDue]
	for _, t := range r.Tests {
		if t.Media.SilentBlocks == 0 {
			continue
		}
		switch t.Outcome {
		case S4:
			silentCaught++
		case S1, S2:
			silentMissed++
		}
	}
	return due, silentCaught, silentMissed
}

// ConsistencyViolations returns the number of SViol tests and the total
// count of individual violations their audits listed.
func (r *Report) ConsistencyViolations() (tests, listed int) {
	tests = r.Counts[SViol]
	for _, t := range r.Tests {
		listed += len(t.Violations)
	}
	return tests, listed
}

// InconsistencyVectors extracts, for each candidate object, the paired
// vectors (inconsistency rate, success as 0/1) across all tests — the input
// to the Spearman analysis of §5.1.
func (r *Report) InconsistencyVectors() map[string][2][]float64 {
	out := make(map[string][2][]float64)
	for _, t := range r.Tests {
		//eclint:allow campaigndet — one append per name per test; each vector's order follows Tests order
		for name, rate := range t.Inconsistency {
			v := out[name]
			v[0] = append(v[0], rate)
			s := 0.0
			if t.Outcome == S1 {
				s = 1
			}
			v[1] = append(v[1], s)
			out[name] = v
		}
	}
	return out
}

// MaxDepth returns the deepest crash chain observed in the campaign. It is 0
// for classic single-crash campaigns, whose tests carry no chain records.
func (r *Report) MaxDepth() int {
	depth := 0
	for _, t := range r.Tests {
		if t.Depth > depth {
			depth = t.Depth
		}
	}
	return depth
}

// RecrashRecoverability returns recoverability under re-crash, R(k) for
// k = 1..MaxDepth: among the trials whose chain reached at least k crashes,
// the fraction that ultimately recomputed successfully (S1 or S2). R(1) is
// the campaign-wide success rate; deeper chains can only lose more volatile
// state, so R(k) decays with k. nil for classic campaigns.
func (r *Report) RecrashRecoverability() []float64 {
	maxd := r.MaxDepth()
	if maxd == 0 {
		return nil
	}
	atLeast := make([]int, maxd+1)
	succ := make([]int, maxd+1)
	for _, t := range r.Tests {
		for k := 1; k <= t.Depth; k++ {
			atLeast[k]++
			if t.Success() {
				succ[k]++
			}
		}
	}
	out := make([]float64, maxd)
	for k := 1; k <= maxd; k++ {
		out[k-1] = float64(succ[k]) / float64(atLeast[k])
	}
	return out
}

// DepthCounts returns how many trials reached each chain depth (index k =
// exactly k crashes; index 0 counts trials whose drawn point never fired).
func (r *Report) DepthCounts() []int {
	out := make([]int, r.MaxDepth()+1)
	for _, t := range r.Tests {
		out[t.Depth]++
	}
	return out
}

// RetriesConsumed totals the recovery attempts the campaign's trials spent.
func (r *Report) RetriesConsumed() int {
	total := 0
	for _, t := range r.Tests {
		total += t.Retries
	}
	return total
}

// MeanFinalInconsistency averages, per candidate object, the data-
// inconsistency rate at the final crash of each chain — the state the last
// recovery attempt actually restarted from. nil for classic campaigns.
func (r *Report) MeanFinalInconsistency() map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, t := range r.Tests {
		//eclint:allow campaigndet — one accumulation per name per test; each name's sum follows Tests order
		for name, rate := range t.FinalInconsistency {
			sums[name] += rate
			counts[name]++
		}
	}
	if len(sums) == 0 {
		return nil
	}
	out := make(map[string]float64, len(sums))
	//eclint:allow campaigndet — independent per-key division, order-insensitive
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return out
}
