// Package core implements EasyCrash itself — the paper's primary
// contribution (§5): a framework that decides which data objects to persist
// and at which code regions, so that an HPC application restarted from the
// data remaining in NVM after a crash recomputes successfully, under a
// runtime-overhead budget t_s and a system-efficiency-driven recomputability
// threshold τ.
//
// The four-step workflow:
//
//	Step 1 — run a crash-test campaign without persistence, collecting each
//	         candidate object's data-inconsistency rate and the
//	         recomputation outcome of every test.
//	Step 2 — select critical data objects by Spearman rank correlation:
//	         an object is critical if its inconsistency rate correlates
//	         negatively with recomputation success with p < 0.01.
//	Step 3 — select critical code regions: measure per-region
//	         recomputability without persistence (c_k) and with critical
//	         objects persisted at every region (c_k^max), estimate each
//	         region's flush cost l_k, interpolate persistence frequency via
//	         Equation 5, and solve the 0-1 knapsack maximising predicted
//	         recomputability under l ≤ t_s.
//	Step 4 — emit the production persistence policy and validate it with
//	         a final campaign.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"
)

// pThreshold is the Step-2 Spearman p-value cutoff (the paper's 0.01).
const pThreshold = 0.01

// flushAccessCost is the estimated cost of flushing one cache block, in
// demand-access time units. Following §5.2 the estimate assumes every block
// is resident and dirty (2) and doubles that to account for
// invalidation-induced reloads.
const flushAccessCost = 4

// frequencies are the persistence periods x explored for loop-based regions
// (Equation 5).
var frequencies = []int64{1, 2, 4, 8}

// Config parameterises the framework.
type Config struct {
	// Ts is the runtime-overhead budget as a fraction of execution time
	// (the paper evaluates t_s = 3%). Zero means 0.03.
	Ts float64
	// Tau is the recomputability threshold required for EasyCrash to beat
	// plain checkpoint/restart (§5.2, derived from the system model).
	// Zero means no requirement.
	Tau float64
	// Tester configures the simulated machine.
	Tester nvct.Config
	// Tests is the campaign size per step; zero means 100.
	Tests int
	// Seed seeds the campaigns.
	Seed int64
	// Faults configures the NVM media-fault layer for every campaign the
	// workflow runs (zero = the paper's intact-NVM assumption). Step 4's
	// production validation additionally enables the scrub-and-fallback
	// restart path, so a detected-uncorrectable object is re-initialised
	// instead of aborting the restart.
	Faults faultmodel.Config
	// RecrashDepth, when > 0, hardens Step 4: the validation campaign runs
	// the nested-failure model, where up to RecrashDepth additional crashes
	// strike the recovery runs themselves. The production policy is then
	// judged on what survives repeated failures (R(k)), not just one.
	// Steps 1–3 keep the paper's single-crash model — the selection
	// statistics are defined over single-crash inconsistency.
	RecrashDepth int
	// RetryBudget caps recovery attempts per validation trial when
	// RecrashDepth > 0; 0 means RecrashDepth+1.
	RetryBudget int
	// TrialDeadline bounds each validation trial's whole crash chain;
	// 0 means no deadline.
	TrialDeadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.Ts == 0 {
		c.Ts = 0.03
	}
	if c.Tests == 0 {
		c.Tests = 100
	}
	return c
}

// ObjectAnalysis records the Step-2 evidence for one candidate object.
type ObjectAnalysis struct {
	Name     string
	Rs       float64
	P        float64
	Selected bool
	// Reason explains a non-selection ("positive correlation", "p above
	// threshold", "constant inconsistency", ...).
	Reason string
}

// RegionAnalysis records the Step-3 evidence for one code region.
type RegionAnalysis struct {
	Region int
	A      float64 // a_k: share of execution time (access-weighted)
	C      float64 // c_k: recomputability without persistence
	CMax   float64 // c_k^max: recomputability with critical objects persisted
	Loss   float64 // l_k: estimated overhead of persisting here every iteration
	Chosen bool
}

// Result is the framework's full decision record.
type Result struct {
	Kernel     string
	Golden     nvct.Golden
	Candidates []string
	Objects    []ObjectAnalysis
	Critical   []string
	Regions    []RegionAnalysis
	// Frequency is the chosen persistence period x.
	Frequency int64
	// PredictedY is Equation 2's predicted recomputability of the chosen
	// configuration.
	PredictedY float64
	// BaselineY is the measured recomputability without persistence.
	BaselineY float64
	// MeetsTau reports whether PredictedY clears the τ requirement; when
	// false the framework recommends staying with plain C/R (the paper's
	// EP case).
	MeetsTau bool
	// Policy is the production persistence policy (nil when no region was
	// chosen).
	Policy *nvct.Policy
	// Baseline and CriticalEverywhere are the Step-1 and Step-3 campaign
	// reports; Final is the Step-4 validation campaign (nil when no policy
	// was produced).
	Baseline           *nvct.Report
	CriticalEverywhere *nvct.Report
	Final              *nvct.Report
}

// AchievedY returns the validated recomputability when a final campaign
// ran, else the prediction.
func (r *Result) AchievedY() float64 {
	if r.Final != nil {
		return r.Final.Recomputability()
	}
	return r.PredictedY
}

// FinalViolations returns the Step-4 validation campaign's crash-consistency
// evidence: the number of trials the oracle classified SViol and the total
// violations itemised across them. Both are zero when no policy was validated
// or the workload carries no consistency oracle. A nonzero count means the
// shipped policy leaves the workload crash-inconsistent — recomputability
// alone cannot surface that, since a violating trial still recomputes.
func (r *Result) FinalViolations() (tests, listed int) {
	if r.Final == nil {
		return 0, 0
	}
	return r.Final.ConsistencyViolations()
}

// Run executes the full EasyCrash workflow for one kernel.
func Run(factory apps.Factory, cfg Config) (*Result, error) {
	return RunContext(context.Background(), factory, cfg)
}

// RunContext is Run honouring ctx: a cancellation mid-workflow stops the
// running campaign promptly and returns the partially filled Result (with
// whatever step reports completed, including the cancelled campaign's
// partial report) alongside ctx's error.
func RunContext(ctx context.Context, factory apps.Factory, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	tester, err := nvct.NewTester(factory, cfg.Tester)
	if err != nil {
		return nil, err
	}
	return RunWithTesterContext(ctx, tester, cfg)
}

// RunWithTester executes the workflow against an existing tester (whose
// golden run is reused across experiments).
func RunWithTester(tester *nvct.Tester, cfg Config) (*Result, error) {
	return RunWithTesterContext(context.Background(), tester, cfg)
}

// RunWithTesterContext is RunWithTester honouring ctx (see RunContext).
func RunWithTesterContext(ctx context.Context, tester *nvct.Tester, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Kernel: tester.Name(), Golden: tester.Golden(), Frequency: 1}
	for _, o := range res.Golden.Candidates {
		res.Candidates = append(res.Candidates, o.Name)
	}

	// Step 1: baseline campaign.
	var err error
	res.Baseline, err = tester.RunCampaignContext(ctx, nil, nvct.CampaignOpts{Tests: cfg.Tests, Seed: cfg.Seed, Faults: cfg.Faults})
	if err != nil {
		return res, err
	}
	res.BaselineY = res.Baseline.Recomputability()

	// Step 2: select critical data objects.
	res.Objects, res.Critical = SelectObjects(res.Baseline, pThreshold)
	if len(res.Critical) == 0 {
		// The correlation cannot discriminate (e.g. the baseline never
		// recomputes, so the outcome vector is constant). Fall back to all
		// candidates — the conservative choice the verification in §5.1
		// shows costs at most a few percent of recomputability.
		res.Critical = append([]string(nil), res.Candidates...)
	}

	// Step 3: region campaigns and selection.
	best := nvct.EveryRegionPolicy(res.Critical, res.Golden.Regions)
	res.CriticalEverywhere, err = tester.RunCampaignContext(ctx, best, nvct.CampaignOpts{Tests: cfg.Tests, Seed: cfg.Seed + 1, Faults: cfg.Faults})
	if err != nil {
		return res, err
	}
	regions, chosen, freq, predicted := SelectRegions(tester.Golden(), res.Baseline, res.CriticalEverywhere, res.Critical, cfg)
	res.Regions = regions
	res.Frequency = freq
	res.PredictedY = predicted
	res.MeetsTau = predicted >= cfg.Tau

	if len(chosen) > 0 {
		res.Policy = &nvct.Policy{
			Objects:      res.Critical,
			AtRegionEnds: chosen,
			Frequency:    freq,
			Op:           best.Op,
		}
	}

	// Step 4: validate the production policy. As the paper notes, the
	// single persist-everywhere campaign misattributes recomputability
	// across regions, so the knapsack's choice can validate below its
	// prediction; we therefore also validate the equally-priced
	// iteration-end policy and ship whichever measures higher (a small
	// refinement beyond the paper's §5.3, documented in DESIGN.md).
	// The production runtime restarts with the scrub-and-fallback path:
	// a poisoned (detected-uncorrectable) object is re-initialised rather
	// than aborting the restart, so media errors degrade to recomputation
	// work instead of hard failures. With cfg.RecrashDepth > 0 the
	// validation additionally runs the nested-failure model, so the shipped
	// policy is the one that stays recoverable when the recovery runs (the
	// scrub fallback included) are themselves interrupted.
	if res.Policy != nil {
		prodOpts := nvct.CampaignOpts{
			Tests: cfg.Tests, Seed: cfg.Seed + 2, Faults: cfg.Faults, ScrubOnRestart: true,
			RecrashDepth: cfg.RecrashDepth, RetryBudget: cfg.RetryBudget, TrialDeadline: cfg.TrialDeadline,
		}
		res.Final, err = tester.RunCampaignContext(ctx, res.Policy, prodOpts)
		if err != nil {
			return res, err
		}
		if alt := iterationEndPolicy(res, cfg); alt != nil {
			altRep, altErr := tester.RunCampaignContext(ctx, alt, prodOpts)
			if altErr != nil {
				return res, altErr
			}
			if altRep.Recomputability() > res.Final.Recomputability() {
				res.Policy = alt
				res.Final = altRep
				res.Frequency = alt.Frequency
				for i := range res.Regions {
					res.Regions[i].Chosen = false
				}
			}
		}
	}
	return res, nil
}

// iterationEndPolicy builds the alternative policy that flushes the
// critical objects once per iteration (at the main-loop iteration end), at
// the lowest frequency whose estimated cost fits the t_s budget. It costs
// the same as a single chosen region, so it never violates the budget the
// knapsack already accepted.
func iterationEndPolicy(res *Result, cfg Config) *nvct.Policy {
	if len(res.Regions) == 0 {
		return nil
	}
	loss := res.Regions[0].Loss
	freq := int64(0)
	for _, x := range frequencies {
		if loss/float64(x) <= cfg.Ts {
			freq = x
			break
		}
	}
	if freq == 0 {
		return nil // even the sparsest frequency busts the budget
	}
	return &nvct.Policy{
		Objects:        res.Critical,
		AtIterationEnd: true,
		Frequency:      freq,
		Op:             cachesim.CLFLUSHOPT,
	}
}

// SelectObjects performs Step 2: Spearman rank correlation between each
// candidate's inconsistency rate and recomputation success, selecting
// objects with negative correlation significant at pThreshold.
func SelectObjects(baseline *nvct.Report, pThreshold float64) ([]ObjectAnalysis, []string) {
	vectors := baseline.InconsistencyVectors()
	names := make([]string, 0, len(vectors))
	//eclint:allow campaigndet — key collection, sorted below
	for name := range vectors {
		names = append(names, name)
	}
	sort.Strings(names)

	var analyses []ObjectAnalysis
	var critical []string
	for _, name := range names {
		v := vectors[name]
		a := ObjectAnalysis{Name: name}
		c, err := Spearman(v[0], v[1])
		switch {
		case err == errConstantInput:
			a.Reason = "constant input (no variation to correlate)"
		case err != nil:
			a.Reason = fmt.Sprintf("correlation failed: %v", err)
		default:
			a.Rs, a.P = c.Rs, c.P
			switch {
			case c.Rs >= 0:
				a.Reason = "non-negative correlation"
			case c.P >= pThreshold:
				a.Reason = "p-value above threshold"
			default:
				a.Selected = true
				critical = append(critical, name)
			}
		}
		analyses = append(analyses, a)
	}
	return analyses, critical
}

// SelectRegions performs Step 3. It derives a_k and c_k from the baseline
// campaign, c_k^max from the persist-everywhere campaign, estimates l_k from
// the flush-cost model, explores the persistence frequencies, and solves the
// knapsack. It returns the per-region evidence, the chosen regions, the
// chosen frequency, and the predicted recomputability Y' (Equation 2).
func SelectRegions(golden nvct.Golden, baseline, everywhere *nvct.Report, critical []string, cfg Config) ([]RegionAnalysis, []int, int64, float64) {
	cfg = cfg.withDefaults()
	cBase, _ := baseline.RegionRecomputability()
	cMax, _ := everywhere.RegionRecomputability()

	// a_k from the golden run's access attribution.
	var totalAcc uint64
	//eclint:allow campaigndet — commutative integer sum, order-insensitive
	for _, n := range golden.RegionAccesses {
		totalAcc += n
	}
	if totalAcc == 0 {
		totalAcc = 1
	}

	// l_k: flushing every critical object's blocks once per iteration at
	// one region, assuming all blocks resident and dirty, doubled for the
	// invalidation reload (§5.2's deliberately conservative estimate).
	var criticalBytes uint64
	for _, o := range golden.Candidates {
		for _, name := range critical {
			if o.Name == name {
				criticalBytes += o.Size
			}
		}
	}
	blocks := float64((criticalBytes + 63) / 64)
	lossPerRegion := float64(golden.Iters) * blocks * flushAccessCost / float64(golden.MainAccesses)

	regions := make([]RegionAnalysis, golden.Regions)
	for k := 0; k < golden.Regions; k++ {
		regions[k] = RegionAnalysis{
			Region: k,
			A:      float64(golden.RegionAccesses[k]) / float64(totalAcc),
			C:      cBase[k],
			CMax:   cMax[k],
			Loss:   lossPerRegion,
		}
	}

	// Baseline Y (Equation 1).
	baseY := 0.0
	for _, r := range regions {
		baseY += r.A * r.C
	}

	// Explore frequencies; Equation 5 interpolates c_k^x, and both the
	// gain and the loss scale with the persistence period.
	bestY, bestFreq := baseY, int64(1)
	var bestChosen []int
	for _, x := range frequencies {
		items := make([]knapsackItem, len(regions))
		for k, r := range regions {
			gain := r.CMax - r.C
			if gain < 0 {
				gain = 0
			}
			items[k] = knapsackItem{
				Weight: r.Loss / float64(x),
				Value:  r.A * gain / float64(x), // Equation 5 applied to Equation 2
			}
		}
		chosen, gain := solveKnapsack(items, cfg.Ts)
		if y := baseY + gain; y > bestY || (bestChosen == nil && len(chosen) > 0 && y == bestY) {
			bestY, bestFreq, bestChosen = y, x, chosen
		}
	}
	for _, k := range bestChosen {
		regions[k].Chosen = true
	}
	return regions, bestChosen, bestFreq, bestY
}
