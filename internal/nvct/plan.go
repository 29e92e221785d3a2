// Campaign planning and execution: one seed-derived plan, one run that owns
// the results, one engine sequence.
//
// A campaign's per-trial state (crash point, fault seed, trial seed) is drawn
// serially from the campaign seed before any trial runs. The plan is then
// executed by the snapshot-tree engine (tree.go), which shares every piece of
// simulated execution trials have in common, and whatever the tree leaves
// un-done — trials behind a failed reference run, trials whose shared
// recovery leg blew the per-trial deadline — is finished by the per-trial
// live path (live.go). Both classify through the same restart code
// (restart.go), so which of them ran a trial is invisible in its record.
package nvct

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"easycrash/internal/sim"
)

// plannedTrial is the seed-derived state of one trial.
type plannedTrial struct {
	index     int    // position in the full campaign
	point     uint64 // the initial crash point
	faultSeed int64  // seeds the trial's fault injector; 0 with perfect media
	trialSeed int64  // seeds the deeper crash points of a nested chain; 0 at depth 0
}

// campaignPlan is the serially drawn, seed-derived state of one campaign: the
// crash-point space and the trials. Campaigns, shards and ReproTrial derive it
// through the same code, so a shard or a repro runs exactly the trials the
// campaign ran; a shard's plan is a sub-slice of the campaign's.
type campaignPlan struct {
	space  uint64
	trials []plannedTrial
}

// planCampaign validates opts (applying the default campaign size in place)
// and draws the campaign's plan from its seed.
func (t *Tester) planCampaign(policy *Policy, opts *CampaignOpts) (campaignPlan, error) {
	if err := opts.Faults.Validate(); err != nil {
		return campaignPlan{}, err
	}
	if opts.RecrashDepth < 0 {
		return campaignPlan{}, fmt.Errorf("nvct: negative re-crash depth %d", opts.RecrashDepth)
	}
	if opts.RetryBudget < 0 {
		return campaignPlan{}, fmt.Errorf("nvct: negative retry budget %d", opts.RetryBudget)
	}
	if opts.TrialDeadline < 0 {
		return campaignPlan{}, fmt.Errorf("nvct: negative trial deadline %v", opts.TrialDeadline)
	}
	if opts.Tests <= 0 {
		opts.Tests = 100
	}

	// Crash points are drawn serially so the campaign is reproducible
	// independent of scheduling. With crash-eligible persistence the tick
	// space includes the policy's flush work, measured by one profile run;
	// a failing profile run must not silently skew the crash-point
	// distribution back to demand-only ticks, so it fails the campaign.
	space := t.golden.MainAccesses
	if opts.CrashDuringPersistence {
		g, err := t.policyRun("tick-profile", true, policy)
		if err != nil {
			return campaignPlan{}, fmt.Errorf("nvct: profiling crash-eligible tick space: %w", err)
		}
		if g.MainAccesses > 0 {
			space = g.MainAccesses
		}
	}
	if space == 0 {
		// rand.Int63n(0) would panic; surface a diagnosable campaign error.
		return campaignPlan{}, fmt.Errorf("%w (kernel %s)", ErrEmptyCrashSpace, t.name)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	trials := make([]plannedTrial, opts.Tests)
	for i := range trials {
		trials[i].index = i
		trials[i].point = 1 + uint64(rng.Int63n(int64(space)))
	}
	// Per-test fault seeds are drawn serially after the crash points, so a
	// fault campaign is deterministic across Parallel settings and a
	// zero-fault campaign draws exactly the sequence it always did.
	if opts.Faults.Enabled() {
		for i := range trials {
			trials[i].faultSeed = rng.Int63()
		}
	}
	// Per-trial seeds drive the crash points of every deeper level of a
	// nested-failure chain. They are drawn serially after the fault seeds,
	// so nested campaigns are deterministic across Parallel settings and a
	// depth-0 campaign draws exactly the sequence it always did.
	if opts.RecrashDepth > 0 {
		for i := range trials {
			trials[i].trialSeed = rng.Int63()
		}
	}
	return campaignPlan{space: space, trials: trials}, nil
}

// campaignRun is one execution of a plan (a whole campaign, a shard's slice
// of one, or a single repro trial): the campaign-constant inputs and the sink
// the engines deliver records into.
type campaignRun struct {
	t      *Tester
	ctx    context.Context
	policy *Policy
	opts   CampaignOpts
	plan   campaignPlan
	// workers is the resolved opts.Parallel.
	workers int

	// results[i] and done[i] belong to plan.trials[i]; each is written by
	// exactly one goroutine. done[i] stays false for a trial discarded
	// half-finished by cancellation.
	results []TestResult
	done    []bool
	// onDone, when non-nil, is invoked with a trial's campaign index right
	// after its record lands. Calls may come from any worker goroutine; the
	// callback synchronises itself.
	onDone func(int)
	// evidence, when non-nil, receives a copy of the first crash's durable
	// dump of every trial the live path runs (ReproTrialDump's single trial).
	evidence *[]byte
}

func (t *Tester) newRun(ctx context.Context, policy *Policy, opts CampaignOpts, plan campaignPlan) *campaignRun {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &campaignRun{
		t: t, ctx: ctx, policy: policy, opts: opts, plan: plan,
		workers: min(workers, len(plan.trials)),
		results: make([]TestResult, len(plan.trials)),
		done:    make([]bool, len(plan.trials)),
	}
}

// run executes the plan: the snapshot tree first, then the live path for
// whatever the tree left un-done.
func (r *campaignRun) run() {
	r.runTree()
	r.runLive()
}

// record delivers the finished record of plan.trials[pos].
func (r *campaignRun) record(pos int, res TestResult) {
	r.results[pos] = res
	r.done[pos] = true
	if r.onDone != nil {
		r.onDone(r.plan.trials[pos].index)
	}
}

// contain is deferred around each stretch of engine work that belongs to one
// trial. A panic that escapes the simulated crash protocol — a panicking
// kernel factory, a blown per-trial deadline — becomes that trial's SErr
// record instead of killing the worker pool; a campaign cancellation leaves
// the half-finished trial un-done, out of the partial report.
func (r *campaignRun) contain(pos int) {
	rec := recover()
	if rec == nil {
		return
	}
	if a, ok := rec.(*sim.Abort); ok &&
		!errors.Is(a.Err, errTestTimeout) && !errors.Is(a.Err, ErrTrialDeadline) {
		return // campaign cancellation, not a per-test failure
	}
	r.record(pos, errResult(r.plan.trials[pos].point, rec))
}

// errResult is the SErr record of a trial the engine could not classify.
func errResult(point uint64, cause any) TestResult {
	return TestResult{
		CrashAccess: point,
		CrashRegion: sim.NoRegion,
		Outcome:     SErr,
		Err:         fmt.Sprint(cause),
	}
}

// fanOut calls fn(i) for every i in [0, n) on at most r.workers goroutines
// (inline when one suffices). It stops handing out work once the campaign is
// cancelled and returns after the calls in flight finish.
func (r *campaignRun) fanOut(n int, fn func(i int)) {
	workers := min(r.workers, n)
	if workers <= 1 {
		for i := 0; i < n && r.ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-r.ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
}

// watchdog bounds one stretch of simulated execution — a live trial's whole
// chain, or one shared recovery leg of the tree — by campaign cancellation
// and the per-test/per-trial deadline.
type watchdog struct {
	ctx      context.Context
	deadline time.Time // zero: no deadline
	err      error     // the named error delivered when the deadline passes
}

// watchdog starts the clock of the tighter of opts.TestTimeout and
// opts.TrialDeadline.
func (r *campaignRun) watchdog() watchdog {
	w := watchdog{ctx: r.ctx, err: errTestTimeout}
	if r.opts.TestTimeout > 0 {
		//eclint:allow campaigndet — operator watchdog for runaway tests, not part of replayed state
		w.deadline = time.Now().Add(r.opts.TestTimeout)
	}
	if r.opts.TrialDeadline > 0 {
		//eclint:allow campaigndet — wall-clock bound on a trial's crash chain, not part of replayed state
		if d := time.Now().Add(r.opts.TrialDeadline); w.deadline.IsZero() || d.Before(w.deadline) {
			w.deadline, w.err = d, ErrTrialDeadline
		}
	}
	return w
}

// expired reports whether the deadline has passed.
func (w watchdog) expired() bool {
	//eclint:allow campaigndet — deadline check for the same operator watchdog
	return !w.deadline.IsZero() && time.Now().After(w.deadline)
}

// arm wires the watchdog into a machine's interrupt check. It installs
// nothing when neither cancellation nor a deadline applies, so the default
// path stays hook-free.
func (w watchdog) arm(m *sim.Machine) {
	if w.ctx.Done() == nil && w.deadline.IsZero() {
		return
	}
	m.SetInterrupt(0, func() error {
		select {
		case <-w.ctx.Done():
			return w.ctx.Err()
		default:
		}
		if w.expired() {
			return w.err
		}
		return nil
	})
}

// RunCampaign runs a crash-test campaign under the given persistence policy
// (nil = baseline iterator-only). It is RunCampaignContext without
// cancellation; setup errors (an invalid fault configuration, a failed
// tick-profile run) panic, as they are programming errors at this call site.
func (t *Tester) RunCampaign(policy *Policy, opts CampaignOpts) *Report {
	rep, err := t.RunCampaignContext(context.Background(), policy, opts)
	if err != nil {
		panic(fmt.Errorf("nvct: campaign setup failed: %w", err))
	}
	return rep
}

// RunCampaignContext runs a crash-test campaign under the given persistence
// policy (nil = baseline iterator-only), honouring ctx: when ctx is
// cancelled mid-run, in-flight tests abort promptly, the partial report of
// completed tests is returned alongside ctx's error, and no goroutines are
// leaked. A non-cancellation error (invalid fault configuration, failed
// tick-profile run) returns a nil report.
func (t *Tester) RunCampaignContext(ctx context.Context, policy *Policy, opts CampaignOpts) (*Report, error) {
	return t.campaign(ctx, policy, opts, (*campaignRun).run)
}

// campaign plans a campaign, executes it with the given engine sequence and
// aggregates the report. Production always passes (*campaignRun).run; the
// differential tests pass the live path alone as their reference.
func (t *Tester) campaign(ctx context.Context, policy *Policy, opts CampaignOpts, engine func(*campaignRun)) (*Report, error) {
	plan, err := t.planCampaign(policy, &opts)
	if err != nil {
		return nil, err
	}
	r := t.newRun(ctx, policy, opts, plan)
	engine(r)

	rep := &Report{
		Kernel:    t.name,
		Policy:    policy,
		Regions:   t.golden.Regions,
		Requested: opts.Tests,
	}
	// Compact to the completed tests (a no-op unless cancelled early).
	rep.Tests = r.results[:0]
	for i, res := range r.results {
		if r.done[i] {
			rep.Tests = append(rep.Tests, res)
			rep.Counts[res.Outcome]++
		}
	}
	return rep, ctx.Err()
}
