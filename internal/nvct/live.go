// The per-trial live path: every trial re-executes its own pre-crash prefix
// from access 0 on its own machine, crashes by unwinding the kernel's stack,
// and walks its recovery chain alone — O(tests × trace-length) simulated work,
// the historical engine. It survives as the reference the snapshot tree is
// differentially tested against, as ReproTrial, and as the fallback that
// isolates whatever the tree could not finish: trials behind a reference run
// that failed outside the crash protocol, and trials whose shared recovery
// leg blew the per-trial deadline, which are re-run here under their own
// deadline and recorded as SErr when they blow it again.
//
// The paper's campaign model assumes the recovery run executes unmolested —
// one crash per trial, then an undisturbed restart. Real HPC mean-times-
// between-failures make failures during recovery routine, and recomputation-
// based consistency is only trustworthy if it tolerates repeated
// interruption. With CampaignOpts.RecrashDepth set a trial is a crash *chain*:
// the initial crash, then up to RecrashDepth further crashes striking the
// recovery attempts themselves, each at a seed-derived demand access of the
// recomputation (drawn from a per-trial generator seeded serially from the
// campaign seed, so nested campaigns replay byte-identically regardless of
// parallelism; a point drawn beyond the recovery run's accesses simply never
// fires, ending the chain naturally). Every recovery attempt is classified —
// success / wrong-answer / DUE / crashed-again / budget-exhausted — under a
// per-trial retry budget and wall-clock deadline, and media faults accumulate
// across the successive power losses through the one injector the trial owns.
package nvct

import (
	"context"
	"errors"
	"fmt"

	"easycrash/internal/apps"
	"easycrash/internal/faultmodel"
	"easycrash/internal/sim"
)

// runLive runs every not-yet-done trial of the plan on the live path.
func (r *campaignRun) runLive() {
	var todo []int
	for pos, done := range r.done {
		if !done {
			todo = append(todo, pos)
		}
	}
	r.fanOut(len(todo), func(i int) { r.liveTrial(todo[i]) })
}

// liveTrial runs one crash test in isolation — a whole crash chain in nested
// mode — under its own watchdog, and records it.
func (r *campaignRun) liveTrial(pos int) {
	defer r.contain(pos)
	t := r.t
	w := r.watchdog()
	s := r.firstLife(pos, w)
	if s == nil {
		// The drawn point exceeded the initial run's accesses (cannot happen
		// when the policy does not change demand traffic): no crash, no
		// chain — the completed run is an S1, and Depth stays 0.
		r.record(pos, TestResult{CrashAccess: r.plan.trials[pos].point, CrashRegion: sim.NoRegion, Outcome: S1})
		return
	}
	if r.evidence != nil {
		*r.evidence = append([]byte(nil), s.dump...)
	}
	for s.begin(r) {
		a := s.attempt()
		st := r.restartOnce(w, a)
		t.putDump(a.dump)
		if s.apply(st, t.golden.Iters) {
			break
		}
	}
	r.record(pos, s.res)
}

// firstLife runs the initial life of a crash test until the armed crash
// fires, then takes the postmortem; nil when the run completed without
// reaching the crash point.
func (r *campaignRun) firstLife(pos int, w watchdog) *trial {
	t, tr := r.t, r.plan.trials[pos]
	k := t.factory()
	m := t.getMachine()
	defer t.putMachine(m)
	k.Setup(m)
	k.Init(m)
	m.SetFlushCrashEligible(r.opts.CrashDuringPersistence)
	var inj *faultmodel.Injector
	var crashFn func() faultmodel.Injection
	if r.opts.Faults.Enabled() {
		inj = faultmodel.New(r.opts.Faults, tr.faultSeed)
		m.AttachFaults(inj)
		crashFn = m.CrashWithFaults
	}
	m.SetPersister(newPolicyPersister(m, k, r.policy))
	m.SetCrashAfter(tr.point)
	w.arm(m)

	crash := t.runToCrash(k, m)
	if crash == nil {
		return nil
	}
	pl := t.postmortem(m, r.opts.Verified, crashFn)
	pl.crash, pl.journal = *crash, journalOf(k)
	return r.newTrial(pos, pl, inj)
}

// runToCrash runs the kernel main loop, returning the crash that fired, or
// nil if the run completed.
func (t *Tester) runToCrash(k apps.Kernel, m *sim.Machine) (crash *sim.Crash) {
	defer func() {
		if rec := recover(); rec != nil {
			c, ok := rec.(*sim.Crash)
			if !ok {
				panic(rec)
			}
			crash = c
		}
	}()
	_, _ = k.Run(m, 0, iterBudget(t.golden.Iters))
	return nil
}

// ReproTrial re-derives the campaign plan for (policy, opts) and re-runs the
// single trial at the given index on the live path, returning its result —
// the postmortem a campaign line like "test 17: VIOL" calls for. The result
// is byte-identical to Tests[index] of the full campaign with the same
// options: trials are independent and both paths produce identical records.
// The error is ctx.Err() when the trial was cancelled mid-run.
func (t *Tester) ReproTrial(ctx context.Context, policy *Policy, opts CampaignOpts, index int) (TestResult, error) {
	res, _, err := t.ReproTrialDump(ctx, policy, opts, index)
	return res, err
}

// ReproTrialDump is ReproTrial plus evidence: alongside the trial's record it
// returns a copy of the post-crash durable dump the first recovery attempt
// read — the NVM image as the failing media left it, which an artifact bundle
// archives next to the repro command. The dump is nil when the trial's drawn
// crash point exceeded the run's accesses (no crash ever fired).
func (t *Tester) ReproTrialDump(ctx context.Context, policy *Policy, opts CampaignOpts, index int) (TestResult, []byte, error) {
	plan, err := t.planCampaign(policy, &opts)
	if err != nil {
		return TestResult{}, nil, err
	}
	if index < 0 || index >= opts.Tests {
		return TestResult{}, nil, fmt.Errorf("nvct: trial index %d outside campaign of %d tests", index, opts.Tests)
	}
	plan.trials = plan.trials[index : index+1]
	r := t.newRun(ctx, policy, opts, plan)
	var dump []byte
	r.evidence = &dump
	r.liveTrial(0)
	if !r.done[0] {
		if err := ctx.Err(); err != nil {
			return TestResult{}, nil, err
		}
		return TestResult{}, nil, errors.New("nvct: trial discarded without cancellation")
	}
	return r.results[0], dump, nil
}
