// Snapshot-tree campaign engine: simulate shared execution once, fork at
// every point where trials diverge.
//
// Every trial of a campaign executes the same deterministic pre-crash prefix;
// only the crash point and the per-trial fault draws differ. The live path
// re-executes that prefix per test — O(tests × trace-length) simulated work,
// the dominant wall-clock term of large campaigns. This engine instead sorts
// the campaign's crash points ascending, advances ONE reference machine
// through the kernel, and at each point captures a copy-on-write fork of the
// simulated state (durable image pages, cache hierarchy, crash clock) via the
// crash clock's fork hook — the kernel's stack never unwinds. Media-fault
// campaigns share the prefix too: the reference machine carries an inert
// faultmodel.Recorder instead of an injector, so the shared image stays
// clean, and each branch replays its trial's seed-drawn injections on the
// fork (faultmodel.Injector.ReplayCrash), byte-identical to the injections a
// live run of that trial would have drawn.
//
// The tree does not stop at the first crash. Recovery runs are themselves
// shared: after every branch postmortem, trials whose next restart would
// begin from identical durable state — same restored candidate bytes, same
// bookmark, same poison set, same audit journal — are grouped, and ONE
// machine executes their common recovery. Where group members' re-crash arms
// differ (nested-failure chains draw per-trial points), the shared recovery
// forks again at each distinct arm, so a depth-K chain is a path through the
// tree and recovery-dominated campaigns stop paying K× recovery cost. The
// grouping key is an exact byte comparison over the ranges the restart path
// reads (the bookmark word and every candidate object), not a lossy hash:
// trials grouped together are indistinguishable to the restart code by
// construction.
//
// Sharing is an engine optimisation, not a semantics change: forks fire
// precisely where crash panics would, branches replay exactly the draws the
// live path would make, and every attempt classifies through the same
// postmortem/restartSetup/terminalAttempt/apply code the live path runs
// (restart.go). All golden-digest replay pins hold across both.
//
// The tree finishes what it can share and leaves the rest un-done for the
// live path (campaignRun.run): trials not yet forked when the reference run
// fails outside the simulated-crash protocol, and the members of a shared
// recovery leg that outlives the per-test/per-trial deadline.
package nvct

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"easycrash/internal/apps"
	"easycrash/internal/faultmodel"
	"easycrash/internal/sim"
)

// forkPoint is one crash point captured on a shared run: a copy-on-write fork
// of the simulated state plus the volatile facts a live crash at the same
// access would have had at hand. It is immutable and resumed read-only, so
// trials drawn at the same point share it.
type forkPoint struct {
	snap  *sim.Snapshot
	crash sim.Crash
	// journal is the ack journal the next life must audit against, captured
	// at the fork instant — exactly what a live crash at the same access would
	// have captured, since the fork hook fires where the crash panic would.
	journal apps.AckJournal
	// inflight is the last durable write still in flight at the fork point,
	// nil when no write happened since the last persistence sync — the state
	// the live path's torn-write arming inspects at the crash panic site.
	inflight *faultmodel.InFlight
}

// takeFork captures the machine at the crash point the fork hook just fired
// for. journal is the life's ack-journal snapshot.
func takeFork(m *sim.Machine, c sim.Crash, journal apps.AckJournal) forkPoint {
	fp := forkPoint{snap: m.Fork(), crash: c, journal: journal}
	if w, ok := m.InFlightWrite(); ok {
		w := w // escapes only when a write was in flight
		fp.inflight = &w
	}
	return fp
}

// forkPostmortem takes the postmortem of one trial's power loss at a fork
// point. inj, when non-nil, is the trial's own injector and replays the
// injections its live run would have drawn: same seed, same image state, same
// in-flight write for torn-write arming — and, on a re-crash, an RNG that has
// already consumed the trial's earlier crashes, exactly like the one injector
// a live chain threads through its lives.
func (r *campaignRun) forkPostmortem(fp forkPoint, inj *faultmodel.Injector) powerLoss {
	t := r.t
	m := t.getMachine()
	m.ResumeFrom(fp.snap)
	var replay func() faultmodel.Injection
	if inj != nil {
		replay = func() faultmodel.Injection {
			return m.ReplayCrash(inj, t.extent, fp.inflight)
		}
	}
	pl := t.postmortem(m, r.opts.Verified, replay)
	t.putMachine(m)
	pl.crash, pl.journal = fp.crash, fp.journal
	return pl
}

// forkJob hands one trial's first crash point to a branch worker.
type forkJob struct {
	pos int // position in the run's plan
	forkPoint
}

// runTree runs the plan's trials off shared execution — one reference prefix
// run, then shared recovery rounds — delivering each finished trial's record.
// When the reference run fails outside the simulated-crash protocol (a
// panicking kernel, an engine bug), trials that already branched are still
// finished and recorded — their forks precede the failure — and the rest stay
// un-done. Cancellation is not a failure: the partial results stand.
func (r *campaignRun) runTree() {
	t, trials := r.t, r.plan.trials

	// Visit crash points in ascending order so one forward pass of the
	// reference machine meets every one of them. The sort is stable so
	// duplicate points keep their draw order (not that workers care — each
	// test is independent — but it keeps scheduling reproducible).
	order := make([]int, len(trials))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return trials[order[a]].point < trials[order[b]].point })

	// Level 0: branch postmortems run concurrently with the advancing
	// reference machine. branched[i] is written by exactly one worker. The
	// queue holds two forks per worker so the reference run keeps advancing
	// while every worker is busy, without pinning unbounded snapshots.
	branched := make([]*trial, len(trials))
	jobs := make(chan forkJob, 2*r.workers)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				branched[j.pos] = r.branch(j)
			}
		}()
	}

	// The reference run advances on this goroutine, forking at each distinct
	// crash point and dispatching one job per test drawn at it.
	pos := 0 // next undispatched entry of order
	completed := func() (ok bool) {
		// A panic out of the reference run is the campaign being cancelled
		// (*sim.Abort) or the run failing outside the simulated-crash
		// protocol (a panicking kernel, an engine bug). Either way the trials
		// not yet forked stay un-done; after a failure the live path re-runs
		// them, isolating the failure per test.
		defer func() { _ = recover() }()
		k := t.factory()
		m := t.getMachine()
		defer t.putMachine(m)
		k.Setup(m)
		k.Init(m)
		m.SetFlushCrashEligible(r.opts.CrashDuringPersistence)
		if r.opts.Faults.Enabled() {
			// Where the live path attaches each trial's injector, the
			// reference attaches one inert recorder: same write observation
			// window, no mutation of the shared image.
			m.AttachRecorder(&faultmodel.Recorder{})
		}
		m.SetPersister(newPolicyPersister(m, k, r.policy))
		// The reference run is shared, so only the campaign context bounds it.
		watchdog{ctx: r.ctx}.arm(m)
		m.SetForkHook(func(c sim.Crash) uint64 {
			fp := takeFork(m, c, journalOf(k))
			for p := trials[order[pos]].point; pos < len(order) && trials[order[pos]].point == p; pos++ {
				select {
				case jobs <- forkJob{pos: order[pos], forkPoint: fp}:
				case <-r.ctx.Done():
					return 0 // stop forking; queued jobs still drain
				}
			}
			if pos == len(order) {
				return 0
			}
			return trials[order[pos]].point
		})
		if len(order) > 0 {
			m.SetCrashAfter(trials[order[0]].point)
		}
		_, _ = k.Run(m, 0, iterBudget(t.golden.Iters))
		return true
	}()
	close(jobs)
	wg.Wait()

	if completed && r.ctx.Err() == nil {
		// The reference run completed with crash points still pending: those
		// points exceed the run's total accesses, so their crashes never
		// fire — the same completed-run S1 record the live path produces.
		for ; pos < len(order); pos++ {
			r.record(order[pos], TestResult{CrashAccess: trials[order[pos]].point, CrashRegion: sim.NoRegion, Outcome: S1})
		}
	}

	// Recovery rounds finish every branched trial — valid even when the
	// reference later failed, since each fork precedes the failure point.
	r.runRounds(branched)
}

// branch takes one trial's level-0 postmortem at its fork point and opens its
// record; nil when the postmortem panicked (the trial is then recorded SErr).
func (r *campaignRun) branch(j forkJob) *trial {
	defer r.contain(j.pos)
	var inj *faultmodel.Injector
	if r.opts.Faults.Enabled() {
		inj = faultmodel.New(r.opts.Faults, r.plan.trials[j.pos].faultSeed)
	}
	return r.newTrial(j.pos, r.forkPostmortem(j.forkPoint, inj), inj)
}

// rebranch takes one trial's re-crash postmortem at the fork its arm fired
// on a shared recovery, advancing its chain to the new durable state. It
// returns false when the postmortem panicked (the trial is then recorded
// SErr and does not survive into the next round).
func (r *campaignRun) rebranch(s *trial, fp forkPoint, rs restartState) (survived bool) {
	defer r.contain(s.pos)
	pl := r.forkPostmortem(fp, s.inj)
	s.apply(attemptResult{scrubbed: rs.scrubbed, from: rs.from, recrash: &pl}, r.t.golden.Iters)
	return true
}

// runRounds drives the recovery levels of the tree: each round every live
// trial owes one recovery attempt; trials restarting from byte-identical
// durable state share one attempt, and distinct re-crash arms become further
// forks. Classic (depth-0) trials terminate after one round; nested chains
// survive as long as their re-crashes fire and budget remains.
func (r *campaignRun) runRounds(branched []*trial) {
	var active []*trial
	for _, s := range branched {
		if s != nil {
			active = append(active, s)
		}
	}
	for len(active) > 0 && r.ctx.Err() == nil {
		// Pre-attempt bookkeeping in trial order: budget spend and per-trial
		// arm draws consume each trial's own generator, exactly as the live
		// chain would at this attempt.
		sort.Slice(active, func(a, b int) bool { return active[a].pos < active[b].pos })
		ready := active[:0]
		for _, s := range active {
			if s.begin(r) {
				ready = append(ready, s)
			} else {
				r.record(s.pos, s.res)
			}
		}
		groups := r.groupTrials(ready)
		survivors := make([][]*trial, len(groups))
		r.fanOut(len(groups), func(i int) { survivors[i] = r.runGroup(groups[i]) })
		active = slices.Concat(survivors...)
	}
	// Cancelled mid-campaign: remaining trials are discarded half-finished,
	// exactly as the live path discards in-flight trials.
}

// trialGroup is one shared recovery attempt: every member restarts from
// byte-identical durable state. members[0] owns the group's dump.
type trialGroup struct {
	members []*trial
}

// groupTrials partitions the round's trials into shared recovery attempts.
// Two trials share iff the restart path cannot distinguish them: equal crash
// iteration, equal poison set, equal audit journal, and byte-equal dumps over
// every range restartSetup reads (the bookmark word and all candidate
// objects). Grouping is by exact comparison, never by lossy hash, and is
// processed in trial order so group identity is deterministic.
func (r *campaignRun) groupTrials(ready []*trial) []*trialGroup {
	var groups []*trialGroup
	byKey := make(map[string][]*trialGroup)
	for _, s := range ready {
		key := groupKey(s)
		var g *trialGroup
		for _, cand := range byKey[key] {
			if r.t.dumpsEqual(cand.members[0].dump, s.dump) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &trialGroup{members: []*trial{s}}
			byKey[key] = append(byKey[key], g)
			groups = append(groups, g)
			continue
		}
		g.members = append(g.members, s)
		// The first member's dump serves the whole group.
		r.t.putDump(s.dump)
		s.dump = nil
	}
	return groups
}

// groupKey is the cheap pre-filter for grouping: trials with different crash
// iterations, poison sets or journals can never share a restart. Dump bytes
// are compared exactly afterwards (dumpsEqual).
func groupKey(s *trial) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "iter=%d", s.prevIter)
	if len(s.poison) > 0 {
		bases := make([]uint64, 0, len(s.poison))
		//eclint:allow campaigndet — key material only; sorted before use
		for b := range s.poison {
			bases = append(bases, b)
		}
		slices.Sort(bases)
		fmt.Fprintf(&sb, " poison=%v", bases)
	}
	if s.journal != nil {
		fmt.Fprintf(&sb, " journal=%#v", s.journal)
	}
	return sb.String()
}

// dumpsEqual compares two dumps over exactly the ranges the restart path
// reads: the 8-byte bookmark word and every candidate object. Equality over
// those ranges makes the restarts indistinguishable by construction —
// everything else a recovery touches is rebuilt by Setup/Init.
func (t *Tester) dumpsEqual(a, b []byte) bool {
	it := t.iterObj
	if !bytes.Equal(a[it.Addr:it.Addr+8], b[it.Addr:it.Addr+8]) {
		return false
	}
	for _, o := range t.golden.Candidates {
		if !bytes.Equal(a[o.Addr:o.End()], b[o.Addr:o.End()]) {
			return false
		}
	}
	return true
}

// runGroup executes one shared recovery attempt: a single restart drives
// every member's next chain step. Members whose arm fires branch at their
// fork and survive into the next round; the rest classify from the shared
// terminal state through the same attempt helpers the live path uses. A
// panic outside the crash protocol becomes SErr for the members it actually
// reached, like contain's per-trial isolation. The leg runs under one
// watchdog: when the campaign is cancelled, or the leg outlives the per-test/
// per-trial deadline, its unresolved members are left un-done — discarded by
// a cancellation, re-run one by one under their own deadline by the live path
// otherwise.
func (r *campaignRun) runGroup(g *trialGroup) (survivors []*trial) {
	t := r.t
	resolved := make([]bool, len(g.members))
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if _, ok := rec.(*sim.Abort); ok {
			return
		}
		for i, s := range g.members {
			if !resolved[i] {
				r.record(s.pos, errResult(r.plan.trials[s.pos].point, rec))
			}
		}
	}()

	// Distinct arms ascending: the shared run forks once per distinct arm;
	// members drawn at the same arm share the fork.
	var arms []uint64
	for _, s := range g.members {
		if s.arm > 0 {
			arms = append(arms, s.arm)
		}
	}
	slices.Sort(arms)
	arms = slices.Compact(arms)

	k := t.factory()
	m := t.getMachine()
	defer t.putMachine(m)
	first := g.members[0]
	a := first.attempt()
	first.dump = nil
	defer t.putDump(a.dump)
	w := r.watchdog()
	rs, early := r.restartSetup(k, m, w, a)

	var end recoveryEnd
	fps := make(map[uint64]forkPoint, len(arms))
	if early == nil {
		if len(arms) > 0 {
			if r.opts.Faults.Enabled() {
				// The live path attaches the trial's injector here
				// (restartOnce arms it after the restore phase); the shared run
				// attaches an inert recorder with the same observation window
				// instead.
				m.AttachRecorder(&faultmodel.Recorder{})
			}
			next := 0 // the arm the crash clock is set to
			m.SetForkHook(func(c sim.Crash) uint64 {
				fps[arms[next]] = takeFork(m, c, mergedJournal(rs.journal, k))
				if next++; next == len(arms) {
					return 0
				}
				return arms[next]
			})
			m.RearmCrash(arms[0])
		}
		end = t.runRecovery(k, m, rs.from, false)
	}
	if w.expired() {
		return nil
	}

	// Branch members first: their chains continue from their forks, and a
	// later Result/Verify panic on the terminal machine must not take down
	// trials whose crash preceded the terminal state. A member whose arm never
	// fired — the recovery ended (or was interrupted) before reaching it —
	// classifies terminally with the unarmed ones.
	for i, s := range g.members {
		if fp, fired := fps[s.arm]; fired {
			if r.rebranch(s, fp, rs) {
				survivors = append(survivors, s)
			}
			resolved[i] = true
		}
	}
	var st attemptResult
	classified := early != nil
	if classified {
		st = *early
	}
	for i, s := range g.members {
		if resolved[i] {
			continue
		}
		if !classified {
			// Result and Verify read the terminal machine once; every
			// terminal member classifies from the same values, as their live
			// runs would have computed them from machines in identical states.
			st, classified = t.terminalAttempt(k, m, rs, end, a.crashIter), true
		}
		s.apply(st, t.golden.Iters)
		r.record(s.pos, s.res)
		resolved[i] = true
	}
	return survivors
}
