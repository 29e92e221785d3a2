// The shared half of every crash test: the postmortem of a power loss, the
// restart from its durable dump, and the classification of what the restart
// did. The live path drives these per trial, the snapshot tree drives them
// once per group of indistinguishable trials; neither owns a copy, so the two
// cannot drift apart.
package nvct

import (
	"math/rand"

	"easycrash/internal/apps"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// powerLoss is the postmortem of one fired crash: where it struck, what was
// inconsistent, and the durable state the next recovery attempt restarts
// from — the dump as the failing media left it and the poisoned block set.
type powerLoss struct {
	crash  sim.Crash
	inc    map[string]float64 // per-candidate data inconsistent rate at the crash
	media  faultmodel.Injection
	dump   []byte
	poison map[uint64]struct{}
	// journal is the kernel's acknowledged-operations journal, snapshotted
	// while the crashed instance's volatile state was still intact and merged
	// over every earlier life of the chain; nil for kernels without
	// consistency semantics, and nil once a scrub discarded state on purpose —
	// the engine knows what it threw away, so later audits would report engine
	// policy, not workload lies. The recovery phase audits the restarted state
	// against it.
	journal apps.AckJournal
}

// postmortem analyses the machine at the instant a crash fired, then loses
// power: per-candidate inconsistency, the copy-based verification drain
// (verified: all candidate state is forced consistent before the dump, as
// making a data copy would), the crash itself, and the durable dump. crash,
// when non-nil, must drop the caches and apply the trial's media faults —
// injected live, or replayed on a fork — so the media-fault layer mutates the
// image before the dump is taken: what restart sees is the image as the
// failing media left it. The caller fills in crash and journal.
func (t *Tester) postmortem(m *sim.Machine, verified bool, crash func() faultmodel.Injection) powerLoss {
	pl := powerLoss{inc: make(map[string]float64, len(t.golden.Candidates))}
	for _, o := range t.golden.Candidates {
		pl.inc[o.Name] = m.InconsistencyRate(o)
	}
	if verified {
		m.Hierarchy().WriteBackAll()
	}
	if crash == nil {
		m.CrashNow()
	} else {
		pl.media = crash()
		if pl.media.PoisonedBlocks > 0 {
			// The image's detected-uncorrectable blocks, as the lookup the
			// restart path probes objects against.
			pl.poison = make(map[uint64]struct{}, pl.media.PoisonedBlocks)
			for _, b := range m.Image().PoisonedBlocks() {
				pl.poison[b] = struct{}{}
			}
		}
	}
	pl.dump = t.takeDump(m)
	return pl
}

// journalOf snapshots the ack journal of a trial's first life as its crash
// fires; nil for kernels without consistency semantics. The crash unwinds the
// kernel's stack (on the tree it never even does) but its Go-side state is
// intact.
func journalOf(k apps.Kernel) apps.AckJournal {
	if ck, ok := k.(apps.ConsistencyKernel); ok {
		return ck.Journal()
	}
	return nil
}

// mergedJournal is journalOf for a recovery life that crashed again: this
// life acknowledged more operations before dying, and the next attempt's
// audit must honour the union of every life's acks. prior is the audit
// baseline the life started from; once a scrub discarded it the chain's
// journal stays nil.
func mergedJournal(prior apps.AckJournal, k apps.Kernel) apps.AckJournal {
	if ck, ok := k.(apps.ConsistencyKernel); ok && prior != nil {
		return prior.Merge(ck.Journal())
	}
	return nil
}

// attempt is the input of one recovery attempt: the durable state it restarts
// from and, in the nested-failure model, the crash armed against it.
type attempt struct {
	dump   []byte
	poison map[uint64]struct{}
	// crashIter is the progress lost with the bookmark when the scrub
	// fallback restarts from iteration 0.
	crashIter int64
	journal   apps.AckJournal
	// arm > 0 arms a crash at the arm-th demand access of the recovery run;
	// inj, when non-nil, is re-attached so the re-crash composes with the
	// media-fault layer and faults accumulate across the chain.
	arm uint64
	inj *faultmodel.Injector
}

// attemptResult is the outcome of one recovery attempt. Either the attempt
// reached a terminal classification (recrash == nil: outcome, extra, final,
// executed are valid) or an armed re-crash fired mid-recomputation (recrash
// describes the new power-loss state the next attempt must restart from).
type attemptResult struct {
	outcome  Outcome
	extra    int64
	final    []float64
	executed int64
	scrubbed int
	from     int64 // iteration the attempt resumed at
	// violations carries the oracle audit's findings behind an SViol
	// outcome; detected carries the workload's own loudly-reported recovery
	// failure behind an S3.
	violations []string
	detected   string

	recrash *powerLoss
}

// restartOnce re-initialises the application, reloads persisted objects from
// the dump (Figure 2b), resumes the main loop at the bookmarked iteration,
// and classifies the outcome — one recovery attempt of the live path, armed
// with a.arm in the nested-failure model. A fired re-crash takes the same
// postmortem the first crash took.
func (r *campaignRun) restartOnce(w watchdog, a attempt) attemptResult {
	t := r.t
	k := t.factory()
	m := t.getMachine()
	defer t.putMachine(m)
	rs, early := r.restartSetup(k, m, w, a)
	if early != nil {
		return *early
	}
	var crashFn func() faultmodel.Injection
	if a.arm > 0 {
		// Re-arm after the restore/scrub phase: the crash clock counts
		// demand accesses of the recomputation only, and restore-phase
		// write-backs are settled, not in flight.
		if a.inj != nil {
			m.AttachFaults(a.inj)
			crashFn = m.CrashWithFaults
		}
		m.RearmCrash(a.arm)
	}

	end := t.runRecovery(k, m, rs.from, a.arm > 0)
	if end.crash == nil {
		return t.terminalAttempt(k, m, rs, end, a.crashIter)
	}
	// The recovery itself lost power: hand the next attempt the new durable
	// state.
	pl := t.postmortem(m, r.opts.Verified, crashFn)
	pl.crash = *end.crash
	pl.journal = mergedJournal(rs.journal, k)
	return attemptResult{scrubbed: rs.scrubbed, from: rs.from, recrash: &pl}
}

// restartState is the outcome of a successful restart setup: the application
// re-initialised, persisted objects restored from the dump, bookmark read (or
// scrubbed) and the oracle audit passed. The recovery's main loop is ready to
// resume at from.
type restartState struct {
	from         int64
	scrubbed     int
	bookmarkLost bool
	// journal is the post-setup audit baseline: nil after a scrub discarded
	// state on purpose, otherwise the journal the next life must honour.
	journal apps.AckJournal
}

// restartSetup performs the pre-run phase of one recovery attempt on the
// given kernel and machine: Setup, bookmark read from the dump, Init, restore
// of unpoisoned candidates (scrub-and-fallback when enabled), PostRestart,
// and the crash-consistency audit. A non-nil attemptResult is an early
// terminal classification (SDue, corrupted-bookmark S3, detected-recovery-
// failure S3, SViol) and the machine must not run.
//
// a.poison carries the detected-uncorrectable blocks of the crashed image:
// touching one aborts the restart with SDue unless the scrub-and-fallback
// path is enabled, in which case the poisoned object is re-initialised
// instead of restored (and a poisoned bookmark falls back to iteration 0,
// counting the redone iterations as extra).
//
// a.journal, when non-nil, is the acknowledged-operations journal of the
// crashed life (merged across a chain's lives); the recovered state is
// audited against it right after the kernel's own recovery, before the main
// loop resumes. A detected recovery failure classifies S3 (the workload
// failed loudly, correctly); a silent violation classifies SViol. The audit
// is skipped after a scrub — re-initialising poisoned objects discards state
// deliberately and accountably (ScrubbedObjects), which is not a lie.
func (r *campaignRun) restartSetup(k apps.Kernel, m *sim.Machine, w watchdog, a attempt) (restartState, *attemptResult) {
	scrub := r.opts.ScrubOnRestart
	k.Setup(m)
	w.arm(m)

	// Read the bookmarked iteration from the dump — unless its blocks are
	// poisoned, in which case the durable bookmark is unreadable.
	itObj := k.IterObject()
	scrubbed := 0
	from := int64(0)
	bookmarkLost := overlapsPoison(itObj, a.poison)
	if bookmarkLost {
		if !scrub {
			return restartState{}, &attemptResult{outcome: SDue}
		}
		scrubbed++ // fall back to iteration 0
	} else {
		from = int64(leUint64(a.dump[itObj.Addr : itObj.Addr+8]))
		if from < 0 || from > r.t.golden.Iters {
			// A corrupted bookmark: the restarted process would index past
			// its data — the segfault case.
			return restartState{}, &attemptResult{outcome: S3}
		}
	}

	k.Init(m)
	for _, o := range m.Space().Candidates() {
		if overlapsPoison(o, a.poison) {
			if !scrub {
				return restartState{}, &attemptResult{outcome: SDue, scrubbed: scrubbed, from: from}
			}
			scrubbed++ // keep the freshly initialised values
			continue
		}
		m.RestoreObject(o, a.dump[o.Addr:o.End()])
	}
	m.I64(itObj).Set(0, from)
	if rk, ok := k.(Restarter); ok {
		rk.PostRestart(m, from)
	}
	journal := a.journal
	if scrubbed > 0 {
		// The scrub path re-initialised objects on purpose; what it discarded
		// is accounted for, not lied about. Later lives of this trial skip the
		// audit too — their baseline was knowingly thrown away.
		journal = nil
	}
	if ck, ok := k.(apps.ConsistencyKernel); ok && journal != nil {
		au := ck.Audit(m, journal)
		if au.Detected != nil {
			// The workload's own recovery found the durable state unreadable
			// and refused to serve: a loud failure, classified as the
			// interruption it is — never a silent violation.
			return restartState{}, &attemptResult{outcome: S3, scrubbed: scrubbed, from: from, detected: au.Detected.Error()}
		}
		if len(au.Violations) > 0 {
			return restartState{}, &attemptResult{outcome: SViol, scrubbed: scrubbed, from: from, violations: au.Violations}
		}
	}
	return restartState{from: from, scrubbed: scrubbed, bookmarkLost: bookmarkLost, journal: journal}, nil
}

// recoveryEnd is how a restarted main loop ended: it ran executed iterations
// to completion, was interrupted (failed), or lost power again (crash).
type recoveryEnd struct {
	executed int64
	failed   bool
	crash    *sim.Crash
}

// runRecovery runs a restarted main loop from iteration from, converting
// runtime panics from corrupted restored state (index out of range and
// friends) and kernel errors into failed, the interruption S3 reports. With
// armed, a *sim.Crash panic is the nested-failure model's re-crash and is
// returned; unarmed — and on the tree, whose fork hook intercepts every armed
// point — it is a campaign-engine bug and re-thrown. Abort panics (deadline,
// cancellation) belong to the caller's containment and are always re-thrown;
// so is a broken marker contract, a kernel bug that must surface as ERR
// rather than pass for an interruption.
func (t *Tester) runRecovery(k apps.Kernel, m *sim.Machine, from int64, armed bool) (end recoveryEnd) {
	defer func() {
		switch rec := recover().(type) {
		case nil:
		case *sim.Crash:
			if !armed {
				panic(rec)
			}
			end.crash = rec
		case *sim.Abort, *sim.MarkerError:
			panic(rec)
		default:
			end.failed = true
		}
	}()
	executed, err := k.Run(m, from, iterBudget(t.golden.Iters))
	m.RunReturned(err)
	return recoveryEnd{executed: executed, failed: err != nil}
}

// terminalAttempt classifies a recovery attempt that did not crash again, on
// the terminal machine state: an interrupted run is S3, a completed one is
// judged by the kernel's result scalars and acceptance verdict. On a shared
// recovery several trials classify from the one result this returns.
// crashIter is the progress lost with the bookmark when the scrub fallback
// restarted from iteration 0.
func (t *Tester) terminalAttempt(k apps.Kernel, m *sim.Machine, rs restartState, end recoveryEnd, crashIter int64) attemptResult {
	res := attemptResult{scrubbed: rs.scrubbed, from: rs.from}
	if end.failed {
		res.outcome = S3
		return res
	}
	res.final = k.Result(m)
	verifyOK := k.Verify(m, t.golden.Result)
	res.executed = end.executed
	res.extra = rs.from + end.executed - t.golden.Iters
	if res.extra < 0 {
		res.extra = 0
	}
	if rs.bookmarkLost {
		// The redone iterations up to the crash point are extra work the
		// scrub fallback paid for losing the bookmark.
		res.extra += crashIter
	}
	switch {
	case !verifyOK:
		res.outcome = S4
	case res.extra > 0:
		res.outcome = S2
	default:
		res.outcome = S1
	}
	return res
}

// trial is one crash test in flight: the record accumulated so far plus the
// cursor of its crash chain — the durable state the next recovery attempt
// restarts from and the progress accounting that classifies the terminal
// attempt. The live path walks one trial through its attempts; the snapshot
// tree walks all of a campaign's trials round by round. A classic (depth-0)
// trial is a chain that ends at its first attempt.
type trial struct {
	pos int // position in the run's plan
	res TestResult

	dump    []byte
	poison  map[uint64]struct{}
	journal apps.AckJournal // merged ack journal across the chain's lives

	firstIter int64 // progress when the first power loss hit
	prevIter  int64 // progress when the latest power loss hit
	work      int64 // iterations executed across recovery attempts

	arm    uint64               // the pending attempt's drawn re-crash point (0 = unarmed)
	inj    *faultmodel.Injector // the trial's injector; its RNG advances across the chain
	trng   *rand.Rand           // the trial's re-crash point generator (nested only)
	budget int                  // the trial's retry budget (nested only)
}

// newTrial opens the record of plan.trials[pos] at its first power loss. inj
// is the trial's injector, owned by the whole trial so media faults
// accumulate across the crashes of a nested chain.
func (r *campaignRun) newTrial(pos int, pl powerLoss, inj *faultmodel.Injector) *trial {
	s := &trial{
		pos: pos,
		res: TestResult{
			CrashAccess:   pl.crash.Access,
			CrashRegion:   pl.crash.Region,
			CrashIter:     pl.crash.Iter,
			Inconsistency: pl.inc,
			Media:         pl.media,
		},
		dump:      pl.dump,
		poison:    pl.poison,
		journal:   pl.journal,
		firstIter: pl.crash.Iter,
		prevIter:  pl.crash.Iter,
		inj:       inj,
	}
	if r.opts.RecrashDepth > 0 {
		s.res.Depth = 1
		s.res.Chain = []ChainCrash{{Access: pl.crash.Access, Region: pl.crash.Region, Iter: pl.crash.Iter, Media: pl.media}}
		s.res.FinalInconsistency = pl.inc
		s.trng = rand.New(rand.NewSource(r.plan.trials[pos].trialSeed))
		s.budget = r.opts.RetryBudget
		if s.budget == 0 {
			s.budget = r.opts.RecrashDepth + 1
		}
	}
	return s
}

// begin opens the trial's next recovery attempt. In the nested-failure model
// it spends one unit of the retry budget and draws the attempt's re-crash
// point from the trial's generator while depth remains (the final allowed
// attempt runs unarmed, exactly like a classic restart). It returns false
// when the chain still needs another restart but the budget is spent: the
// application never reached a terminal state, and the trial is classified S3
// with ErrRetryBudgetExhausted.
func (s *trial) begin(r *campaignRun) bool {
	s.arm = 0
	if r.opts.RecrashDepth == 0 {
		return true
	}
	if s.res.Retries >= s.budget {
		s.res.Outcome = S3
		s.res.Err = ErrRetryBudgetExhausted.Error()
		r.t.putDump(s.dump)
		s.dump = nil
		return false
	}
	s.res.Retries++
	if s.res.Depth <= r.opts.RecrashDepth {
		s.arm = 1 + uint64(s.trng.Int63n(int64(r.plan.space)))
	}
	return true
}

// attempt is the pending recovery attempt's input.
func (s *trial) attempt() attempt {
	return attempt{dump: s.dump, poison: s.poison, crashIter: s.prevIter, journal: s.journal, arm: s.arm, inj: s.inj}
}

// apply folds one recovery attempt's result into the trial record. A
// re-crash extends the chain, advances the cursor to the new durable state
// and returns false (another attempt is due); a terminal outcome classifies
// the trial and returns true. The caller owns recycling the dump the attempt
// read.
func (s *trial) apply(st attemptResult, goldenIters int64) (terminal bool) {
	res := &s.res
	res.ScrubbedObjects += st.scrubbed
	if pl := st.recrash; pl != nil {
		// Crashed again: record the level and restart from the new
		// durable state the failing media left behind.
		res.Depth++
		res.Chain = append(res.Chain, ChainCrash{Access: pl.crash.Access, Region: pl.crash.Region, Iter: pl.crash.Iter, Media: pl.media})
		res.FinalInconsistency = pl.inc
		s.work += pl.crash.Iter - st.from
		s.dump, s.poison = pl.dump, pl.poison
		s.journal = pl.journal
		s.prevIter = pl.crash.Iter
		return false
	}
	res.Outcome = st.outcome
	res.FinalResult = st.final
	res.Violations = st.violations
	if st.detected != "" {
		res.Err = st.detected
	}
	if res.Depth == 0 {
		// A classic single-crash trial (nested fields stay zero): its one
		// attempt's own extra-iteration count stands.
		res.ExtraIters = st.extra
		return true
	}
	switch st.outcome {
	case S1, S2, S4:
		// Extra iterations of the whole chain: recovery work executed
		// beyond what remained when the first crash hit. Redone
		// iterations from lost bookmarks and convergence surplus both
		// land here; for a depth-1 chain it reduces to the classic
		// formula.
		extra := s.work + st.executed - (goldenIters - s.firstIter)
		if extra < 0 {
			extra = 0
		}
		res.ExtraIters = extra
		if st.outcome != S4 {
			res.Outcome = S1
			if extra > 0 {
				res.Outcome = S2
			}
		}
	}
	return true
}

// overlapsPoison reports whether any cache block of the object is in the
// poisoned set.
func overlapsPoison(o mem.Object, poison map[uint64]struct{}) bool {
	if len(poison) == 0 {
		return false
	}
	for b := o.Addr &^ (mem.BlockSize - 1); b < o.End(); b += mem.BlockSize {
		if _, bad := poison[b]; bad {
			return true
		}
	}
	return false
}

// Restarter is an optional kernel extension: PostRestart recomputes derived
// (non-candidate) objects from restored candidates before the main loop
// resumes — the paper's "re-computed based on the candidates".
type Restarter interface {
	PostRestart(m *sim.Machine, from int64)
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
