// Package nvct is the Non-Volatile memory Crash Tester — the Go counterpart
// of the paper's PIN-based NVCT tool (§3). It drives benchmark kernels on
// the simulated machine, triggers crashes at uniformly random points of the
// main computation loop, performs postmortem analysis (per-object data
// inconsistency rates), restarts the application from the durable NVM dump,
// and classifies the response:
//
//	S1 — successful recomputation, no extra iterations
//	S2 — successful recomputation with extra iterations
//	S3 — interruption (the restarted run could not complete)
//	S4 — acceptance verification fails
//
// Two outcomes extend the paper's classification for imperfect media and a
// hardened campaign engine (see CampaignOpts.Faults):
//
//	SDue — a detected-uncorrectable media error struck restart-critical data
//	SErr — the test itself errored (panic, per-test deadline)
//
// Kernels with client-visible persistence semantics (the persistent KV
// workload, apps.ConsistencyKernel) are additionally audited after every
// recovery against the acknowledged-operations journal the engine carries
// across each power loss (a WITCHER-style crash-consistency oracle):
//
//	SViol — recovery silently broke an acknowledged-durability promise
//
// A Tester owns one golden (undisturbed) run; campaigns of crash tests are
// then run against different persistence policies.
package nvct

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// Policy describes a persistence policy: which data objects to flush and
// where. The loop-iterator bookmark is always flushed at iteration ends
// regardless of policy (paper footnote 3). A nil *Policy is the baseline:
// iterator-only, no object persistence.
type Policy struct {
	// Objects are the names of the data objects to persist.
	Objects []string
	// AtIterationEnd flushes the objects at the end of every Frequency-th
	// main-loop iteration.
	AtIterationEnd bool
	// AtRegionEnds flushes the objects at the end of each listed region
	// (every Frequency-th iteration).
	AtRegionEnds []int
	// Frequency is the persistence period in iterations; 0 or 1 = every
	// iteration (the paper's x parameter).
	Frequency int64
	// Op is the flush instruction; the zero value CLFLUSH is never what
	// you want for performance, so NewTester-built policies use CLFLUSHOPT
	// when Op is unset... callers may set CLWB explicitly.
	Op cachesim.FlushOp
}

// EveryRegionPolicy returns the most aggressive policy for the given
// objects: flush at the end of every region and every iteration. This is
// how the paper obtains the "best recomputability" reference and c_k^max.
func EveryRegionPolicy(objects []string, regions int) *Policy {
	all := make([]int, regions)
	for i := range all {
		all[i] = i
	}
	return &Policy{Objects: objects, AtIterationEnd: true, AtRegionEnds: all, Frequency: 1, Op: cachesim.CLFLUSHOPT}
}

// IterationPolicy returns a policy persisting the objects at the end of
// every main-loop iteration (the paper's "selecting data objects" step).
func IterationPolicy(objects []string) *Policy {
	return &Policy{Objects: objects, AtIterationEnd: true, Frequency: 1, Op: cachesim.CLFLUSHOPT}
}

// policyPersister adapts a Policy to sim.Persister.
type policyPersister struct {
	objs    []mem.Object
	iterObj mem.Object
	p       *Policy
	regions map[int]bool
}

func newPolicyPersister(m *sim.Machine, k apps.Kernel, p *Policy) *policyPersister {
	pp := &policyPersister{iterObj: k.IterObject(), p: p, regions: make(map[int]bool)}
	if p != nil {
		for _, name := range p.Objects {
			pp.objs = append(pp.objs, m.Space().MustObject(name))
		}
		for _, r := range p.AtRegionEnds {
			pp.regions[r] = true
		}
	}
	return pp
}

func (pp *policyPersister) due(it int64) bool {
	if pp.p == nil {
		return false
	}
	f := pp.p.Frequency
	if f <= 1 {
		return true
	}
	return it%f == 0
}

// RegionEnd implements sim.Persister.
func (pp *policyPersister) RegionEnd(m *sim.Machine, region int, it int64) {
	if pp.p != nil && pp.regions[region] && pp.due(it) {
		m.FlushObjects(pp.objs, pp.p.Op)
	}
}

// IterationEnd implements sim.Persister.
func (pp *policyPersister) IterationEnd(m *sim.Machine, it int64) {
	if pp.p != nil && pp.p.AtIterationEnd && pp.due(it) {
		m.FlushObjects(pp.objs, pp.p.Op)
	}
	// The iterator bookmark is always persisted; it is flushed outside the
	// machine's persistence accounting because the paper does not count it
	// as a persistence operation (footnote 3: "almost zero impact").
	m.Hierarchy().Flush(pp.iterObj.Addr, pp.iterObj.Size, cachesim.CLWB)
}

const (
	// nvmBytes is the simulated NVM capacity of every tester machine.
	nvmBytes = 64 << 20
	// maxIterFactor bounds restarted runs at maxIterFactor*golden iterations
	// (paper: verification failure is declared after 2x).
	maxIterFactor = 2
)

// Config configures a Tester.
type Config struct {
	// Cache is the cache geometry; zero value means cachesim.TestConfig.
	Cache cachesim.Config
	// ScalarAccess forces every machine the tester runs down the
	// per-element scalar access path instead of the batched engine. The two
	// must be behaviourally indistinguishable; equivalence tests run
	// campaigns in both modes and compare digests.
	ScalarAccess bool
}

func (c Config) withDefaults() Config {
	if c.Cache.Levels == nil {
		c.Cache = cachesim.TestConfig()
	}
	return c
}

// Golden describes the undisturbed reference run.
type Golden struct {
	Iters          int64
	MainAccesses   uint64
	RegionAccesses map[int]uint64
	Result         []float64
	CacheStats     cachesim.Stats
	PersistStats   sim.PersistStats
	NVMWrites      uint64
	Footprint      uint64
	CandidateBytes uint64
	Candidates     []mem.Object
	Regions        int
}

// Tester owns the golden run for one kernel and runs crash campaigns.
type Tester struct {
	factory apps.Factory
	cfg     Config
	golden  Golden
	name    string

	// machines recycles simulated machines across crash tests: building a
	// machine allocates the full NVM image plus the cache arena, so a
	// campaign of thousands of tests reuses one machine per worker instead.
	// Every Get is Reset before use; reuse must stay behaviourally invisible.
	machines sync.Pool

	// dumps recycles post-crash durable-image dump buffers. A dump covers
	// [0, extent) — the allocation high-water mark of the golden run — not
	// the full NVM capacity: in-band traffic never writes past the extent,
	// and the restart phase only indexes registered objects, all below it.
	dumps sync.Pool

	// extent is the golden run's allocation high-water mark; campaign runs
	// re-execute the same kernel setup, so their extent is identical.
	extent uint64

	// iterObj is the kernel's loop-iterator bookmark as the golden run's
	// Setup registered it; object geometry is deterministic across instances.
	iterObj mem.Object
}

// getMachine returns a pristine machine for this tester's configuration,
// recycling a pooled one when available.
func (t *Tester) getMachine() *sim.Machine {
	if v := t.machines.Get(); v != nil {
		m := v.(*sim.Machine)
		m.Reset()
		m.SetScalarAccess(t.cfg.ScalarAccess)
		return m
	}
	m := sim.NewMachine(nvmBytes, t.cfg.Cache)
	m.SetScalarAccess(t.cfg.ScalarAccess)
	return m
}

// putMachine recycles a machine. The machine may be in any post-run state —
// the next getMachine resets it — but must no longer be referenced by the
// caller.
func (t *Tester) putMachine(m *sim.Machine) { t.machines.Put(m) }

// takeDump copies the machine's durable image prefix — everything the golden
// run allocated, hence every object a restart reads — into a pooled buffer.
func (t *Tester) takeDump(m *sim.Machine) []byte {
	var buf []byte
	if v := t.dumps.Get(); v != nil {
		buf = v.([]byte)
	}
	if uint64(cap(buf)) < t.extent {
		buf = make([]byte, t.extent)
	}
	buf = buf[:t.extent]
	m.DurableCopy(buf)
	return buf
}

// putDump recycles a dump buffer once no attempt can read it any more.
func (t *Tester) putDump(b []byte) {
	if b != nil {
		t.dumps.Put(b)
	}
}

// NewTester performs the golden run and returns a ready Tester.
func NewTester(factory apps.Factory, cfg Config) (*Tester, error) {
	t := &Tester{factory: factory, cfg: cfg.withDefaults()}
	g, err := t.undisturbed("golden", false, func(m *sim.Machine, k apps.Kernel) sim.Persister {
		// Every later run of this kernel repeats the same Setup, so what it
		// registered here is campaign-constant.
		t.name, t.extent, t.iterObj = k.Name(), m.Space().Extent(), k.IterObject()
		return newPolicyPersister(m, k, nil)
	})
	if err != nil {
		return nil, err
	}
	t.golden = g
	return t, nil
}

// Golden returns the golden-run profile.
func (t *Tester) Golden() Golden { return t.golden }

// Name returns the kernel name.
func (t *Tester) Name() string { return t.name }

// Config returns the effective configuration.
func (t *Tester) Config() Config { return t.cfg }

// iterBudget bounds a run at maxIterFactor times the given iteration count.
func iterBudget(iters int64) int64 { return iters * maxIterFactor }

// undisturbed executes one crash-free run and profiles it: the golden run,
// the performance model's profile runs and the crash-eligible tick count all
// run this body. makePersister is invoked after kernel setup and
// initialisation, so it may allocate extra objects on the machine; flushTicks
// makes flushed blocks advance the crash clock, so MainAccesses counts demand
// accesses plus flush work. Every undisturbed run must verify against its own
// result — a kernel that does not is unusable as a crash-test reference.
func (t *Tester) undisturbed(what string, flushTicks bool, makePersister func(*sim.Machine, apps.Kernel) sim.Persister) (Golden, error) {
	k := t.factory()
	m := t.getMachine()
	defer t.putMachine(m)
	k.Setup(m)
	k.Init(m)
	m.SetFlushCrashEligible(flushTicks)
	m.SetPersister(makePersister(m, k))
	writesBefore := m.NVMWrites()
	executed, err := k.Run(m, 0, iterBudget(k.NominalIters()))
	m.RunReturned(err)
	if err != nil {
		return Golden{}, fmt.Errorf("nvct: %s run of %s failed: %w", what, k.Name(), err)
	}
	res := k.Result(m)
	if !k.Verify(m, res) {
		return Golden{}, fmt.Errorf("nvct: %s run of %s does not verify against itself", what, k.Name())
	}
	return Golden{
		Iters:          executed,
		MainAccesses:   m.MainAccesses(),
		RegionAccesses: m.RegionAccesses(),
		Result:         res,
		CacheStats:     m.Hierarchy().Stats(),
		PersistStats:   m.PersistStats(),
		NVMWrites:      m.NVMWrites() - writesBefore,
		Footprint:      m.Space().Footprint(),
		CandidateBytes: m.Space().CandidateFootprint(),
		Candidates:     m.Space().Candidates(),
		Regions:        k.RegionCount(),
	}, nil
}

// policyRun is undisturbed under a persistence policy (nil = iterator-only).
func (t *Tester) policyRun(what string, flushTicks bool, policy *Policy) (Golden, error) {
	return t.undisturbed(what, flushTicks, func(m *sim.Machine, k apps.Kernel) sim.Persister {
		return newPolicyPersister(m, k, policy)
	})
}

// ProfileRun executes one undisturbed run under the given policy and
// returns its profile (used by the performance model: persistence counts,
// cache traffic, NVM writes).
func (t *Tester) ProfileRun(policy *Policy) (Golden, error) {
	return t.policyRun("profile", false, policy)
}

// ProfileRunWith executes one undisturbed run with a caller-built persister
// (e.g. the checkpoint/restart baseline of package ckpt). makePersister is
// invoked after kernel setup and initialisation, so it may allocate extra
// objects (checkpoint shadow space) on the machine.
func (t *Tester) ProfileRunWith(makePersister func(m *sim.Machine, k apps.Kernel) sim.Persister) (Golden, error) {
	return t.undisturbed("profile", false, makePersister)
}

// CampaignOpts configures one crash-test campaign.
type CampaignOpts struct {
	Tests int
	Seed  int64
	// Verified runs the paper's copy-based verification variant (§6
	// "Result verification"): at the crash point all candidate state is
	// forced consistent before the dump, as making a data copy would.
	Verified bool
	// Parallel is the number of crash tests run concurrently; every test
	// owns its machines, so campaigns parallelise perfectly. 0 means
	// GOMAXPROCS; 1 forces serial execution. Results are deterministic for
	// a given Seed regardless of parallelism.
	Parallel int
	// CrashDuringPersistence makes persistence operations crash-eligible:
	// each flushed block advances the crash clock, so crashes can strike
	// mid-flush and leave an object set partially persisted. Crash points
	// are then drawn over the policy's own (demand + flush) tick count.
	CrashDuringPersistence bool
	// Faults configures the NVM media-fault layer applied at each crash:
	// torn writes, raw bit errors, per-block ECC. The zero value is inert —
	// no injector is attached and campaigns reproduce the perfect-media
	// results byte for byte.
	Faults faultmodel.Config
	// ScrubOnRestart enables the production scrub-and-fallback restart
	// path: instead of aborting on a detected-uncorrectable block (SDue),
	// restart re-initialises the poisoned object (and restarts from
	// iteration 0 when the bookmark itself is poisoned, counting the
	// redone iterations as extra).
	ScrubOnRestart bool
	// TestTimeout bounds each crash test (both phases); a test exceeding
	// it is recorded as an SErr result and the campaign continues. On the
	// snapshot tree the clock bounds each shared recovery leg; a leg that
	// outlives it hands its trials to the live path, which times each test
	// on its own. 0 means no per-test deadline.
	TestTimeout time.Duration
	// RecrashDepth enables the nested-failure model: up to RecrashDepth
	// additional crashes may fire during recovery, so one trial becomes a
	// crash chain of depth at most RecrashDepth+1. Crash points for every
	// level of the chain are derived from the campaign seed, so nested
	// campaigns replay byte-identically. 0 is the classic single-crash
	// campaign (the paper's model) and reproduces its results exactly.
	RecrashDepth int
	// RetryBudget caps the recovery attempts one trial may consume when
	// RecrashDepth > 0. A trial that still needs another restart once the
	// budget is spent is classified S3 with ErrRetryBudgetExhausted
	// recorded. 0 means RecrashDepth+1 — enough to finish any chain.
	RetryBudget int
	// TrialDeadline bounds one trial's whole crash chain (all phases, timed
	// like TestTimeout); a trial exceeding it is recorded as SErr with
	// ErrTrialDeadline and the campaign continues. 0 means no trial deadline.
	TrialDeadline time.Duration
}

// errTestTimeout marks a per-test deadline abort so it can be told apart
// from a campaign-wide cancellation.
var errTestTimeout = errors.New("nvct: per-test deadline exceeded")

// ErrRetryBudgetExhausted reports a nested-failure trial whose recovery kept
// crashing until the per-trial retry budget was spent: the application never
// reached a terminal classification, so the trial is recorded as S3 with
// this error. Test with errors.Is against TestResult-carried strings via
// Report helpers, or directly on campaign setup errors.
var ErrRetryBudgetExhausted = errors.New("nvct: retry budget exhausted before recovery completed")

// ErrTrialDeadline reports a trial that exceeded its wall-clock deadline
// (CampaignOpts.TrialDeadline) somewhere in its crash chain. The trial is
// recorded as SErr and the campaign continues. Test with errors.Is.
var ErrTrialDeadline = errors.New("nvct: trial deadline exceeded")

// ErrEmptyCrashSpace reports a campaign whose crash-point space is empty:
// the kernel's main loop issued zero crash-eligible accesses (or the
// crash-eligible tick profile measured zero ticks), so no crash point can be
// drawn. Test with errors.Is.
var ErrEmptyCrashSpace = errors.New("nvct: empty crash-point space (main loop issued no crash-eligible accesses)")
