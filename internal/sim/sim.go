// Package sim provides the execution environment the benchmark kernels run
// on: a Machine that routes every load/store through the simulated cache
// hierarchy into the simulated NVM image, tracks code regions and main-loop
// iterations, injects crashes at precise access counts, and invokes a
// persistence policy (EasyCrash's selective flushing) at region and
// iteration boundaries.
//
// A "crash" is delivered by panicking with a *Crash value when the armed
// access count is reached; the campaign driver (package nvct) recovers it.
// Kernels therefore must not hold external resources across accesses.
package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
)

// NoRegion is the region ID reported outside any marked code region.
const NoRegion = -1

// MaxRegions is the largest number of first-level code regions a kernel may
// mark (the paper's benchmarks have at most 16).
const MaxRegions = 31

// Crash is the panic payload delivered when an armed crash point fires.
type Crash struct {
	Access uint64 // main-loop access index at which the crash fired
	Region int    // region active at the crash, or NoRegion
	Iter   int64  // main-loop iteration at the crash
}

// Error implements error so a recovered *Crash reads naturally in messages.
func (c *Crash) Error() string {
	return fmt.Sprintf("simulated crash at access %d (region %d, iteration %d)", c.Access, c.Region, c.Iter)
}

// Abort is the panic payload delivered when the machine's interrupt check
// stops a run (per-test deadline exceeded, campaign context cancelled). The
// campaign driver recovers it; kernels never see it.
type Abort struct {
	Err error
}

// Error implements error.
func (a *Abort) Error() string { return fmt.Sprintf("simulated run aborted: %v", a.Err) }

// Unwrap exposes the abort cause to errors.Is/As.
func (a *Abort) Unwrap() error { return a.Err }

// Observer receives every demand access issued inside the main loop. It is
// the hook the application-characterisation study (package predict, after
// the paper's §8 discussion) uses to extract access-pattern features
// without crash tests. A nil observer costs one predictable branch per
// access.
type Observer interface {
	// Access reports a demand access of size bytes at addr; store is true
	// for writes. It is invoked after the access completes.
	Access(addr uint64, size int, store bool)
}

// Persister is the persistence policy invoked at kernel-marked boundaries.
// EasyCrash's production runtime implements it with selective cache flushes;
// the baseline "no persistence" policy is a nil Persister.
type Persister interface {
	// RegionEnd runs at the end of code region. it is the current
	// main-loop iteration (0-based).
	RegionEnd(m *Machine, region int, it int64)
	// IterationEnd runs at the end of each main-loop iteration.
	IterationEnd(m *Machine, it int64)
}

// Machine is one simulated node: an object space in NVM behind a cache
// hierarchy, plus the instrumentation the crash tester needs.
type Machine struct {
	space *mem.Space
	hier  *cachesim.Hierarchy

	inMainLoop bool
	mainAccess uint64 // demand accesses issued inside the main loop
	crashAt    uint64 // fire a crash when mainAccess reaches this; 0 = never

	// nextEvent is the one threshold the inlined crash-clock tick compares
	// mainAccess against: the earlier of crashAt and intrAt, or 0 — every
	// tick — while an injector or recorder needs its write window
	// re-anchored per tick. Whatever moves one of those calls arm().
	nextEvent uint64

	regionIdx    int // active region + 1, the regionAccess index; 0 outside any marked region
	leftOpen     int // regionIdx as the main loop's MainLoopEnd found it; see RunReturned
	iter         int64
	regionAccess [MaxRegions + 1]uint64 // per-region counts; index region+1 (0 = NoRegion)
	iterations   int64                  // completed main-loop iterations

	persister Persister
	persist   PersistStats
	observer  Observer

	// flushCrashes makes persistence work crash-eligible: each flushed
	// block advances the crash clock, so an armed crash can strike in the
	// middle of a persistence operation, leaving it partially applied.
	flushCrashes bool

	// faults is the attached media-fault injector (nil = perfect media).
	// lastWriteSeq remembers the injector's media-write count at the
	// previous crash-clock tick, so the crash can tell whether a write-back
	// or flush was in flight when it fired.
	faults       *faultmodel.Injector
	lastWriteSeq uint64

	// recorder, when attached, observes media writes without injecting:
	// the prefix-sharing reference machine uses it to know which write was
	// in flight at each fork point, so per-trial injectors can replay the
	// tear without ever observing the shared prefix themselves. Mutually
	// exclusive with faults; shares lastWriteSeq as its window anchor.
	recorder *faultmodel.Recorder

	// intrFn is invoked every intrEvery crash-clock ticks — next when
	// mainAccess reaches intrAt; a non-nil error aborts the run by panicking
	// with *Abort. Used for per-test deadlines and campaign cancellation;
	// between checks it costs the tick nothing.
	intrFn    func() error
	intrEvery uint64
	intrAt    uint64

	// forkFn, when set, replaces the crash panic: the armed point calls the
	// hook (which typically Forks the machine) and execution continues with
	// whatever point the hook arms next. See SetForkHook.
	forkFn ForkHook

	// resumeExtent is the image extent a ResumeFrom restored; Reset must
	// clear that prefix even though this machine's space never allocated it.
	resumeExtent uint64

	// scalarAccess forces the batched accessors (LoadRun/StoreRun and the
	// stream views) down the per-element scalar path. The batched engine is
	// proved against this reference mode by the crash-point-sweep and
	// campaign-digest equivalence tests.
	scalarAccess bool

	buf    [8]byte
	runBuf []byte // scratch for the batched run accessors
}

// DefaultInterruptStride is how many main-loop accesses pass between
// interrupt checks when SetInterrupt is called with every = 0.
const DefaultInterruptStride = 4096

// PersistStats counts persistence work done by the Persister through the
// Machine's flush helpers.
type PersistStats struct {
	Operations   uint64 // calls to FlushObject/FlushRange groups (persistence operations)
	BlocksIssued uint64 // block flush instructions issued
	DirtyFlushed uint64 // blocks actually written back to NVM
	CleanFlushed uint64 // clean or non-resident blocks (no NVM write)
}

// NewMachine builds a machine over a fresh object space of the given NVM
// capacity, with the given cache configuration.
func NewMachine(nvmBytes uint64, cfg cachesim.Config) *Machine {
	space := mem.NewSpace(nvmBytes)
	m := &Machine{
		space: space,
		hier:  cachesim.New(cfg, space.Image()),
	}
	m.arm()
	return m
}

// Reset returns the machine to its as-constructed state — empty object
// space, cold caches, disarmed crash, no persister/observer/faults — without
// reallocating the NVM image or the cache arena. Campaign workers recycle
// one machine per worker across crash tests; a reset machine must be
// behaviourally indistinguishable from NewMachine with the same parameters.
func (m *Machine) Reset() {
	m.space.Reset() // also detaches any write hook on the image
	m.hier.Reset()
	m.inMainLoop = false
	m.mainAccess = 0
	m.crashAt = 0
	m.regionIdx = 0
	m.leftOpen = 0
	m.iter = 0
	m.regionAccess = [MaxRegions + 1]uint64{}
	m.iterations = 0
	m.persister = nil
	m.persist = PersistStats{}
	m.observer = nil
	m.flushCrashes = false
	m.faults = nil
	m.recorder = nil
	m.lastWriteSeq = 0
	m.intrFn, m.intrEvery, m.intrAt = nil, 0, 0
	m.forkFn = nil
	m.scalarAccess = false
	m.arm()
	if m.resumeExtent != 0 {
		// A resumed machine carries restored image bytes beyond its own
		// space's (empty) allocation extent; clear them too.
		m.space.Image().ResetPrefix(m.resumeExtent)
		m.resumeExtent = 0
	}
}

// Space returns the machine's object space.
func (m *Machine) Space() *mem.Space { return m.space }

// Image returns the machine's durable NVM image.
func (m *Machine) Image() *mem.Image { return m.space.Image() }

// Hierarchy returns the machine's cache hierarchy.
func (m *Machine) Hierarchy() *cachesim.Hierarchy { return m.hier }

// SetPersister installs the persistence policy (nil disables persistence).
func (m *Machine) SetPersister(p Persister) { m.persister = p }

// SetObserver installs a demand-access observer (nil disables observation).
func (m *Machine) SetObserver(o Observer) { m.observer = o }

// SetFlushCrashEligible makes flush traffic advance the crash clock, so
// crashes can interrupt persistence operations mid-way (the window between
// "right after cache flushing" consistency points the paper describes in
// §1). Off by default: the paper's campaigns trigger crashes on demand
// accesses.
func (m *Machine) SetFlushCrashEligible(v bool) { m.flushCrashes = v }

// PersistStats returns the persistence counters accumulated so far.
func (m *Machine) PersistStats() PersistStats { return m.persist }

// AttachFaults installs a media-fault injector: it observes every media
// write through the image's write hook and is applied by CrashWithFaults.
// nil detaches (perfect media, the paper's assumption).
func (m *Machine) AttachFaults(in *faultmodel.Injector) {
	m.faults = in
	m.arm()
	if in == nil {
		m.space.Image().SetWriteHook(nil)
		return
	}
	m.space.Image().SetWriteHook(in.ObserveWrite)
	m.lastWriteSeq = in.WriteSeq()
}

// AttachRecorder installs a media-write recorder: it observes every media
// write through the image's write hook but injects nothing. The machine
// tracks the recorder's write count across crash-clock ticks the same way it
// tracks an injector's, so InFlightWrite can tell — at a fork point — whether
// a write was in flight, exactly as the live engine's tear-arming check
// would. nil detaches. Mutually exclusive with AttachFaults.
func (m *Machine) AttachRecorder(r *faultmodel.Recorder) {
	if m.faults != nil {
		panic("sim: AttachRecorder with a fault injector attached")
	}
	m.recorder = r
	m.arm()
	if r == nil {
		m.space.Image().SetWriteHook(nil)
		return
	}
	m.space.Image().SetWriteHook(r.ObserveWrite)
	m.lastWriteSeq = r.WriteSeq()
}

// InFlightWrite reports the media write in flight at the current crash-clock
// tick, per the attached recorder: the most recent write, valid only when a
// write happened since the previous tick (the same window the live engine's
// ArmTear check uses). It is meaningful inside a fork hook, which runs after
// the tick and before the window is resynchronised.
func (m *Machine) InFlightWrite() (faultmodel.InFlight, bool) {
	if m.recorder == nil || m.recorder.WriteSeq() <= m.lastWriteSeq {
		return faultmodel.InFlight{}, false
	}
	return m.recorder.Last(), true
}

// SetInterrupt installs a check invoked every `every` main-loop accesses
// (0 = DefaultInterruptStride); a non-nil error from fn aborts the run by
// panicking with *Abort. fn = nil disables the check.
func (m *Machine) SetInterrupt(every uint64, fn func() error) {
	if every == 0 {
		every = DefaultInterruptStride
	}
	m.intrFn, m.intrEvery, m.intrAt = fn, every, m.mainAccess+every
	m.arm()
}

// CrashWithFaults simulates power loss on imperfect media: volatile caches
// are dropped, then the attached injector tears the in-flight block and
// applies raw bit errors filtered through ECC. With no injector attached it
// is exactly CrashNow.
func (m *Machine) CrashWithFaults() faultmodel.Injection {
	m.hier.DropAll()
	if m.faults == nil {
		return faultmodel.Injection{}
	}
	return m.faults.ApplyCrash(m.space.Image(), m.space.Extent())
}

// SetCrashAfter arms a crash to fire when the n-th demand access inside the
// main loop is issued (1-based). n = 0 disarms.
func (m *Machine) SetCrashAfter(n uint64) {
	m.crashAt = n
	m.arm()
}

// RearmCrash arms a crash for a recovery run: the crash clock restarts
// counting demand accesses from zero, so n is measured from the start of the
// recomputation rather than from the start of the machine's first life.
// Restart-phase work (Init, RestoreObject, scrubbing) happens outside the
// main loop and never ticks the clock, so the n-th demand access of the
// resumed main loop fires the crash — a second or third power loss striking
// mid-recomputation.
//
// The in-flight-write window is re-synchronised with the attached fault
// injector: media writes issued while restoring objects are long settled by
// the time the recovery's first crash-eligible access runs, so they must not
// be treated as torn-write targets. Iteration and region attribution and all
// cache/NVM state are preserved — the recovery continues on the machine as
// the restart left it. n = 0 resets the clock and disarms.
func (m *Machine) RearmCrash(n uint64) {
	m.setClock(0)
	m.crashAt = n
	m.arm()
	m.resyncWrites()
}

// MainAccesses returns the number of demand accesses issued inside the main
// loop so far. After a golden run this is the size of the crash-point space.
func (m *Machine) MainAccesses() uint64 { return m.mainAccess }

// RegionAccesses returns per-region main-loop access counts (key NoRegion
// holds accesses outside marked regions). The ratios are the a_k weights of
// the paper's Equation 1.
func (m *Machine) RegionAccesses() map[int]uint64 {
	out := make(map[int]uint64)
	for i, v := range m.regionAccess {
		if v != 0 {
			out[i-1] = v
		}
	}
	return out
}

// Iterations returns the number of completed main-loop iterations.
func (m *Machine) Iterations() int64 { return m.iterations }

// The markers enforce their pairing at run time, on every path a kernel
// actually executes: the a_k weights of Equation 1 and every region-end
// flush a policy promises are attributed through them, so a mismatched
// marker panics with *MarkerError instead of skewing a report. MainLoopEnd
// stays idempotent — it is the abort idiom, deferred by every kernel, and it
// closes any open region — so a crash unwinding through it, or Reset, leaves
// a machine that can run again. RunReturned closes the contract where the
// markers cannot see: a Run that returns without error has closed every
// region it opened.

// MarkerError is the panic payload of a broken marker contract: a bug in the
// kernel, not a crash outcome. The campaign engine lets it through recovery
// classification, so it surfaces as an ERR trial.
type MarkerError struct{ msg string }

// Error implements error.
func (e *MarkerError) Error() string { return e.msg }

// MainLoopBegin marks the start of the main computation loop: subsequent
// accesses are crash-eligible and attributed to regions. It panics inside
// the main loop.
func (m *Machine) MainLoopBegin() {
	if m.inMainLoop {
		m.misuse("MainLoopBegin", noArg)
	}
	m.inMainLoop = true
	m.leftOpen = 0
}

// MainLoopEnd marks the end of the main computation loop, closing any open
// region; repeated calls are no-ops.
func (m *Machine) MainLoopEnd() {
	if m.inMainLoop {
		m.leftOpen = m.regionIdx
	}
	m.inMainLoop = false
	m.regionIdx = 0
}

// RunReturned checks, once a kernel's Run has returned err, that a run
// returning without error did not leave MainLoopEnd a region to close: only
// a crash unwinding through the deferred MainLoopEnd, or an abort that
// reports an error, may end the main loop mid-region.
func (m *Machine) RunReturned(err error) {
	if err == nil && m.leftOpen != 0 {
		panic(&MarkerError{fmt.Sprintf("sim: marker contract: Run returned with region %d open in iteration %d", m.leftOpen-1, m.iter)})
	}
}

// BeginIteration records the current main-loop iteration number (0-based).
func (m *Machine) BeginIteration(it int64) { m.iter = it }

// EndIteration invokes the persistence policy for the iteration boundary.
// It panics unless it is the current iteration.
func (m *Machine) EndIteration(it int64) {
	if it != m.iter {
		m.misuse("EndIteration", it)
	}
	m.iterations++
	if m.persister != nil {
		m.persister.IterationEnd(m, it)
	}
}

// BeginRegion marks entry into first-level code region k (0-based,
// k < MaxRegions). It panics while a region is open.
func (m *Machine) BeginRegion(k int) {
	if k < 0 || k >= MaxRegions {
		panic(fmt.Sprintf("sim: region %d out of range [0,%d)", k, MaxRegions))
	}
	if m.regionIdx != 0 {
		m.misuse("BeginRegion", int64(k))
	}
	m.regionIdx = k + 1
}

// EndRegion marks exit from code region k and invokes the persistence
// policy for the region boundary. It panics unless region k is open.
func (m *Machine) EndRegion(k int) {
	if m.regionIdx != k+1 {
		m.misuse("EndRegion", int64(k))
	}
	if m.persister != nil {
		m.persister.RegionEnd(m, k, m.iter)
	}
	m.regionIdx = 0
}

// noArg is misuse's argument for a marker that takes none.
const noArg = -1

// misuse panics because marker(arg) found the machine in a state the
// contract forbids; the message names the open region and the current
// iteration. It stays out of line so the markers carry no formatting.
//
//go:noinline
func (m *Machine) misuse(marker string, arg int64) {
	call := marker + "()"
	if arg != noArg {
		call = fmt.Sprintf("%s(%d)", marker, arg)
	}
	open := "no region open"
	if m.regionIdx != 0 {
		open = fmt.Sprintf("region %d open", m.Region())
	}
	where := "outside"
	if m.inMainLoop {
		where = "inside"
	}
	panic(&MarkerError{fmt.Sprintf("sim: marker contract: %s with %s in iteration %d, %s the main loop", call, open, m.iter, where)})
}

// Region returns the currently active region, or NoRegion.
func (m *Machine) Region() int { return m.regionIdx - 1 }

// tick counts one demand access. It is small enough to inline into every
// typed accessor — just: at inline cost 79 of the compiler's 80, so check
// `go build -gcflags=-m=2 ./internal/sim` still reports "can inline
// (*Machine).tick" after touching it. Whatever can fire or must be
// re-anchored at this tick happens out of line in event.
func (m *Machine) tick() {
	if m.inMainLoop {
		m.mainAccess++
		m.regionAccess[m.regionIdx]++
		if m.mainAccess >= m.nextEvent {
			m.event()
		}
	}
}

// fireAt returns the crash-clock reading at which the armed crash or the
// interrupt check next fires, whichever is earlier (never: the maximum).
func (m *Machine) fireAt() uint64 {
	at := ^uint64(0)
	if m.crashAt != 0 {
		at = m.crashAt
	}
	if m.intrFn != nil && m.intrAt < at {
		at = m.intrAt
	}
	return at
}

// arm recomputes the tick's threshold.
func (m *Machine) arm() {
	m.nextEvent = m.fireAt()
	if m.faults != nil || m.recorder != nil {
		m.nextEvent = 0
	}
}

// setClock moves the crash clock to n; the interrupt stride keeps the
// distance it had left.
func (m *Machine) setClock(n uint64) {
	if m.intrFn != nil {
		m.intrAt += n - m.mainAccess
	}
	m.mainAccess = n
}

// resyncWrites re-anchors the in-flight torn-write window at the attached
// injector's or recorder's current media-write count.
func (m *Machine) resyncWrites() {
	if m.faults != nil {
		m.lastWriteSeq = m.faults.WriteSeq()
	} else if m.recorder != nil {
		m.lastWriteSeq = m.recorder.WriteSeq()
	}
}

// event is the out-of-line half of tick: it fires the armed crash (or its
// fork hook) if reached, re-anchors the write window, runs the interrupt
// check when its stride is up, and leaves the threshold at the next event.
func (m *Machine) event() {
	if m.crashAt != 0 && m.mainAccess >= m.crashAt {
		if m.forkFn != nil {
			// Prefix-sharing mode: hand the would-be crash to the fork hook
			// and keep running toward whatever point it arms next. The hook
			// fires exactly where the panic would — after the crash clock
			// ticked, before the access completes — so a fork taken inside
			// it matches the state a live crash leaves behind.
			m.crashAt = m.forkFn(Crash{Access: m.mainAccess, Region: m.Region(), Iter: m.iter})
		} else {
			m.crashAt = 0
			m.arm()
			if m.faults != nil && m.faults.WriteSeq() > m.lastWriteSeq {
				// A media write (eviction write-back or persistence flush)
				// happened since the previous crash-clock tick: it was in
				// flight when the power failed, so it is the tear target.
				m.faults.ArmTear()
			}
			panic(&Crash{Access: m.mainAccess, Region: m.Region(), Iter: m.iter})
		}
	}
	m.resyncWrites()
	if m.intrFn != nil && m.mainAccess >= m.intrAt {
		m.intrAt = m.mainAccess + m.intrEvery
		m.arm()
		if err := m.intrFn(); err != nil {
			panic(&Abort{Err: err})
		}
	}
	m.arm()
}

// LoadF64 loads a float64 through the cache.
func (m *Machine) LoadF64(addr uint64) float64 {
	m.tick()
	m.hier.Load(0, addr, m.buf[:])
	if m.observer != nil {
		m.observer.Access(addr, 8, false)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(m.buf[:]))
}

// StoreF64 stores a float64 through the cache.
func (m *Machine) StoreF64(addr uint64, v float64) {
	m.tick()
	binary.LittleEndian.PutUint64(m.buf[:], math.Float64bits(v))
	m.hier.Store(0, addr, m.buf[:])
	if m.observer != nil {
		m.observer.Access(addr, 8, true)
	}
}

// LoadI64 loads an int64 through the cache.
func (m *Machine) LoadI64(addr uint64) int64 {
	m.tick()
	m.hier.Load(0, addr, m.buf[:])
	if m.observer != nil {
		m.observer.Access(addr, 8, false)
	}
	return int64(binary.LittleEndian.Uint64(m.buf[:]))
}

// StoreI64 stores an int64 through the cache.
func (m *Machine) StoreI64(addr uint64, v int64) {
	m.tick()
	binary.LittleEndian.PutUint64(m.buf[:], uint64(v))
	m.hier.Store(0, addr, m.buf[:])
	if m.observer != nil {
		m.observer.Access(addr, 8, true)
	}
}

// F64 returns a typed view of an object holding float64 elements.
func (m *Machine) F64(o mem.Object) F64Slice { return F64Slice{m: m, o: o} }

// I64 returns a typed view of an object holding int64 elements.
func (m *Machine) I64(o mem.Object) I64Slice { return I64Slice{m: m, o: o} }

// F64Slice is an array-of-float64 view over a data object; every element
// access is a demand access through the cache.
type F64Slice struct {
	m *Machine
	o mem.Object
}

// Len returns the element count.
func (s F64Slice) Len() int { return int(s.o.Size / 8) }

// At loads element i.
func (s F64Slice) At(i int) float64 { return s.m.LoadF64(s.o.Addr + uint64(i)*8) }

// Set stores element i.
func (s F64Slice) Set(i int, v float64) { s.m.StoreF64(s.o.Addr+uint64(i)*8, v) }

// Object returns the underlying data object.
func (s F64Slice) Object() mem.Object { return s.o }

// I64Slice is an array-of-int64 view over a data object.
type I64Slice struct {
	m *Machine
	o mem.Object
}

// Len returns the element count.
func (s I64Slice) Len() int { return int(s.o.Size / 8) }

// At loads element i.
func (s I64Slice) At(i int) int64 { return s.m.LoadI64(s.o.Addr + uint64(i)*8) }

// Set stores element i.
func (s I64Slice) Set(i int, v int64) { s.m.StoreI64(s.o.Addr+uint64(i)*8, v) }

// Object returns the underlying data object.
func (s I64Slice) Object() mem.Object { return s.o }

// FlushObject persists one data object with the given flush instruction,
// counting one persistence operation. By default flush traffic is not
// demand traffic — it cannot fire crashes and is not attributed to regions —
// unless SetFlushCrashEligible made persistence interruptible.
func (m *Machine) FlushObject(o mem.Object, op cachesim.FlushOp) cachesim.FlushResult {
	r := m.flushRange(o.Addr, o.Size, op)
	m.persist.Operations++
	m.persist.BlocksIssued += r.Blocks
	m.persist.DirtyFlushed += r.DirtyFlushed
	m.persist.CleanFlushed += r.CleanFlushed
	return r
}

// FlushRange persists an arbitrary address range with the given flush
// instruction, counting one persistence operation. It is the primitive for
// workloads whose persistence points live *inside* the computation rather
// than at policy boundaries — e.g. a KV store flushing one WAL record and
// fencing its commit mark before acknowledging a write. Like FlushObject,
// the flush is not demand traffic unless SetFlushCrashEligible made
// persistence interruptible, in which case each flushed block advances the
// crash clock and a crash can strike between the blocks of the range.
//
// FlushRange models flush + fence: when it returns, every media write it
// issued (and everything ordered before it) has drained to the persistence
// domain, so the torn-write window is resynchronised — a crash at the next
// demand access must not tear a block this fence already committed. Without
// the fence semantics no write-ahead protocol could ever ack durably: the
// commit flush itself would stay a tear target until an unrelated later
// access ticked the crash clock. Policy-driven flushing (FlushObject,
// FlushObjects) deliberately keeps the old window: those model unfenced
// boundary flushes whose last write can still be in flight at the crash.
func (m *Machine) FlushRange(addr, size uint64, op cachesim.FlushOp) cachesim.FlushResult {
	r := m.flushRange(addr, size, op)
	m.persist.Operations++
	m.persist.BlocksIssued += r.Blocks
	m.persist.DirtyFlushed += r.DirtyFlushed
	m.persist.CleanFlushed += r.CleanFlushed
	m.resyncWrites()
	return r
}

// flushRange flushes [addr, addr+size), block by block when persistence is
// crash-eligible so an armed crash can strike between block flushes.
func (m *Machine) flushRange(addr, size uint64, op cachesim.FlushOp) cachesim.FlushResult {
	if !m.flushCrashes || size == 0 {
		return m.hier.Flush(addr, size, op)
	}
	var total cachesim.FlushResult
	first := addr &^ (cachesim.BlockSize - 1)
	for blk := first; blk < addr+size; blk += cachesim.BlockSize {
		lo, hi := blk, blk+cachesim.BlockSize
		if lo < addr {
			lo = addr
		}
		if hi > addr+size {
			hi = addr + size
		}
		r := m.hier.Flush(lo, hi-lo, op)
		total.Blocks += r.Blocks
		total.DirtyFlushed += r.DirtyFlushed
		total.CleanFlushed += r.CleanFlushed
		m.tick() // one crash-clock tick per block flush
	}
	return total
}

// FlushObjects persists several objects as one persistence operation (the
// paper counts one "persistence operation" per boundary, covering all
// critical objects flushed there).
func (m *Machine) FlushObjects(objs []mem.Object, op cachesim.FlushOp) cachesim.FlushResult {
	var total cachesim.FlushResult
	for _, o := range objs {
		r := m.flushRange(o.Addr, o.Size, op)
		total.Blocks += r.Blocks
		total.DirtyFlushed += r.DirtyFlushed
		total.CleanFlushed += r.CleanFlushed
	}
	m.persist.Operations++
	m.persist.BlocksIssued += total.Blocks
	m.persist.DirtyFlushed += total.DirtyFlushed
	m.persist.CleanFlushed += total.CleanFlushed
	return total
}

// InconsistencyRate returns the fraction of an object's bytes whose cached
// (architectural) value differs from the durable NVM value — the paper's
// per-object data inconsistent rate at a crash point.
func (m *Machine) InconsistencyRate(o mem.Object) float64 {
	if o.Size == 0 {
		return 0
	}
	return float64(m.hier.DirtyBytesIn(o.Addr, o.Size)) / float64(o.Size)
}

// Crash simulates the machine losing power: all volatile cache contents are
// discarded. The NVM image retains only data that had been written back.
func (m *Machine) CrashNow() { m.hier.DropAll() }

// RestoreObject stores data over the object through the cache in block-sized
// chunks — the restart-time load_value of the paper's Figure 2(b), copying a
// post-crash NVM dump back into a freshly initialised object. It must be
// called outside the main loop (restart phase), so it is not crash-eligible.
func (m *Machine) RestoreObject(o mem.Object, data []byte) {
	if uint64(len(data)) != o.Size {
		panic(fmt.Sprintf("sim: restore size %d != object %s size %d", len(data), o.Name, o.Size))
	}
	for off := uint64(0); off < o.Size; off += cachesim.BlockSize {
		end := off + cachesim.BlockSize
		if end > o.Size {
			end = o.Size
		}
		m.hier.Store(0, o.Addr+off, data[off:end])
	}
}
