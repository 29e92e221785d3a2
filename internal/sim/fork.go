package sim

import (
	"easycrash/internal/cachesim"
	"easycrash/internal/mem"
)

// Snapshot is a forked copy of a machine's full simulated state at one
// instant: the durable image (as a copy-on-write mem fork bounded by the
// space's allocation extent), the volatile cache hierarchy, and the crash
// clock (access counts, region/iteration attribution, persistence counters).
// It is immutable and safe to resume on several machines concurrently.
//
// A Snapshot deliberately omits the object-space registry, the persister, the
// observer and the interrupt hook: a resumed machine is used for postmortem
// analysis (inconsistency rates over known object bounds, drains, crash
// dumps), not for continuing kernel execution, so it needs the state a crash
// leaves behind, not the wiring of a live run.
type Snapshot struct {
	img  *mem.ImageSnapshot
	hier *cachesim.Snapshot

	inMainLoop   bool
	mainAccess   uint64
	regionIdx    int
	iter         int64
	regionAccess [MaxRegions + 1]uint64
	iterations   int64
	persist      PersistStats
}

// ForkHook is invoked by the crash clock in place of the crash panic: the
// armed point has been reached (c carries what the Crash panic would have),
// the hook captures whatever it needs — typically via Fork — and returns the
// next access count to arm (0 disarms). The run then continues normally, so
// one reference execution can visit every crash point of a campaign shard in
// ascending order without ever unwinding the kernel's stack.
type ForkHook func(c Crash) (next uint64)

// SetForkHook installs fn as the crash clock's fork hook (nil restores the
// normal panic delivery). While a hook is installed, reaching the armed point
// calls the hook instead of panicking.
func (m *Machine) SetForkHook(fn ForkHook) { m.forkFn = fn }

// Fork snapshots the machine's simulated state. Only legal with no fault
// injector attached: an injector mutates the durable image at crash time, so
// a forked prefix must be clean of injections — fault campaigns share the
// prefix by attaching a Recorder (which observes writes but injects nothing)
// and replaying each trial's injections on the branch after the fork.
// Panics if an injector is attached (a programming error in the engine, not
// a runtime condition).
func (m *Machine) Fork() *Snapshot {
	if m.faults != nil {
		panic("sim: Fork with a fault injector attached (prefix sharing requires inert media)")
	}
	return &Snapshot{
		img:          m.img.Fork(m.space.Extent()),
		hier:         m.hier.Snapshot(),
		inMainLoop:   m.inMainLoop,
		mainAccess:   m.mainAccess,
		regionIdx:    m.regionIdx,
		iter:         m.iter,
		regionAccess: m.regionAccess,
		iterations:   m.iterations,
		persist:      m.persist,
	}
}

// ResumeFrom restores a forked snapshot into a freshly Reset (or just
// constructed) machine: durable image, cache hierarchy and crash clock become
// state-identical to the forked machine at its fork point. The crash is left
// disarmed and no persister, observer, faults or hooks are attached — the
// caller drives the postmortem explicitly. The machine remembers the restored
// image extent so a later Reset clears it even though the recycled machine's
// own space never allocated anything.
func (m *Machine) ResumeFrom(s *Snapshot) {
	m.img.RestoreSnapshot(s.img)
	m.hier.ResumeFrom(s.hier)
	m.dropClock = 0
	m.inMainLoop = s.inMainLoop
	m.setClock(s.mainAccess)
	m.crashAt = 0
	m.arm()
	m.regionIdx = s.regionIdx
	m.iter = s.iter
	m.regionAccess = s.regionAccess
	m.iterations = s.iterations
	m.persist = s.persist
	if e := s.img.Extent(); e > m.resumeExtent {
		m.resumeExtent = e
	}
}
