package sim

import (
	"testing"

	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
)

// nestedWorkload runs a small main loop from iteration `from`, returning the
// number of demand accesses it would issue uninterrupted.
func nestedWorkload(m *Machine, o F64Slice, from int64) {
	m.MainLoopBegin()
	defer m.MainLoopEnd() // a crash unwinds through the abort idiom, as in the kernels
	for it := from; it < 4; it++ {
		m.BeginIteration(it)
		m.BeginRegion(0)
		for j := 0; j < o.Len(); j++ {
			o.Set(j, float64(it)+float64(j))
		}
		m.EndRegion(0)
		m.EndIteration(it)
	}
}

// A re-armed crash must count demand accesses from the start of the recovery
// run, not from the machine's first life: RearmCrash(n) fires at the n-th
// access after the restart, regardless of how many accesses preceded the
// first crash.
func TestRearmCrashCountsFromRecoveryStart(t *testing.T) {
	m := newM(t)
	o := m.F64(m.Space().AllocF64("x", 32, true))

	catchCrash := func(fn func()) *Crash {
		var c *Crash
		func() {
			defer func() {
				if r := recover(); r != nil {
					crash, ok := r.(*Crash)
					if !ok {
						panic(r)
					}
					c = crash
				}
			}()
			fn()
		}()
		return c
	}

	m.SetCrashAfter(50)
	first := catchCrash(func() { nestedWorkload(m, o, 0) })
	if first == nil || first.Access != 50 {
		t.Fatalf("first crash = %+v, want access 50", first)
	}

	// Power loss, then a restart-phase restore outside the main loop: none
	// of this may tick the crash clock.
	m.CrashNow()
	dump := m.Image().Snapshot()
	m.RestoreObject(o.Object(), dump[o.Object().Addr:o.Object().End()])

	m.RearmCrash(20)
	if m.MainAccesses() != 0 {
		t.Fatalf("RearmCrash left the crash clock at %d, want 0", m.MainAccesses())
	}
	second := catchCrash(func() { nestedWorkload(m, o, 1) })
	if second == nil || second.Access != 20 {
		t.Fatalf("re-armed crash = %+v, want access 20 of the recovery run", second)
	}

	// RearmCrash(0) resets and disarms: the next recovery completes.
	m.RearmCrash(0)
	if done := catchCrash(func() { nestedWorkload(m, o, 1) }); done != nil {
		t.Fatalf("disarmed recovery crashed: %+v", done)
	}
}

// RearmCrash must re-synchronise the torn-write window with the attached
// injector: restore-phase write-backs are settled by the time the recovery's
// first access runs, so a crash on that first access must not arm a tear.
// Media faults injected on successive power losses accumulate on the image
// through the one injector the trial owns.
func TestRearmCrashResyncsInFlightWindow(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 32, true)
	inj := faultmodel.New(faultmodel.Config{TornWrites: true}, 1)
	m.AttachFaults(inj)
	x := m.F64(o)

	m.SetCrashAfter(40)
	func() {
		defer func() {
			if _, ok := recover().(*Crash); !ok {
				t.Fatal("armed crash did not fire")
			}
		}()
		nestedWorkload(m, x, 0)
	}()
	m.CrashWithFaults()

	// Restart phase: flush the restored object so media writes land after
	// the crash, then re-arm. Those writes are not in flight at the first
	// recovery access, so a tear must not be armed for them.
	dump := m.Image().Snapshot()
	m.RestoreObject(o, dump[o.Addr:o.End()])
	m.FlushObject(o, cachesim.CLWB)
	before := inj.WriteSeq()
	if before == 0 {
		t.Fatal("restore-phase flush produced no media writes; test premise broken")
	}

	m.RearmCrash(1)
	func() {
		defer func() {
			if _, ok := recover().(*Crash); !ok {
				t.Fatal("re-armed crash did not fire")
			}
		}()
		m.MainLoopBegin()
		m.BeginIteration(1)
		_ = x.At(0) // first recovery access: no media write since rearm
		m.MainLoopEnd()
	}()
	if got := m.CrashWithFaults(); got.TornWords != 0 {
		t.Fatalf("second crash tore %d words of a settled restore write, want 0", got.TornWords)
	}
}

// The inlined tick looks at one threshold only, so every call that moves the
// armed crash, the interrupt stride, the crash clock or the attached
// injector/recorder must leave nextEvent at the next thing that can happen:
// the earlier of the crash and the interrupt check, or every tick while a
// write window needs re-anchoring. The interrupt stride must also survive
// the clock moves of RearmCrash and ResumeFrom with the distance it had left.
func TestTickThresholdStaysCoherent(t *testing.T) {
	m := newM(t)
	x := m.F64(m.Space().AllocF64("x", 64, true))
	const never = ^uint64(0)
	check := func(m *Machine, when string, want uint64) {
		t.Helper()
		if m.nextEvent != want {
			t.Fatalf("%s: nextEvent = %d, want %d", when, m.nextEvent, want)
		}
	}
	check(m, "fresh machine", never)

	var fired []uint64
	poll := func() error { fired = append(fired, m.MainAccesses()); return nil }
	m.SetInterrupt(10, poll)
	check(m, "interrupt every 10", 10)
	m.SetCrashAfter(25)
	check(m, "crash armed behind the interrupt", 10)

	m.MainLoopBegin()
	buf := make([]float64, 17)
	x.LoadRun(0, buf) // batches split around the check on the 10th tick
	check(m, "17 batched ticks in", 20)

	// A recovery run: the clock restarts, the stride keeps its 3 ticks.
	m.RearmCrash(5)
	check(m, "re-armed for the recovery", 3)
	x.LoadRun(0, buf[:4])
	check(m, "4 recovery ticks in", 5)
	func() {
		defer func() {
			if c, ok := recover().(*Crash); !ok || c.Access != 5 {
				t.Fatalf("recovered %v, want the crash at recovery access 5", c)
			}
		}()
		x.At(0)
	}()
	check(m, "after the crash fired", 13)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 3 {
		t.Fatalf("interrupt checks ran at clock readings %v, want [10 3]", fired)
	}

	m.AttachFaults(faultmodel.New(faultmodel.Config{TornWrites: true}, 1))
	check(m, "injector attached", 0)
	m.AttachFaults(nil)
	check(m, "injector detached", 13)
	m.AttachRecorder(&faultmodel.Recorder{})
	check(m, "recorder attached", 0)
	m.AttachRecorder(nil)
	check(m, "recorder detached", 13)

	// A snapshot taken at clock reading 5 moves the resuming machine's
	// clock there; its own stride comes along.
	r := newM(t)
	r.SetInterrupt(100, func() error { return nil })
	r.ResumeFrom(m.Fork())
	check(r, "resumed at clock reading 5", 105)
	r.Reset()
	check(r, "reset", never)
}
