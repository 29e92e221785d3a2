package sim

import (
	"bytes"
	"reflect"
	"testing"

	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
)

// resetWorkload is a small deterministic kernel: allocate an object, dirty
// it across three marked iterations, flush part of it.
func resetWorkload(m *Machine) {
	o := m.Space().AllocF64("x", 256, true)
	x := m.F64(o)
	m.MainLoopBegin()
	defer m.MainLoopEnd() // a crash unwinds through the abort idiom, as in the kernels
	for it := int64(0); it < 3; it++ {
		m.BeginIteration(it)
		m.BeginRegion(0)
		for j := 0; j < x.Len(); j++ {
			x.Set(j, float64(it)+float64(j))
		}
		m.EndRegion(0)
		m.EndIteration(it)
	}
	m.MainLoopEnd()
	m.FlushObject(o, cachesim.CLWB)
}

type nopObserver struct{ n int }

func (c *nopObserver) Access(addr uint64, size int, store bool) { c.n++ }

// A reset machine must be behaviourally indistinguishable from a fresh one,
// even after a run that armed a crash, attached an observer and left the
// caches dirty.
func TestMachineResetMatchesFresh(t *testing.T) {
	run := func(m *Machine) (uint64, int64, cachesim.Stats, PersistStats, []byte) {
		resetWorkload(m)
		return m.MainAccesses(), m.Iterations(), m.Hierarchy().Stats(), m.PersistStats(), m.Image().Snapshot()
	}

	fresh := newM(t)
	wantAcc, wantIters, wantStats, wantPersist, wantImage := run(fresh)

	m := newM(t)
	// A polluting first life: observer attached, crash armed and fired.
	m.SetObserver(&nopObserver{})
	func() {
		defer func() {
			if _, ok := recover().(*Crash); !ok {
				t.Fatal("armed crash did not fire")
			}
		}()
		m.SetCrashAfter(50)
		resetWorkload(m)
	}()

	m.Reset()
	if m.MainAccesses() != 0 || m.Iterations() != 0 || m.Region() != NoRegion {
		t.Fatal("Reset left instrumentation state behind")
	}
	gotAcc, gotIters, gotStats, gotPersist, gotImage := run(m)
	if gotAcc != wantAcc || gotIters != wantIters {
		t.Fatalf("accesses/iterations after reset = %d/%d, fresh = %d/%d", gotAcc, gotIters, wantAcc, wantIters)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("cache stats after reset differ:\n got  %+v\n want %+v", gotStats, wantStats)
	}
	if gotPersist != wantPersist {
		t.Fatalf("persist stats after reset differ: %+v vs %+v", gotPersist, wantPersist)
	}
	if !bytes.Equal(gotImage, wantImage) {
		t.Fatal("durable image after reset differs from a fresh machine")
	}
	if m.RegionAccesses()[0] != fresh.RegionAccesses()[0] {
		t.Fatal("region attribution after reset differs")
	}
}

// The nested-failure machinery adds pooled-machine state a first life can
// leave behind: an attached fault injector (wear counters, in-flight write
// window), an interrupt hook, a re-armed crash clock, and crash-eligible
// flush accounting. A machine recycled after all of that must still be
// byte-identical to a fresh one.
func TestMachineResetClearsNestedMachinery(t *testing.T) {
	run := func(m *Machine) (uint64, cachesim.Stats, []byte) {
		resetWorkload(m)
		return m.MainAccesses(), m.Hierarchy().Stats(), m.Image().Snapshot()
	}

	fresh := newM(t)
	wantAcc, wantStats, wantImage := run(fresh)

	m := newM(t)
	// A polluting first life exercising the whole nested-trial surface:
	// media faults attached, flushes crash-eligible, an interrupt hook, a
	// crash, a restore, a re-armed second crash with fault injection.
	inj := faultmodel.New(faultmodel.Config{TornWrites: true, RBER: 1e-4}, 99)
	m.AttachFaults(inj)
	m.SetFlushCrashEligible(true)
	m.SetInterrupt(1000, func() error { return nil })
	func() {
		defer func() {
			if _, ok := recover().(*Crash); !ok {
				t.Fatal("armed crash did not fire")
			}
		}()
		m.SetCrashAfter(40)
		resetWorkload(m)
	}()
	m.CrashWithFaults()
	o := m.Space().MustObject("x")
	dump := m.Image().Snapshot()
	m.Image().Restore(dump)
	m.RestoreObject(o, dump[o.Addr:o.End()])
	m.RearmCrash(5)
	func() {
		defer func() {
			if _, ok := recover().(*Crash); !ok {
				t.Fatal("re-armed crash did not fire")
			}
		}()
		x := m.F64(o)
		m.MainLoopBegin()
		m.BeginIteration(0)
		for j := 0; j < x.Len(); j++ {
			x.Set(j, float64(j))
		}
		m.MainLoopEnd()
	}()
	m.CrashWithFaults()

	m.Reset()
	if m.MainAccesses() != 0 || m.Iterations() != 0 {
		t.Fatal("Reset left crash-clock state behind")
	}
	gotAcc, gotStats, gotImage := run(m)
	if gotAcc != wantAcc {
		t.Fatalf("accesses after nested reset = %d, fresh = %d (leaked interrupt hook, flush eligibility or crash clock)", gotAcc, wantAcc)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("cache stats after nested reset differ:\n got  %+v\n want %+v", gotStats, wantStats)
	}
	if !bytes.Equal(gotImage, wantImage) {
		t.Fatal("durable image after nested reset differs from a fresh machine (leaked faults, poison or wear)")
	}
}

// InconsistencyRate is the campaign's postmortem; it must classify a dirty
// object over poisoned media as inconsistent instead of escaping with the
// image's media-error panic.
func TestInconsistencyRateSurvivesPoisonedBacking(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 8, true)
	m.MainLoopBegin()
	m.F64(o).Set(0, 1.5)
	m.MainLoopEnd()
	m.Image().PoisonBlock(o.Addr)
	if r := m.InconsistencyRate(o); r != 1 {
		t.Fatalf("InconsistencyRate over poisoned dirty block = %v, want 1", r)
	}
}
