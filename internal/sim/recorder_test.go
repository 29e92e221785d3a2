package sim

import (
	"bytes"
	"reflect"
	"testing"

	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
)

// streamWrites streams a working set several times the test LLC through the
// machine so media write-backs are constant, stopping after the crash clock
// has seen at least total main accesses (the fork hook keeps the run alive
// past the armed point).
func streamWrites(m *Machine, total int) {
	o := m.Space().AllocF64("x", 16384, true)
	v := m.F64(o)
	m.MainLoopBegin()
	defer m.MainLoopEnd()
	for n, i := 0, 0; n < total; n, i = n+1, (i+1)%v.Len() {
		v.Set(i, float64(n))
	}
}

func TestAttachRecorderExcludesInjector(t *testing.T) {
	m := newM(t)
	m.AttachFaults(faultmodel.New(faultmodel.Config{TornWrites: true}, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("AttachRecorder with an injector attached did not panic")
		}
	}()
	m.AttachRecorder(&faultmodel.Recorder{})
}

func TestInFlightWriteWindowInsideForkHook(t *testing.T) {
	m := NewMachine(1<<20, cachesim.TestConfig())
	rec := &faultmodel.Recorder{}
	m.AttachRecorder(rec)
	// The in-flight window covers exactly the current crash-clock tick: a
	// write is in flight only when the armed access itself pushed one to the
	// media. Arm every access and count how often that happens.
	fired, withWrite := 0, 0
	m.SetForkHook(func(c Crash) uint64 {
		fired++
		if w, ok := m.InFlightWrite(); ok {
			withWrite++
			if w.Base >= m.Space().Extent() {
				t.Fatalf("in-flight base %#x beyond extent %#x", w.Base, m.Space().Extent())
			}
		}
		return c.Access + 1
	})
	m.SetCrashAfter(1)
	streamWrites(m, 30000)
	if fired == 0 {
		t.Fatal("fork hook never fired")
	}
	if rec.WriteSeq() == 0 {
		t.Fatal("recorder observed no media writes despite cache evictions")
	}
	// With a 128 KiB streamed working set against the 32 KiB test L3,
	// write-backs are constant: a good fraction of ticks must have had a
	// write in flight, and never all of them (the first cold-cache accesses
	// fill without evicting).
	if withWrite == 0 {
		t.Fatal("no fork point ever had a write in flight despite constant evictions")
	}
	if withWrite == fired {
		t.Fatal("every fork point had a write in flight; the window is not being resynced")
	}
	// Outside the hook the window is resynced at every crash-clock tick, so
	// no write is in flight any more.
	if _, ok := m.InFlightWrite(); ok {
		t.Fatal("InFlightWrite reports a stale write outside the fork hook")
	}
}

// TestReplayCrashMatchesLiveInjection is the unit-level determinism argument
// behind faults-on prefix sharing: a live machine with a trial's injector
// attached, and a reference machine with an inert recorder forked at the same
// point plus ReplayCrash on the branch, must leave byte-identical durable
// images — tear target, bit flips, poison set and injection report all equal.
func TestReplayCrashMatchesLiveInjection(t *testing.T) {
	cfg := faultmodel.Config{RBER: 1e-5, TornWrites: true, ECC: faultmodel.SECDED()}
	const seed = 7

	// Sweep a window of crash points so both window states are exercised:
	// some points catch a write in flight (the tear path), some do not.
	sawInflight := false
	for crashAt := uint64(20000); crashAt < 20016; crashAt++ {
		// Live: the injector observes every write itself and the crash
		// panic arms the tear at the fire point.
		live := NewMachine(1<<20, cachesim.TestConfig())
		injLive := faultmodel.New(cfg, seed)
		live.AttachFaults(injLive)
		live.SetCrashAfter(crashAt)
		func() {
			defer func() {
				if _, ok := recover().(*Crash); !ok {
					t.Fatal("live crash did not fire")
				}
			}()
			streamWrites(live, 30000)
		}()
		repLive := live.CrashWithFaults()
		extent := live.Space().Extent()

		// Reference: same execution, inert recorder, fork at the same point.
		ref := NewMachine(1<<20, cachesim.TestConfig())
		ref.AttachRecorder(&faultmodel.Recorder{})
		var snap *Snapshot
		var inflight *faultmodel.InFlight
		ref.SetForkHook(func(c Crash) uint64 {
			snap = ref.Fork()
			if w, ok := ref.InFlightWrite(); ok {
				w := w
				inflight = &w
			}
			return 0
		})
		ref.SetCrashAfter(crashAt)
		streamWrites(ref, 30000)
		if snap == nil {
			t.Fatal("reference fork never fired")
		}
		if inflight != nil {
			sawInflight = true
		}

		// Branch: resume the fork, lose power, replay the trial's draws.
		branch := NewMachine(1<<20, cachesim.TestConfig())
		branch.ResumeFrom(snap)
		repReplay := branch.ReplayCrash(faultmodel.New(cfg, seed), extent, inflight)

		if repLive != repReplay {
			t.Fatalf("crash %d: injection reports diverged:\nlive   %+v\nreplay %+v", crashAt, repLive, repReplay)
		}
		if !bytes.Equal(live.img.Bytes(0, extent), branch.img.Bytes(0, extent)) {
			t.Fatalf("crash %d: durable images diverged between live injection and replay", crashAt)
		}
		if !reflect.DeepEqual(live.img.PoisonedBlocks(), branch.img.PoisonedBlocks()) {
			t.Fatalf("crash %d: poison sets diverged:\nlive   %v\nreplay %v",
				crashAt, live.img.PoisonedBlocks(), branch.img.PoisonedBlocks())
		}
	}
	if !sawInflight {
		t.Fatal("no crash point in the sweep caught a write in flight; the tear path went untested")
	}
}
