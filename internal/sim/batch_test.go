package sim

import (
	"bytes"
	"reflect"
	"testing"

	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
)

// batchTestConfig is a deliberately tiny hierarchy: the workload's ~56-block
// footprint overflows the 32-line LLC, so eviction write-backs (the media
// writes that arm torn-write injection) happen throughout the sweep instead
// of never. It also keeps every batched access under constant eviction
// pressure, the hardest regime for the memoized fast paths.
func batchTestConfig() cachesim.Config {
	return cachesim.Config{
		Name: "batch-tiny",
		Levels: []cachesim.LevelConfig{
			{Name: "L1", Size: 512, Ways: 2},
			{Name: "L2", Size: 2 << 10, Ways: 4},
		},
	}
}

// batchObjs holds the workload's objects so crash-recovery reruns reuse the
// allocations instead of re-allocating names.
type batchObjs struct {
	a, b mem.Object
	h    mem.Object
}

func allocBatchObjs(m *Machine) batchObjs {
	s := m.Space()
	return batchObjs{
		a: s.AllocF64("a", 192, true),
		b: s.AllocF64("b", 192, true),
		h: s.AllocI64("h", 64, true),
	}
}

// batchWorkload exercises every batched accessor — float64 and int64 element
// streams, run loads and stores — across regions and iterations, with enough
// inter-array traffic that runs and streams split at block boundaries, region
// transitions and (when armed) the crash tick. In scalar reference mode the
// same code takes the per-element path, so a crash sweep over it proves the
// batched engine access-for-access equivalent.
func batchWorkload(m *Machine, o batchObjs) {
	va, vb, vh := m.F64(o.a), m.F64(o.b), m.I64(o.h)
	sa, sb := m.F64Stream(o.a), m.F64Stream(o.b)
	sh := m.I64Stream(o.h)
	fbuf := make([]float64, 96)
	ibuf := make([]int64, 48)
	m.MainLoopBegin()
	defer m.MainLoopEnd()
	for it := int64(0); it < 2; it++ {
		m.BeginIteration(it)
		m.BeginRegion(0)
		for i := 0; i < sa.Len(); i++ {
			sa.Set(i, float64(i)*1.25+float64(it))
		}
		m.EndRegion(0)
		m.BeginRegion(1)
		for i := 0; i < sb.Len(); i++ {
			sb.Set(i, sa.At(i)-0.5)
		}
		va.LoadRun(0, fbuf)
		vb.StoreRun(96, fbuf)
		m.EndRegion(1)
		m.BeginRegion(2)
		for j := range ibuf {
			ibuf[j] = int64(it)*7 + int64(j)
		}
		vh.StoreRun(0, ibuf)
		vh.LoadRun(16, ibuf)
		for i := 0; i < sh.Len(); i++ {
			sh.Set(i, sh.At(i)+1)
		}
		m.EndRegion(2)
		m.EndIteration(it)
	}
}

// runToCrash arms the crash and runs the workload, returning the caught
// crash, or nil if the run completed.
func runBatchToCrash(m *Machine, o batchObjs, crashAt uint64) (c *Crash) {
	m.SetCrashAfter(crashAt)
	defer func() {
		if r := recover(); r != nil {
			cr, ok := r.(*Crash)
			if !ok {
				panic(r)
			}
			c = cr
		}
	}()
	batchWorkload(m, o)
	return nil
}

// compareImages fails the test unless both machines hold byte-identical
// durable images and poison sets.
func compareImages(t *testing.T, label string, scalar, batched *Machine) {
	t.Helper()
	extent := scalar.Space().Extent()
	if !bytes.Equal(scalar.img.Bytes(0, extent), batched.img.Bytes(0, extent)) {
		t.Fatalf("%s: durable images diverged between scalar and batched runs", label)
	}
	if !reflect.DeepEqual(scalar.img.PoisonedBlocks(), batched.img.PoisonedBlocks()) {
		t.Fatalf("%s: poison sets diverged:\nscalar  %v\nbatched %v",
			label, scalar.img.PoisonedBlocks(), batched.img.PoisonedBlocks())
	}
}

func compareCrashes(t *testing.T, label string, cs, cb *Crash) {
	t.Helper()
	if (cs == nil) != (cb == nil) {
		t.Fatalf("%s: scalar crashed=%v, batched crashed=%v", label, cs != nil, cb != nil)
	}
	if cs != nil && (cs.Access != cb.Access || cs.Region != cb.Region || cs.Iter != cb.Iter) {
		t.Fatalf("%s: crash sites diverged:\nscalar  %+v\nbatched %+v", label, cs, cb)
	}
}

// TestBatchedCrashSweepMatchesScalar crashes the batched workload at every
// single crash-clock tick and demands the scalar reference leave a
// byte-identical durable image, the same crash site and the same cache
// counters. This is the ground-truth equivalence argument for the batched
// engine's split math: a batch that crossed a crash tick, an interrupt
// boundary or a region transition without splitting would fire the crash at
// the wrong access and diverge here.
func TestBatchedCrashSweepMatchesScalar(t *testing.T) {
	scalar := NewMachine(1<<20, batchTestConfig())
	batched := NewMachine(1<<20, batchTestConfig())
	crashed := false
	for crashAt := uint64(1); ; crashAt++ {
		scalar.Reset()
		scalar.SetScalarAccess(true)
		batched.Reset()
		cs := runBatchToCrash(scalar, allocBatchObjs(scalar), crashAt)
		cb := runBatchToCrash(batched, allocBatchObjs(batched), crashAt)
		compareCrashes(t, "sweep", cs, cb)
		if err := batched.Hierarchy().CheckCounters(); err != nil {
			t.Fatalf("crash %d: %v", crashAt, err)
		}
		scalar.CrashNow()
		batched.CrashNow()
		compareImages(t, "sweep", scalar, batched)
		if cs == nil {
			if crashAt == 1 {
				t.Fatal("workload issued no main-loop accesses")
			}
			break // past the last tick: both runs completed
		}
		crashed = true
	}
	if !crashed {
		t.Fatal("sweep never caught a crash")
	}
}

// TestBatchedCrashSweepMatchesScalarWithFaults repeats the every-tick sweep
// on imperfect media: torn writes plus raw bit errors through SECDED ECC.
// The injection draws consume one PRNG step per media write, so any
// divergence in write-back order or in the in-flight torn-write window —
// the subtlest part of the batched runs, which resync the window before the
// final element of each batch — shows up as differing reports or images.
func TestBatchedCrashSweepMatchesScalarWithFaults(t *testing.T) {
	cfg := faultmodel.Config{RBER: 1e-5, TornWrites: true, ECC: faultmodel.SECDED()}
	const seed = 11
	scalar := NewMachine(1<<20, batchTestConfig())
	batched := NewMachine(1<<20, batchTestConfig())
	tore := false
	for crashAt := uint64(1); ; crashAt++ {
		scalar.Reset()
		scalar.SetScalarAccess(true)
		scalar.AttachFaults(faultmodel.New(cfg, seed))
		batched.Reset()
		batched.AttachFaults(faultmodel.New(cfg, seed))
		cs := runBatchToCrash(scalar, allocBatchObjs(scalar), crashAt)
		cb := runBatchToCrash(batched, allocBatchObjs(batched), crashAt)
		compareCrashes(t, "faults sweep", cs, cb)
		rs := scalar.CrashWithFaults()
		rb := batched.CrashWithFaults()
		if rs != rb {
			t.Fatalf("crash %d: injection reports diverged:\nscalar  %+v\nbatched %+v", crashAt, rs, rb)
		}
		if rs.TornWords > 0 {
			tore = true
		}
		compareImages(t, "faults sweep", scalar, batched)
		if cs == nil {
			break
		}
	}
	if !tore {
		t.Fatal("no crash point armed a torn write; the in-flight window went unexercised")
	}
}

// TestBatchedNestedCrashMatchesScalar drives depth-2 failure chains — crash,
// re-arm, crash again during recovery — through a subsampled grid of crash
// pairs, with faults accumulating on the image across both power losses.
func TestBatchedNestedCrashMatchesScalar(t *testing.T) {
	cfg := faultmodel.Config{RBER: 1e-5, TornWrites: true, ECC: faultmodel.SECDED()}
	const seed = 13
	scalar := NewMachine(1<<20, batchTestConfig())
	batched := NewMachine(1<<20, batchTestConfig())

	runPair := func(m *Machine, scalarMode bool, c1, c2 uint64) (first, second *Crash, r1, r2 faultmodel.Injection) {
		m.Reset()
		m.SetScalarAccess(scalarMode)
		m.AttachFaults(faultmodel.New(cfg, seed))
		o := allocBatchObjs(m)
		first = runBatchToCrash(m, o, c1)
		r1 = m.CrashWithFaults()
		if first == nil {
			return
		}
		m.RearmCrash(c2)
		second = runBatchToCrash(m, o, c2)
		r2 = m.CrashWithFaults()
		return
	}

	for c1 := uint64(1); c1 < 2100; c1 += 131 {
		for _, c2 := range []uint64{1, 17, 503} {
			s1, s2, sr1, sr2 := runPair(scalar, true, c1, c2)
			b1, b2, br1, br2 := runPair(batched, false, c1, c2)
			compareCrashes(t, "nested first", s1, b1)
			compareCrashes(t, "nested second", s2, b2)
			if sr1 != br1 || sr2 != br2 {
				t.Fatalf("c1=%d c2=%d: injection reports diverged:\nscalar  %+v / %+v\nbatched %+v / %+v",
					c1, c2, sr1, sr2, br1, br2)
			}
			compareImages(t, "nested", scalar, batched)
		}
	}
}

// TestBatchedInterruptMatchesScalar checks the interrupt boundary split: the
// check must fire on exactly the same accesses in both modes, so the fire
// counts and the final images agree.
func TestBatchedInterruptMatchesScalar(t *testing.T) {
	run := func(scalarMode bool) (fires int, m *Machine) {
		m = NewMachine(1<<20, batchTestConfig())
		m.SetScalarAccess(scalarMode)
		m.SetInterrupt(137, func() error { fires++; return nil })
		batchWorkload(m, allocBatchObjs(m))
		m.CrashNow()
		return fires, m
	}
	sf, sm := run(true)
	bf, bm := run(false)
	if sf == 0 || sf != bf {
		t.Fatalf("interrupt fired %d times scalar, %d batched", sf, bf)
	}
	compareImages(t, "interrupt", sm, bm)
}

// TestStreamFallsBackUnderObserver: with an observer attached, batched views
// must take the scalar path so the observer sees every access.
func TestStreamFallsBackUnderObserver(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 64, true)
	st := m.F64Stream(o)
	v := m.F64(o)
	seen := 0
	m.SetObserver(observerFunc(func(addr uint64, size int, store bool) { seen++ }))
	for i := 0; i < st.Len(); i++ {
		st.Set(i, float64(i))
	}
	buf := make([]float64, 64)
	v.LoadRun(0, buf)
	if seen != 128 {
		t.Fatalf("observer saw %d accesses, want 128", seen)
	}
	for i, got := range buf {
		if got != float64(i) {
			t.Fatalf("buf[%d] = %v", i, got)
		}
	}
}

type observerFunc func(addr uint64, size int, store bool)

func (f observerFunc) Access(addr uint64, size int, store bool) { f(addr, size, store) }
