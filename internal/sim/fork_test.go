package sim

import (
	"bytes"
	"testing"

	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
	"easycrash/internal/mem"
)

// forkWorkload runs a synthetic multi-iteration kernel on m: two objects, a
// per-iteration stencil over one and a reduction into the other, with a
// region boundary. Deterministic given the machine state.
func forkWorkload(m *Machine, iters int) {
	a := m.Space().MustObject("a")
	s := m.Space().MustObject("s")
	av, sv := m.F64(a), m.F64(s)
	m.MainLoopBegin()
	for it := 0; it < iters; it++ {
		m.BeginIteration(int64(it))
		m.BeginRegion(0)
		for i := 1; i < av.Len()-1; i++ {
			av.Set(i, 0.5*av.At(i-1)+0.25*av.At(i)+0.25*av.At(i+1)+1)
		}
		m.EndRegion(0)
		m.BeginRegion(1)
		var sum float64
		for i := 0; i < av.Len(); i += 7 {
			sum += av.At(i)
		}
		sv.Set(it%sv.Len(), sum)
		m.EndRegion(1)
		m.EndIteration(int64(it))
	}
	m.MainLoopEnd()
}

func allocForkObjects(m *Machine) {
	m.Space().AllocF64("a", 1200, true)
	m.Space().AllocF64("s", 64, true)
}

// crashState is everything a postmortem reads off a crashed machine.
type crashState struct {
	crash   Crash
	access  uint64
	iters   int64
	persist PersistStats
	rateA   float64
	rateS   float64
	image   []byte
}

// liveCrash runs the workload on a fresh machine armed to crash at point p
// and captures the post-crash state.
func liveCrash(t *testing.T, p uint64, iters int) crashState {
	t.Helper()
	m := NewMachine(1<<20, cachesim.TestConfig())
	allocForkObjects(m)
	m.SetCrashAfter(p)
	st, ok := runToCrash(m, iters)
	if !ok {
		t.Fatalf("no crash fired at point %d", p)
	}
	return st
}

func runToCrash(m *Machine, iters int) (st crashState, crashed bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		c, ok := r.(*Crash)
		if !ok {
			panic(r)
		}
		crashed = true
		st = postmortem(m, *c)
	}()
	forkWorkload(m, iters)
	return
}

func postmortem(m *Machine, c Crash) crashState {
	a := m.Space().MustObject("a")
	s := m.Space().MustObject("s")
	st := crashState{
		crash:   c,
		access:  m.MainAccesses(),
		iters:   m.Iterations(),
		persist: m.PersistStats(),
		rateA:   m.InconsistencyRate(a),
		rateS:   m.InconsistencyRate(s),
	}
	m.CrashNow()
	st.image = append([]byte(nil), m.img.Bytes(0, m.Space().Extent())...)
	return st
}

// forkedPostmortem resumes the snapshot on dst and runs the same postmortem a
// live crash would.
func forkedPostmortem(dst *Machine, snap *Snapshot, c Crash, a, s mem.Object) crashState {
	dst.ResumeFrom(snap)
	st := crashState{
		crash:   c,
		access:  dst.MainAccesses(),
		iters:   dst.Iterations(),
		persist: dst.PersistStats(),
		rateA:   dst.InconsistencyRate(a),
		rateS:   dst.InconsistencyRate(s),
	}
	dst.CrashNow()
	st.image = append([]byte(nil), dst.img.Bytes(0, snap.img.Extent())...)
	return st
}

func sameCrashState(t *testing.T, p uint64, live, forked crashState) {
	t.Helper()
	if live.crash != forked.crash {
		t.Fatalf("point %d: crash payload %+v vs %+v", p, live.crash, forked.crash)
	}
	if live.access != forked.access || live.iters != forked.iters || live.persist != forked.persist {
		t.Fatalf("point %d: clock state diverged: live {acc %d it %d %+v} forked {acc %d it %d %+v}",
			p, live.access, live.iters, live.persist, forked.access, forked.iters, forked.persist)
	}
	if live.rateA != forked.rateA || live.rateS != forked.rateS {
		t.Fatalf("point %d: inconsistency rates diverged: live (%v, %v) forked (%v, %v)",
			p, live.rateA, live.rateS, forked.rateA, forked.rateS)
	}
	if !bytes.Equal(live.image, forked.image) {
		t.Fatalf("point %d: post-crash NVM images differ", p)
	}
}

// TestForkMatchesLiveCrash is the machine-level core of the prefix-sharing
// equivalence property: one reference run visits several crash points via the
// fork hook, and each fork's postmortem must be byte-identical to a live run
// crashed at that point — including when forks are resumed on one recycled
// machine (pooled-worker reuse) and on machines resumed out of order.
func TestForkMatchesLiveCrash(t *testing.T) {
	const iters = 6
	points := []uint64{1, 37, 500, 2000, 7777, 20011}

	ref := NewMachine(1<<20, cachesim.TestConfig())
	allocForkObjects(ref)
	snaps := make(map[uint64]*Snapshot)
	crashes := make(map[uint64]Crash)
	idx := 0
	ref.SetCrashAfter(points[0])
	ref.SetForkHook(func(c Crash) uint64 {
		snaps[points[idx]] = ref.Fork()
		crashes[points[idx]] = c
		idx++
		if idx == len(points) {
			return 0
		}
		return points[idx]
	})
	forkWorkload(ref, iters)
	if len(snaps) != len(points) {
		t.Fatalf("reference run forked %d of %d points", len(snaps), len(points))
	}

	a := ref.Space().MustObject("a")
	s := ref.Space().MustObject("s")
	worker := NewMachine(1<<20, cachesim.TestConfig())
	// Resume in reverse order on one recycled machine: order independence
	// and pooled reuse in one pass.
	for i := len(points) - 1; i >= 0; i-- {
		p := points[i]
		worker.Reset()
		forked := forkedPostmortem(worker, snaps[p], crashes[p], a, s)
		sameCrashState(t, p, liveCrash(t, p, iters), forked)
	}
}

// TestForkHookReferenceCompletesRun checks the reference machine, having
// served all fork points, finishes the run with the same final state as an
// uninstrumented run.
func TestForkHookReferenceCompletesRun(t *testing.T) {
	const iters = 4
	plain := NewMachine(1<<20, cachesim.TestConfig())
	allocForkObjects(plain)
	forkWorkload(plain, iters)

	ref := NewMachine(1<<20, cachesim.TestConfig())
	allocForkObjects(ref)
	ref.SetCrashAfter(100)
	ref.SetForkHook(func(c Crash) uint64 {
		ref.Fork()
		if c.Access < 5000 {
			return c.Access + 1000
		}
		return 0
	})
	forkWorkload(ref, iters)

	if plain.MainAccesses() != ref.MainAccesses() || plain.Iterations() != ref.Iterations() {
		t.Fatalf("reference run diverged: %d/%d accesses, %d/%d iterations",
			ref.MainAccesses(), plain.MainAccesses(), ref.Iterations(), plain.Iterations())
	}
	ext := plain.Space().Extent()
	pa := make([]byte, ext)
	ra := make([]byte, ext)
	plain.Hierarchy().ArchValue(0, pa)
	ref.Hierarchy().ArchValue(0, ra)
	if !bytes.Equal(pa, ra) {
		t.Fatal("reference architectural state diverged from uninstrumented run")
	}
}

func TestForkPanicsWithFaultsAttached(t *testing.T) {
	m := newM(t)
	m.AttachFaults(faultmodel.New(faultmodel.Config{TornWrites: true}, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("Fork with fault injector attached did not panic")
		}
	}()
	m.Fork()
}

func TestResetClearsForkMachinery(t *testing.T) {
	src := NewMachine(1<<20, cachesim.TestConfig())
	allocForkObjects(src)
	src.SetCrashAfter(123)
	var snap *Snapshot
	src.SetForkHook(func(c Crash) uint64 {
		snap = src.Fork()
		return 0
	})
	forkWorkload(src, 2)

	m := NewMachine(1<<20, cachesim.TestConfig())
	m.ResumeFrom(snap)
	if m.MainAccesses() == 0 {
		t.Fatal("resume restored nothing")
	}
	m.Reset()
	if m.MainAccesses() != 0 || m.resumeExtent != 0 || m.forkFn != nil {
		t.Fatal("Reset left fork state behind")
	}
	// The restored image prefix must be cleared even though this machine's
	// own space allocated nothing.
	for _, b := range m.img.Bytes(0, snap.img.Extent()) {
		if b != 0 {
			t.Fatal("Reset left restored image bytes behind")
		}
	}
}
