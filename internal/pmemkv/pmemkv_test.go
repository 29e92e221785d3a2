package pmemkv_test

import (
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/pmemkv"
	"easycrash/internal/sim"
)

func newMachine(t testing.TB) *sim.Machine {
	t.Helper()
	return sim.NewMachine(64<<20, cachesim.TestConfig())
}

func TestRegistration(t *testing.T) {
	for _, want := range []string{"pmemkv", "pmemkv-bug"} {
		found := false
		for _, n := range apps.Names() {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q not in apps.Names()", want)
		}
		f, err := apps.New(want, apps.ProfileTest)
		if err != nil {
			t.Fatalf("New(%q): %v", want, err)
		}
		k := f()
		if k.Name() != want {
			t.Errorf("kernel %q reports name %q", want, k.Name())
		}
		if _, ok := k.(apps.ConsistencyKernel); !ok {
			t.Errorf("%q does not implement apps.ConsistencyKernel", want)
		}
	}
}

func TestGoldenRunsVerify(t *testing.T) {
	for _, name := range []string{"pmemkv", "pmemkv-bug"} {
		f, _ := apps.New(name, apps.ProfileTest)
		k := f()
		m := newMachine(t)
		k.Setup(m)
		k.Init(m)
		executed, err := k.Run(m, 0, k.NominalIters())
		if err != nil {
			t.Fatalf("%s: golden run failed: %v", name, err)
		}
		if executed != k.NominalIters() {
			t.Fatalf("%s: executed %d of %d", name, executed, k.NominalIters())
		}
		if !k.Verify(m, k.Result(m)) {
			t.Fatalf("%s: golden run does not verify against itself", name)
		}
		if len(m.Space().Candidates()) == 0 {
			t.Fatalf("%s: no candidate objects", name)
		}
		if _, ok := m.Space().Object(apps.IterObjectName); !ok {
			t.Fatalf("%s: no iterator bookmark", name)
		}
		ra := m.RegionAccesses()
		for r := 0; r < k.RegionCount(); r++ {
			if ra[r] == 0 {
				t.Errorf("%s: region %d never executed", name, r)
			}
		}
	}
}

// runToCrash runs the store with a crash armed after n main-loop accesses and
// returns the recovered crash point.
func runToCrash(t *testing.T, s *pmemkv.Store, m *sim.Machine, n uint64) *sim.Crash {
	t.Helper()
	m.SetCrashAfter(n)
	var crash *sim.Crash
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			c, ok := r.(*sim.Crash)
			if !ok {
				panic(r)
			}
			crash = c
		}()
		if _, err := s.Run(m, 0, s.NominalIters()); err != nil {
			t.Errorf("run failed before crash: %v", err)
		}
	}()
	if crash == nil {
		t.Fatal("armed crash never fired")
	}
	return crash
}

// recoverStore mimics the engine's restart path: fresh machine, Setup + Init,
// candidate objects restored from the post-crash image, bookmark set, then
// the store's own PostRestart replay.
func recoverStore(t *testing.T, mk func() *pmemkv.Store, img []byte, from int64) (*pmemkv.Store, *sim.Machine) {
	t.Helper()
	s := mk()
	m := newMachine(t)
	s.Setup(m)
	s.Init(m)
	for _, o := range m.Space().Candidates() {
		m.RestoreObject(o, img[o.Addr:o.Addr+o.Size])
	}
	m.I64(s.IterObject()).Set(0, from)
	s.PostRestart(m, from)
	return s, m
}

func crashDump(m *sim.Machine) []byte {
	m.CrashNow()
	dump := make([]byte, m.Space().Extent())
	m.DurableCopy(dump)
	return dump
}

func TestCorrectStoreSurvivesCrash(t *testing.T) {
	g := pmemkv.New(apps.ProfileTest)
	gm := newMachine(t)
	g.Setup(gm)
	g.Init(gm)
	if _, err := g.Run(gm, 0, g.NominalIters()); err != nil {
		t.Fatal(err)
	}
	ref := g.Result(gm)

	for _, crashAt := range []uint64{64, 777, 1500, 2400} {
		s := pmemkv.New(apps.ProfileTest)
		m := newMachine(t)
		s.Setup(m)
		s.Init(m)
		crash := runToCrash(t, s, m, crashAt)
		j := s.Journal()
		img := crashDump(m)

		r, rm := recoverStore(t, func() *pmemkv.Store { return pmemkv.New(apps.ProfileTest) }, img, crash.Iter)
		a := r.Audit(rm, j)
		if a.Detected != nil {
			t.Fatalf("crashAt %d: recovery failed on clean media: %v", crashAt, a.Detected)
		}
		if len(a.Violations) != 0 {
			t.Fatalf("crashAt %d: correct store violated consistency: %v", crashAt, a.Violations)
		}
		if _, err := r.Run(rm, crash.Iter, r.NominalIters()); err != nil {
			t.Fatalf("crashAt %d: recovered run failed: %v", crashAt, err)
		}
		if !r.Verify(rm, ref) {
			t.Fatalf("crashAt %d: recovered run does not verify against golden", crashAt)
		}
	}
}

func TestOracleCatchesBuggyStore(t *testing.T) {
	caught := false
	for _, crashAt := range []uint64{777, 1500, 2400} {
		s := pmemkv.NewBuggy(apps.ProfileTest)
		m := newMachine(t)
		s.Setup(m)
		s.Init(m)
		crash := runToCrash(t, s, m, crashAt)
		j := s.Journal()
		img := crashDump(m)

		r, rm := recoverStore(t, func() *pmemkv.Store { return pmemkv.NewBuggy(apps.ProfileTest) }, img, crash.Iter)
		a := r.Audit(rm, j)
		if a.Detected != nil {
			t.Fatalf("crashAt %d: buggy store must lose data silently, got detected error: %v", crashAt, a.Detected)
		}
		if len(a.Violations) > 0 {
			caught = true
		}
	}
	if !caught {
		t.Fatal("oracle never caught the missing-flush bug at any crash point")
	}
}

func TestJournalMergeAcrossLives(t *testing.T) {
	// Two crash points of the same workload: the later life acknowledges a
	// superset, and the merged journal must audit clean against a recovery
	// from the later crash.
	s1 := pmemkv.New(apps.ProfileTest)
	m1 := newMachine(t)
	s1.Setup(m1)
	s1.Init(m1)
	runToCrash(t, s1, m1, 300)
	early := s1.Journal()

	s2 := pmemkv.New(apps.ProfileTest)
	m2 := newMachine(t)
	s2.Setup(m2)
	s2.Init(m2)
	crash := runToCrash(t, s2, m2, 1800)
	late := s2.Journal()
	img := crashDump(m2)

	merged := early.Merge(late)
	if merged != late.Merge(early) {
		t.Fatal("journal merge is not symmetric")
	}
	r, rm := recoverStore(t, func() *pmemkv.Store { return pmemkv.New(apps.ProfileTest) }, img, crash.Iter)
	a := r.Audit(rm, merged)
	if a.Detected != nil || len(a.Violations) != 0 {
		t.Fatalf("merged journal audit failed: detected=%v violations=%v", a.Detected, a.Violations)
	}
}
