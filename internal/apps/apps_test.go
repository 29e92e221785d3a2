package apps_test

import (
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/sim"
)

func newMachine(t testing.TB) *sim.Machine {
	t.Helper()
	return sim.NewMachine(64<<20, cachesim.TestConfig())
}

func TestNamesAndFactories(t *testing.T) {
	names := apps.Names()
	if len(names) != 11 {
		t.Fatalf("Names() has %d kernels, want 11", len(names))
	}
	for _, name := range names {
		f, err := apps.New(name, apps.ProfileTest)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		k := f()
		if k.Name() != name {
			t.Errorf("kernel %q reports name %q", name, k.Name())
		}
		if k.Description() == "" {
			t.Errorf("kernel %q has empty description", name)
		}
	}
	if _, err := apps.New("nope", apps.ProfileTest); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// expected Table-1 characteristics per kernel.
var kernelShape = map[string]struct {
	regions    int
	convergent bool
}{
	"cg":       {6, true},
	"mg":       {4, false},
	"ft":       {4, false},
	"is":       {8, false},
	"bt":       {15, false},
	"lu":       {4, false},
	"sp":       {16, false},
	"ep":       {2, false},
	"botsspar": {4, false},
	"lulesh":   {4, false},
	"kmeans":   {1, true},
}

func TestKernelShapes(t *testing.T) {
	for name, want := range kernelShape {
		f, _ := apps.New(name, apps.ProfileTest)
		k := f()
		if got := k.RegionCount(); got != want.regions {
			t.Errorf("%s: RegionCount = %d, want %d (Table 1)", name, got, want.regions)
		}
		if got := k.Convergent(); got != want.convergent {
			t.Errorf("%s: Convergent = %v, want %v", name, got, want.convergent)
		}
		if k.NominalIters() <= 0 {
			t.Errorf("%s: NominalIters = %d", name, k.NominalIters())
		}
	}
}

// runGolden runs a kernel to completion on a fresh machine.
func runGolden(t *testing.T, name string, p apps.Profile) (apps.Kernel, *sim.Machine, int64) {
	t.Helper()
	f, err := apps.New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	k := f()
	m := newMachine(t)
	k.Setup(m)
	k.Init(m)
	executed, err := k.Run(m, 0, 2*k.NominalIters())
	if err != nil {
		t.Fatalf("%s: golden run failed: %v", name, err)
	}
	return k, m, executed
}

func TestGoldenRunsVerify(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, m, executed := runGolden(t, name, apps.ProfileTest)
			if executed <= 0 || executed > 2*k.NominalIters() {
				t.Fatalf("executed %d of nominal %d", executed, k.NominalIters())
			}
			res := k.Result(m)
			if len(res) == 0 {
				t.Fatal("empty result")
			}
			if !k.Verify(m, res) {
				t.Fatal("golden run does not verify against itself")
			}
			// Structural checks the paper's methodology relies on.
			if len(m.Space().Candidates()) == 0 {
				t.Fatal("kernel registered no candidate objects")
			}
			if _, ok := m.Space().Object(apps.IterObjectName); !ok {
				t.Fatal("kernel did not allocate the iterator bookmark")
			}
			if m.MainAccesses() == 0 {
				t.Fatal("no main-loop accesses recorded")
			}
			// Every marked region must be exercised.
			ra := m.RegionAccesses()
			for r := 0; r < k.RegionCount(); r++ {
				if ra[r] == 0 {
					t.Errorf("region %d never executed", r)
				}
			}
			for r := range ra {
				if r >= k.RegionCount() {
					t.Errorf("unexpected region id %d (RegionCount %d)", r, k.RegionCount())
				}
			}
		})
	}
}

func TestGoldenRunsDeterministic(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, m1, e1 := runGolden(t, name, apps.ProfileTest)
			k2, m2, e2 := runGolden(t, name, apps.ProfileTest)
			if e1 != e2 {
				t.Fatalf("iteration counts differ: %d vs %d", e1, e2)
			}
			r1, r2 := k2.Result(m1), k2.Result(m2)
			for i := range r1 {
				if r1[i] != r2[i] {
					t.Fatalf("result[%d] differs: %v vs %v", i, r1[i], r2[i])
				}
			}
			if m1.MainAccesses() != m2.MainAccesses() {
				t.Fatalf("access counts differ: %d vs %d", m1.MainAccesses(), m2.MainAccesses())
			}
		})
	}
}

func TestFootprintsExceedTestLLC(t *testing.T) {
	llc := uint64(cachesim.TestConfig().Levels[2].Size)
	for _, name := range apps.Names() {
		f, _ := apps.New(name, apps.ProfileTest)
		k := f()
		m := newMachine(t)
		k.Setup(m)
		// The paper chooses inputs whose footprints exceed the LLC;
		// LULESH intentionally sits at the boundary (§8's small-footprint
		// discussion inverted), EP's live set is its histogram.
		if fp := m.Space().Footprint(); fp < llc {
			t.Errorf("%s: footprint %d below LLC %d", name, fp, llc)
		}
	}
}

func TestResumeMatchesUninterruptedRun(t *testing.T) {
	// Splitting a run at an iteration boundary on the SAME machine must
	// reproduce the uninterrupted trajectory exactly (no hidden Go-side
	// state may carry across Run calls, except EP's documented register
	// sums, which lose earlier batches by design).
	for _, name := range apps.Names() {
		if name == "ep" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k1, m1, e1 := runGolden(t, name, apps.ProfileTest)
			ref := k1.Result(m1)

			f, _ := apps.New(name, apps.ProfileTest)
			k2 := f()
			m2 := newMachine(t)
			k2.Setup(m2)
			k2.Init(m2)
			split := e1 / 2
			if _, err := k2.Run(m2, 0, split); err != nil {
				t.Fatal(err)
			}
			rest, err := k2.Run(m2, split, 2*k2.NominalIters())
			if err != nil {
				t.Fatal(err)
			}
			if split+rest != e1 {
				t.Fatalf("split run executed %d+%d, golden %d", split, rest, e1)
			}
			got := k2.Result(m2)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("result[%d]: split %v != golden %v", i, got[i], ref[i])
				}
			}
		})
	}
}

func TestISInterruptsOnStaleEpoch(t *testing.T) {
	f, _ := apps.New("is", apps.ProfileTest)
	k := f()
	m := newMachine(t)
	k.Setup(m)
	k.Init(m)
	// Keys carry epoch 0; starting at iteration 3 detags them negative.
	if _, err := k.Run(m, 3, 10); err != apps.ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

func TestLULESHInterruptsOnCorruptMesh(t *testing.T) {
	f, _ := apps.New("lulesh", apps.ProfileTest)
	k := f()
	m := newMachine(t)
	k.Setup(m)
	k.Init(m)
	// Invert an element: x[10] > x[11].
	x := m.Space().MustObject("x")
	m.F64(x).Set(10, 0.5)
	if _, err := k.Run(m, 0, 5); err != apps.ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// Corrupt dt as a crash-restored stale scalar would.
	k2 := f()
	m2 := newMachine(t)
	k2.Setup(m2)
	k2.Init(m2)
	m2.F64(m2.Space().MustObject("scal")).Set(0, -1)
	if _, err := k2.Run(m2, 0, 5); err != apps.ErrInterrupted {
		t.Fatalf("negative dt: err = %v, want ErrInterrupted", err)
	}
}

func TestConvergentKernelsStopEarly(t *testing.T) {
	for _, name := range []string{"cg", "kmeans"} {
		k, _, executed := runGolden(t, name, apps.ProfileTest)
		if executed >= k.NominalIters() {
			t.Errorf("%s: did not converge before the budget (%d >= %d)", name, executed, k.NominalIters())
		}
	}
}

func TestEPLosesRegisterStateAcrossRestart(t *testing.T) {
	// A restart from any iteration > 0 loses the register-resident sums
	// and must fail verification — EP's defining property in the paper.
	k1, m1, _ := runGolden(t, "ep", apps.ProfileTest)
	ref := k1.Result(m1)

	f, _ := apps.New("ep", apps.ProfileTest)
	k2 := f()
	m2 := newMachine(t)
	k2.Setup(m2)
	k2.Init(m2)
	if _, err := k2.Run(m2, 5, k2.NominalIters()); err != nil {
		t.Fatal(err)
	}
	if k2.Verify(m2, ref) {
		t.Fatal("EP restart from iteration 5 should fail exact-count verification")
	}
}

func TestVerifyRejectsPerturbedState(t *testing.T) {
	// Perturbing a critical object after a run must break acceptance for
	// the strict-verification kernels.
	for _, tc := range []struct {
		kernel, object string
		index          int // an element the kernel's Result actually samples
	}{
		{"mg", "u", (6*14+6)*14 + 6}, // an interior grid point
		{"ft", "sums", 0},
		{"lu", "u", 3}, {"bt", "u", 3}, {"sp", "u", 3},
		{"botsspar", "blocks", 3}, {"lulesh", "e", 100}, {"is", "keys", 7},
	} {
		k, m, _ := runGolden(t, tc.kernel, apps.ProfileTest)
		ref := k.Result(m)
		obj := m.Space().MustObject(tc.object)
		v := m.F64(obj)
		v.Set(tc.index, v.At(tc.index)+1e3)
		if k.Verify(m, ref) {
			t.Errorf("%s: verification passed despite corrupted %s", tc.kernel, tc.object)
		}
	}
}

func TestBenchProfilesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("bench profiles are slower; skipped with -short")
	}
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, m, _ := runGolden(t, name, apps.ProfileBench)
			if !k.Verify(m, k.Result(m)) {
				t.Fatal("bench-profile golden run does not verify")
			}
		})
	}
}
