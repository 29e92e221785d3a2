package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("empty-slice mean not 0")
	}
	if got := mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestRanksNoTies(t *testing.T) {
	got := ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	// 5,5 share ranks 2 and 3 -> 2.5 each.
	got := ranks([]float64{5, 1, 5, 9})
	want := []float64{2.5, 1, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
	// All tied: everyone gets the middle rank.
	got = ranks([]float64{7, 7, 7})
	for _, r := range got {
		if r != 2 {
			t.Fatalf("all-ties Ranks = %v", got)
		}
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := pearson([]float64{1}, []float64{2}); err != errTooFewSamples {
		t.Fatalf("short input: err = %v", err)
	}
	if _, err := pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err != errConstantInput {
		t.Fatalf("constant input: err = %v", err)
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ysUp := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	c, err := Spearman(xs, ysUp)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rs != 1 {
		t.Fatalf("Rs = %v, want 1", c.Rs)
	}
	if c.P > 1e-6 {
		t.Fatalf("perfect correlation p = %v", c.P)
	}
	ysDown := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	c, err = Spearman(xs, ysDown)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rs != -1 {
		t.Fatalf("Rs = %v, want -1", c.Rs)
	}
	// Nonlinear but monotone still gives ±1 (the point of rank correlation).
	ysExp := []float64{1, 4, 9, 16, 25, 36, 49, 64}
	c, _ = Spearman(xs, ysExp)
	if c.Rs != 1 {
		t.Fatalf("monotone nonlinear Rs = %v, want 1", c.Rs)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic small example: ranks differ by known d², Rs = 1 - 6Σd²/(n(n²-1)).
	xs := []float64{106, 100, 86, 101, 99, 103, 97, 113, 112, 110}
	ys := []float64{7, 27, 2, 50, 28, 29, 20, 12, 6, 17}
	c, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c.Rs, -0.17575757575, 1e-9) {
		t.Fatalf("Rs = %v, want -0.175757...", c.Rs)
	}
	if c.P < 0.5 {
		t.Fatalf("weak correlation should have large p, got %v", c.P)
	}
}

func TestSpearmanBinaryOutcomeVector(t *testing.T) {
	// The paper correlates inconsistency rates against binary success/fail;
	// ties in the binary vector must be handled. High rate -> failure (0).
	rate := []float64{0.9, 0.8, 0.7, 0.6, 0.3, 0.2, 0.1, 0.05, 0.5, 0.4}
	success := []float64{0, 0, 0, 0, 1, 1, 1, 1, 0, 1}
	c, err := Spearman(rate, success)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rs >= 0 {
		t.Fatalf("expected negative correlation, Rs = %v", c.Rs)
	}
	if c.P > 0.05 {
		t.Fatalf("expected significant correlation, p = %v", c.P)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2}); err != errTooFewSamples {
		t.Fatalf("err = %v, want errTooFewSamples", err)
	}
	if _, err := Spearman([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); err != errConstantInput {
		t.Fatalf("constant xs: err = %v", err)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); !approx(got, x, 1e-12) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.4, 0.6, 0.8} {
		lhs := regIncBeta(2.5, 4, x)
		rhs := 1 - regIncBeta(4, 2.5, 1-x)
		if !approx(lhs, rhs, 1e-10) {
			t.Fatalf("symmetry violated at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestTCDF2TailKnownValues(t *testing.T) {
	// With df=10, |t|=2.228 is the classic two-tailed 5% critical value.
	if got := tcdf2Tail(2.228, 10); !approx(got, 0.05, 0.001) {
		t.Fatalf("t=2.228 df=10: p = %v, want ~0.05", got)
	}
	if got := tcdf2Tail(0, 10); !approx(got, 1, 1e-12) {
		t.Fatalf("t=0: p = %v, want 1", got)
	}
	// Symmetric in t.
	if tcdf2Tail(1.5, 7) != tcdf2Tail(-1.5, 7) {
		t.Fatal("not symmetric in t")
	}
	if !math.IsNaN(tcdf2Tail(math.NaN(), 5)) || !math.IsNaN(tcdf2Tail(1, -1)) {
		t.Fatal("invalid inputs should give NaN")
	}
}

// Property: Rs is always within [-1, 1] and p within [0, 1].
func TestQuickSpearmanRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(10)) // induce ties
			ys[i] = rng.NormFloat64()
		}
		c, err := Spearman(xs, ys)
		if err == errConstantInput {
			return true
		}
		if err != nil {
			return false
		}
		return c.Rs >= -1 && c.Rs <= 1 && c.P >= 0 && c.P <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Spearman is invariant under any strictly monotone transform of
// either input.
func TestQuickSpearmanMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		c1, err1 := Spearman(xs, ys)
		tx := make([]float64, n)
		for i, x := range xs {
			tx[i] = math.Exp(x/50) + 3 // strictly increasing
		}
		c2, err2 := Spearman(tx, ys)
		if err1 != nil || err2 != nil {
			return err1 == err2
		}
		return approx(c1.Rs, c2.Rs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: independent inputs rarely look significant; check p is not
// degenerate (never returns 0 for noise).
func TestQuickSpearmanNoiseP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	small := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		n := 20
		xs := make([]float64, n)
		ys := make([]float64, n)
		for j := range xs {
			xs[j] = rng.NormFloat64()
			ys[j] = rng.NormFloat64()
		}
		c, err := Spearman(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if c.P < 0.01 {
			small++
		}
	}
	// At the 1% level we expect about 2 of 200 false positives; allow slack.
	if small > 12 {
		t.Fatalf("%d/%d independent trials significant at 1%%", small, trials)
	}
}
