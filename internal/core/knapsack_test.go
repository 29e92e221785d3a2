package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func weightOf(items []knapsackItem, chosen []int) float64 {
	var w float64
	for _, i := range chosen {
		w += items[i].Weight
	}
	return w
}

func valueOf(items []knapsackItem, chosen []int) float64 {
	var v float64
	for _, i := range chosen {
		v += items[i].Value
	}
	return v
}

func TestSolveBasic(t *testing.T) {
	items := []knapsackItem{
		{Weight: 1, Value: 6},
		{Weight: 2, Value: 10},
		{Weight: 3, Value: 12},
	}
	chosen, total := solveKnapsack(items, 5)
	if total != 22 {
		t.Fatalf("total = %v, want 22", total)
	}
	if len(chosen) != 2 || chosen[0] != 1 || chosen[1] != 2 {
		t.Fatalf("chosen = %v, want [1 2]", chosen)
	}
}

func TestSolveEmptyAndZeroCapacity(t *testing.T) {
	if chosen, total := solveKnapsack(nil, 10); len(chosen) != 0 || total != 0 {
		t.Fatal("empty items should choose nothing")
	}
	items := []knapsackItem{{Weight: 1, Value: 5}}
	if chosen, _ := solveKnapsack(items, 0); len(chosen) != 0 {
		t.Fatalf("zero capacity chose %v", chosen)
	}
	if chosen, _ := solveKnapsack(items, -3); len(chosen) != 0 {
		t.Fatalf("negative capacity chose %v", chosen)
	}
}

func TestSolveFreeItemsAlwaysTaken(t *testing.T) {
	items := []knapsackItem{
		{Weight: 0, Value: 4},
		{Weight: 10, Value: 100}, // over capacity
		{Weight: 1, Value: 2},
	}
	chosen, total := solveKnapsack(items, 2)
	if total != 6 {
		t.Fatalf("total = %v, want 6", total)
	}
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 2 {
		t.Fatalf("chosen = %v, want [0 2]", chosen)
	}
}

func TestSolveZeroValueItemsIgnored(t *testing.T) {
	items := []knapsackItem{{Weight: 1, Value: 0}, {Weight: 1, Value: 3}}
	chosen, total := solveKnapsack(items, 5)
	if total != 3 || len(chosen) != 1 || chosen[0] != 1 {
		t.Fatalf("chosen = %v total = %v", chosen, total)
	}
}

func TestSolveSingleItemExactFit(t *testing.T) {
	chosen, total := solveKnapsack([]knapsackItem{{Weight: 5, Value: 9}}, 5)
	if total != 9 || len(chosen) != 1 {
		t.Fatalf("exact-fit item not taken: %v %v", chosen, total)
	}
}

// bruteForce enumerates all subsets (n <= ~15) for the exact optimum.
func bruteForce(items []knapsackItem, capacity float64) float64 {
	n := len(items)
	var best float64
	for mask := 0; mask < 1<<n; mask++ {
		var w, v float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += items[i].Weight
				v += items[i].Value
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return best
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		items := make([]knapsackItem, n)
		for i := range items {
			items[i] = knapsackItem{
				Weight: float64(rng.Intn(20)) / 4,
				Value:  float64(rng.Intn(50)) / 3,
			}
		}
		capacity := float64(rng.Intn(40)) / 4
		chosen, total := solveKnapsack(items, capacity)
		if w := weightOf(items, chosen); w > capacity+1e-9 {
			t.Fatalf("trial %d: weight %v exceeds capacity %v", trial, w, capacity)
		}
		want := bruteForce(items, capacity)
		// n <= 10 takes the exact enumeration path, so this must match.
		if total < want-1e-9 {
			t.Fatalf("trial %d: total %v < brute force %v", trial, total, want)
		}
	}
}

// Property: the solution never exceeds capacity, reported total matches the
// chosen set, and indices are unique, sorted, valid.
func TestQuickSolveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25)
		items := make([]knapsackItem, n)
		for i := range items {
			items[i] = knapsackItem{Weight: rng.Float64() * 3, Value: rng.Float64() * 10}
		}
		capacity := rng.Float64() * 5
		chosen, total := solveKnapsack(items, capacity)
		// The DP fallback (n > 18) may overshoot by the documented
		// discretisation bound; the exact path may not overshoot at all.
		slack := 1e-9
		if n > 18 {
			slack += capacity * float64(n) / knapsackResolution
		}
		if weightOf(items, chosen) > capacity+slack {
			return false
		}
		if v := valueOf(items, chosen); v < total-1e-9 || v > total+1e-9 {
			return false
		}
		for i := 1; i < len(chosen); i++ {
			if chosen[i] <= chosen[i-1] {
				return false
			}
		}
		for _, i := range chosen {
			if i < 0 || i >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding capacity never decreases the optimum (monotonicity).
func TestQuickSolveMonotoneInCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		items := make([]knapsackItem, n)
		for i := range items {
			items[i] = knapsackItem{Weight: rng.Float64() * 2, Value: rng.Float64() * 8}
		}
		c1 := rng.Float64() * 3
		c2 := c1 + rng.Float64()*2
		_, t1 := solveKnapsack(items, c1)
		_, t2 := solveKnapsack(items, c2)
		return t2 >= t1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDPPathLargeInstance(t *testing.T) {
	// 30 weighted items forces the DP fallback; compare against a greedy
	// lower bound and check the capacity bound.
	rng := rand.New(rand.NewSource(3))
	items := make([]knapsackItem, 30)
	for i := range items {
		items[i] = knapsackItem{Weight: 0.1 + rng.Float64(), Value: rng.Float64() * 5}
	}
	capacity := 4.0
	chosen, total := solveKnapsack(items, capacity)
	if len(chosen) == 0 {
		t.Fatal("DP chose nothing")
	}
	slack := capacity * float64(len(items)) / knapsackResolution
	if w := weightOf(items, chosen); w > capacity+slack {
		t.Fatalf("weight %v exceeds capacity %v (+%v)", w, capacity, slack)
	}
	if v := valueOf(items, chosen); v != total {
		t.Fatalf("reported total %v != chosen value %v", total, v)
	}
	// Sanity: DP must beat taking only the single best item.
	var bestSingle float64
	for _, it := range items {
		if it.Weight <= capacity && it.Value > bestSingle {
			bestSingle = it.Value
		}
	}
	if total < bestSingle {
		t.Fatalf("DP total %v worse than best single item %v", total, bestSingle)
	}
}

func TestKnapsackIntegration(t *testing.T) {
	// Regions with distinct gains and equal costs: the knapsack must take
	// the highest-gain regions first.
	items := []knapsackItem{
		{Weight: 0.01, Value: 0.5},
		{Weight: 0.01, Value: 0.1},
		{Weight: 0.01, Value: 0.3},
	}
	chosen, total := solveKnapsack(items, 0.02)
	if len(chosen) != 2 || total != 0.8 {
		t.Fatalf("chosen %v total %v", chosen, total)
	}
}
