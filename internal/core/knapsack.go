package core

// The 0-1 knapsack solver Step 3 uses to select critical code regions
// (§5.2): items are code regions, weights are their persistence-induced
// performance losses, values are their recomputability gains, and the
// capacity is the runtime-overhead budget t_s.
//
// HPC applications have few code regions (the paper's benchmarks have 1-16),
// so the solver is exact for small instances via subset enumeration; larger
// instances fall back to the classic pseudo-polynomial dynamic program on
// discretised weights, whose solution may exceed the capacity by at most
// capacity*n/knapsackResolution — negligible against the noise in measured
// overheads.

import "slices"

// knapsackItem is one candidate (a code region in EasyCrash's use).
type knapsackItem struct {
	Weight float64 // cost against the capacity, >= 0
	Value  float64 // benefit, >= 0
}

// knapsackResolution is the number of discrete weight buckets the fallback
// DP uses.
const knapsackResolution = 10000

// knapsackExactLimit is the largest number of weighted items solved by
// enumeration.
const knapsackExactLimit = 18

// solveKnapsack returns the subset of items (by index, ascending) maximising total
// value subject to total weight <= capacity, and the achieved total value.
// Items with weight > capacity are never taken; items with non-positive
// weight and positive value are always taken.
func solveKnapsack(items []knapsackItem, capacity float64) (chosen []int, total float64) {
	if capacity < 0 {
		capacity = 0
	}
	// Zero/negative-weight items are free: take any with positive value.
	var free []int
	var cand []int
	for i, it := range items {
		switch {
		case it.Weight <= 0:
			if it.Value > 0 {
				free = append(free, i)
				total += it.Value
			}
		case it.Weight <= capacity && it.Value > 0:
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 || capacity == 0 {
		return free, total
	}

	var picked []int
	var best float64
	if len(cand) <= knapsackExactLimit {
		picked, best = solveExact(items, cand, capacity)
	} else {
		picked, best = solveDP(items, cand, capacity)
	}
	total += best
	chosen = append(chosen, free...)
	chosen = append(chosen, picked...)
	slices.Sort(chosen)
	return chosen, total
}

// solveExact enumerates all subsets of cand. Exact and fast for n <= 18.
func solveExact(items []knapsackItem, cand []int, capacity float64) ([]int, float64) {
	n := len(cand)
	var bestMask int
	var bestVal float64
	for mask := 1; mask < 1<<n; mask++ {
		var w, v float64
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				w += items[cand[b]].Weight
				if w > capacity {
					break
				}
				v += items[cand[b]].Value
			}
		}
		if w <= capacity && v > bestVal {
			bestVal, bestMask = v, mask
		}
	}
	var picked []int
	for b := 0; b < n; b++ {
		if bestMask&(1<<b) != 0 {
			picked = append(picked, cand[b])
		}
	}
	return picked, bestVal
}

// solveDP runs the classic 0-1 knapsack DP on weights discretised to
// knapsackResolution buckets (round to nearest), O(n*knapsackResolution).
func solveDP(items []knapsackItem, cand []int, capacity float64) ([]int, float64) {
	scale := float64(knapsackResolution) / capacity
	w := make([]int, len(cand))
	for j, i := range cand {
		w[j] = int(items[i].Weight*scale + 0.5)
		if w[j] < 1 {
			w[j] = 1
		}
	}
	const cap1 = knapsackResolution + 1
	best := make([]float64, cap1)
	take := make([]bool, len(cand)*cap1)
	for j, i := range cand {
		v := items[i].Value
		for c := knapsackResolution; c >= w[j]; c-- {
			if candVal := best[c-w[j]] + v; candVal > best[c] {
				best[c] = candVal
				take[j*cap1+c] = true
			}
		}
	}
	c := knapsackResolution
	var picked []int
	for j := len(cand) - 1; j >= 0; j-- {
		if take[j*cap1+c] {
			picked = append(picked, cand[j])
			c -= w[j]
		}
	}
	return picked, best[knapsackResolution]
}
