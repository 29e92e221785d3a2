package nvmperf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"easycrash/internal/cachesim"
	"easycrash/internal/sim"
)

func statsWith(accesses, fills, evict, dirtyFlush, cleanFlush uint64) cachesim.Stats {
	return cachesim.Stats{
		Loads:              accesses,
		Hits:               []uint64{accesses, 0, 0},
		Misses:             []uint64{0, 0, 0},
		Fills:              fills,
		EvictionWritebacks: evict,
		DirtyFlushes:       dirtyFlush,
		CleanFlushes:       cleanFlush,
	}
}

func TestProfilesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.ReadLat <= 0 || p.WriteLat <= 0 {
			t.Fatalf("profile %q has non-positive latencies", p.Name)
		}
	}
	if !seen["dram"] || !seen["optane-dc-pmm"] {
		t.Fatal("expected dram and optane profiles")
	}
}

func TestTimeScalesWithNVMSlowness(t *testing.T) {
	s := statsWith(1000, 100, 50, 20, 30)
	dram := DRAM().Time(s)
	for _, p := range []Profile{Lat4x(), Lat8x(), BW6(), BW8(), OptaneDC()} {
		if p.Time(s) <= dram {
			t.Errorf("profile %q not slower than DRAM for memory-bound stats", p.Name)
		}
	}
	if Lat8x().Time(s) <= Lat4x().Time(s) {
		t.Error("8x latency should cost more than 4x")
	}
}

func TestCleanFlushesAreCheap(t *testing.T) {
	// The EasyCrash premise: flushing clean/non-resident blocks costs far
	// less than dirty flushes. 100 clean flushes must cost less than 10
	// dirty ones on every NVM profile.
	for _, p := range Profiles() {
		clean := p.PersistOnce(0, 100)
		dirty := p.PersistOnce(10, 0)
		if clean >= dirty {
			t.Errorf("profile %q: 100 clean flushes (%v) not cheaper than 10 dirty (%v)", p.Name, clean, dirty)
		}
	}
}

func TestNormalizedIdentity(t *testing.T) {
	s := statsWith(5000, 200, 80, 0, 0)
	if got := DRAM().Normalized(s, s); got != 1 {
		t.Fatalf("Normalized(s, s) = %v", got)
	}
	// Adding flush work increases normalized time.
	withFlush := s
	withFlush.DirtyFlushes = 100
	withFlush.CleanFlushes = 400
	if got := DRAM().Normalized(withFlush, s); got <= 1 {
		t.Fatalf("flush work should raise normalized time, got %v", got)
	}
}

func TestBreakdown(t *testing.T) {
	base := statsWith(10000, 400, 100, 0, 0)
	run := base
	run.DirtyFlushes = 50
	run.CleanFlushes = 200
	ps := sim.PersistStats{Operations: 10, DirtyFlushed: 50, CleanFlushed: 200}
	b := Breakdown(OptaneDC(), run, ps, base)
	if b.Operations != 10 {
		t.Fatalf("Operations = %d", b.Operations)
	}
	want := OptaneDC().PersistOnce(50, 200) / 10
	if b.AvgPersistOnceNS != want {
		t.Fatalf("AvgPersistOnceNS = %v, want %v", b.AvgPersistOnceNS, want)
	}
	if b.Normalized <= 1 {
		t.Fatalf("Normalized = %v, want > 1", b.Normalized)
	}
	// No operations: average must stay zero, not NaN.
	b0 := Breakdown(DRAM(), base, sim.PersistStats{}, base)
	if b0.AvgPersistOnceNS != 0 || b0.Normalized != 1 {
		t.Fatalf("zero-op breakdown = %+v", b0)
	}
}

// Property: Time is monotone in every event count, on every profile.
func TestQuickTimeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := statsWith(uint64(rng.Intn(100000)), uint64(rng.Intn(5000)),
			uint64(rng.Intn(2000)), uint64(rng.Intn(500)), uint64(rng.Intn(500)))
		for _, p := range Profiles() {
			t0 := p.Time(base)
			bumped := base
			switch rng.Intn(4) {
			case 0:
				bumped.Fills += 10
			case 1:
				bumped.EvictionWritebacks += 10
			case 2:
				bumped.DirtyFlushes += 10
			case 3:
				bumped.CleanFlushes += 10
			}
			if p.Time(bumped) < t0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
