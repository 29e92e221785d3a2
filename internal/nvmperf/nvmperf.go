// Package nvmperf is the execution-time model used for the paper's
// performance results (Table 4, Figures 7 and 8). The cache simulator
// supplies exact event counts (hits per level, NVM fills and write-backs,
// flush operations split into dirty and clean); this package prices those
// events under a configurable NVM performance profile, mirroring the
// paper's methodology of emulating NVM with inflated DRAM latency or
// reduced DRAM bandwidth (Quartz) and measuring on Optane DC PMM.
//
// Absolute times are not the point — normalized execution time (a policy's
// time over the no-persistence time on the same profile) is what the paper
// reports, and it depends only on the relative event prices.
package nvmperf

import (
	"easycrash/internal/cachesim"
	"easycrash/internal/sim"
)

// Profile prices memory-system events, in nanoseconds per event.
type Profile struct {
	Name string
	// CPUPerAccess is the core-side cost per demand access (address
	// generation, ALU work amortised per access).
	CPUPerAccess float64
	// HitLat are per-level hit latencies (L1, L2, LLC).
	HitLat [3]float64
	// ReadLat is the cost of filling one block from main memory.
	ReadLat float64
	// WriteLat is the cost of writing one block back to main memory
	// (latency plus bandwidth occupancy).
	WriteLat float64
	// FlushIssue is the per-block cost of issuing a flush instruction that
	// finds a clean or absent block (no write-back) — small but nonzero.
	FlushIssue float64
}

// DRAM models the paper's DRAM baseline (Table 3: ~87 ns latency).
func DRAM() Profile {
	return Profile{
		Name:         "dram",
		CPUPerAccess: 1.2,
		HitLat:       [3]float64{1.5, 5, 20},
		ReadLat:      87,
		WriteLat:     87,
		FlushIssue:   6,
	}
}

// scaled returns DRAM with main-memory latency multiplied by rl (reads)
// and wl (writes).
func scaled(name string, rl, wl float64) Profile {
	p := DRAM()
	p.Name = name
	p.ReadLat *= rl
	p.WriteLat *= wl
	return p
}

// Lat4x is the Quartz-style NVM emulation at 4x DRAM latency.
func Lat4x() Profile { return scaled("nvm-4x-latency", 4, 4) }

// Lat8x is the Quartz-style NVM emulation at 8x DRAM latency.
func Lat8x() Profile { return scaled("nvm-8x-latency", 8, 8) }

// BW6 models NVM with 1/6 of DRAM bandwidth: block transfers occupy the
// channel six times longer while load latency stays DRAM-like.
func BW6() Profile { return scaled("nvm-1/6-bandwidth", 6, 6) }

// BW8 models NVM with 1/8 of DRAM bandwidth.
func BW8() Profile { return scaled("nvm-1/8-bandwidth", 8, 8) }

// OptaneDC approximates Intel Optane DC PMM in app-direct mode: ~3x DRAM
// read latency, writes absorbed by the controller buffer but limited by
// media bandwidth (~6x DRAM cost per sustained block write).
func OptaneDC() Profile {
	p := DRAM()
	p.Name = "optane-dc-pmm"
	p.ReadLat = 300
	p.WriteLat = 500
	return p
}

// Profiles returns the evaluation set used by Figures 7 and 8.
func Profiles() []Profile {
	return []Profile{DRAM(), Lat4x(), Lat8x(), BW6(), BW8(), OptaneDC()}
}

// Time prices a run's event counts under the profile, in nanoseconds.
func (p Profile) Time(s cachesim.Stats) float64 {
	t := float64(s.Accesses()) * p.CPUPerAccess
	for l := 0; l < len(s.Hits) && l < 3; l++ {
		t += float64(s.Hits[l]) * p.HitLat[l]
	}
	t += float64(s.Fills) * p.ReadLat
	t += float64(s.EvictionWritebacks+s.DrainWritebacks) * p.WriteLat
	t += float64(s.DirtyFlushes) * p.WriteLat
	t += float64(s.CleanFlushes) * p.FlushIssue
	return t
}

// PersistOnce prices a single persistence operation that flushed the given
// numbers of dirty and clean blocks (Table 4's "time for persisting
// critical data for once").
func (p Profile) PersistOnce(dirty, clean uint64) float64 {
	return float64(dirty)*p.WriteLat + float64(clean)*p.FlushIssue
}

// Normalized returns run's time divided by baseline's time on this profile
// — the normalized execution time of Table 4 and Figures 7/8.
func (p Profile) Normalized(run, baseline cachesim.Stats) float64 {
	return p.Time(run) / p.Time(baseline)
}

// PersistenceBreakdown summarises a profiled run's persistence cost.
type PersistenceBreakdown struct {
	Profile Profile
	// Operations is the number of persistence operations performed.
	Operations uint64
	// AvgPersistOnceNS is the mean cost of one persistence operation.
	AvgPersistOnceNS float64
	// TotalNS and BaselineNS are the absolute modelled times.
	TotalNS, BaselineNS float64
	// Normalized is TotalNS / BaselineNS.
	Normalized float64
}

// Breakdown prices a profiled run against its baseline.
func Breakdown(p Profile, run cachesim.Stats, persist sim.PersistStats, baseline cachesim.Stats) PersistenceBreakdown {
	b := PersistenceBreakdown{
		Profile:    p,
		Operations: persist.Operations,
		TotalNS:    p.Time(run),
		BaselineNS: p.Time(baseline),
	}
	if persist.Operations > 0 {
		b.AvgPersistOnceNS = p.PersistOnce(persist.DirtyFlushed, persist.CleanFlushed) / float64(persist.Operations)
	}
	b.Normalized = b.TotalNS / b.BaselineNS
	return b
}
