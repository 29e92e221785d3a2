// Package badkernel is the eclint smoke fixture: a deliberately broken
// kernel that violates every analyzer exactly once. The testdata/src prefix
// keeps it out of ./... builds while letting the smoke test point eclint at
// it with an explicit package path; the path below testdata/src mirrors
// internal/apps so campaigndet scopes it like a real kernel.
package badkernel

import (
	"math/rand"

	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// Step perturbs state with the global generator (campaigndet).
func Step(m *sim.Machine, x sim.F64Slice) float64 {
	m.BeginRegion(0)
	v := x.At(rand.Intn(x.Len()))
	m.EndRegion(0)
	return v
}

// kv violates the persistence-ordering contract: the commit mark covers a
// WAL record that was never flushed (persistorder).
type kv struct {
	wal  mem.Object //persist:data
	head mem.Object //persist:commit
}

func (s *kv) Put(m *sim.Machine, seq int64) {
	m.StoreI64(s.wal.Addr+uint64(seq)*32, seq+1)
	m.StoreI64(s.head.Addr, seq+1)
}
