package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"easycrash/internal/cachesim"
	"easycrash/internal/mem"
)

func newM(t testing.TB) *Machine {
	t.Helper()
	return NewMachine(1<<20, cachesim.TestConfig())
}

// durable copies the machine's whole durable image, bypassing DurableCopy's
// power-loss contract: tests compare images at any instant.
func durable(m *Machine) []byte { return bytes.Clone(m.img.Bytes(0, m.img.Size())) }

// durableF64 reads the durable float64 at addr, beneath the caches.
func durableF64(m *Machine, addr uint64) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(m.img.Bytes(addr, 8)))
}

func TestTypedAccessRoundTrip(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 16, true)
	v := m.F64(o)
	if v.Len() != 16 {
		t.Fatalf("Len = %d", v.Len())
	}
	v.Set(3, 2.75)
	if got := v.At(3); got != 2.75 {
		t.Fatalf("At(3) = %v", got)
	}
	oi := m.Space().AllocI64("y", 4, false)
	iv := m.I64(oi)
	iv.Set(0, -42)
	if got := iv.At(0); got != -42 {
		t.Fatalf("I64 At = %v", got)
	}
	if v.Object().Name != "x" || iv.Object().Name != "y" {
		t.Fatal("Object() lost identity")
	}
}

func TestMainLoopAccessCounting(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 8, true)
	v := m.F64(o)
	v.Set(0, 1) // outside main loop: not counted
	if m.MainAccesses() != 0 {
		t.Fatal("pre-loop access counted")
	}
	m.MainLoopBegin()
	m.BeginIteration(0)
	m.BeginRegion(2)
	v.Set(1, 2)
	v.At(1)
	m.EndRegion(2)
	m.EndIteration(0)
	m.MainLoopEnd()
	v.Set(2, 3) // after loop: not counted
	if got := m.MainAccesses(); got != 2 {
		t.Fatalf("MainAccesses = %d, want 2", got)
	}
	ra := m.RegionAccesses()
	if ra[2] != 2 {
		t.Fatalf("region 2 accesses = %d, want 2", ra[2])
	}
	if m.Iterations() != 1 {
		t.Fatalf("Iterations = %d", m.Iterations())
	}
}

func TestCrashFiresAtExactAccess(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 64, true)
	v := m.F64(o)
	m.SetCrashAfter(5)
	m.MainLoopBegin()
	m.BeginIteration(7)
	m.BeginRegion(1)
	var crash *Crash
	func() {
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(*Crash)
				if !ok {
					panic(r)
				}
				crash = c
			}
		}()
		for i := 0; i < 100; i++ {
			v.Set(i, float64(i))
		}
	}()
	if crash == nil {
		t.Fatal("crash did not fire")
	}
	if crash.Access != 5 || crash.Region != 1 || crash.Iter != 7 {
		t.Fatalf("crash = %+v", crash)
	}
	if crash.Error() == "" {
		t.Fatal("empty error string")
	}
	// Crash disarms itself; further accesses proceed.
	v.Set(0, 1)
}

func TestCrashNowDiscardsVolatileState(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 8, true)
	v := m.F64(o)
	v.Set(0, 9.5)
	m.CrashNow()
	if got := durableF64(m, o.Addr); got == 9.5 {
		t.Fatal("dirty store survived crash")
	}
	if got := v.At(0); got != 0 {
		t.Fatalf("post-crash load = %v, want 0 (stale durable value)", got)
	}
}

func TestInconsistencyRate(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 8, true) // 64 bytes, one block
	v := m.F64(o)
	if r := m.InconsistencyRate(o); r != 0 {
		t.Fatalf("fresh object rate = %v", r)
	}
	// 1.5 encodes as 00...00 F8 3F: exactly 2 of its 8 bytes differ from
	// the zeroed durable image, and inconsistency counts differing bytes.
	v.Set(0, 1.5)
	if r := m.InconsistencyRate(o); r != 2.0/64 {
		t.Fatalf("rate = %v, want %v", r, 2.0/64)
	}
	m.FlushObject(o, cachesim.CLWB)
	if r := m.InconsistencyRate(o); r != 0 {
		t.Fatalf("rate after flush = %v", r)
	}
}

func TestFlushObjectsCountsOneOperation(t *testing.T) {
	m := newM(t)
	a := m.Space().AllocF64("a", 64, true)
	b := m.Space().AllocF64("b", 64, true)
	va, vb := m.F64(a), m.F64(b)
	for i := 0; i < 64; i++ {
		va.Set(i, 1)
		vb.Set(i, 2)
	}
	m.FlushObjects([]mem.Object{a, b}, cachesim.CLWB)
	ps := m.PersistStats()
	if ps.Operations != 1 {
		t.Fatalf("Operations = %d, want 1", ps.Operations)
	}
	if ps.BlocksIssued != a.Size/64+b.Size/64 {
		t.Fatalf("BlocksIssued = %d", ps.BlocksIssued)
	}
	if ps.DirtyFlushed+ps.CleanFlushed != ps.BlocksIssued {
		t.Fatal("flush accounting identity violated")
	}
	// Everything was dirty or evicted-then-clean; persisted values visible.
	if durableF64(m, a.Addr) != 1 {
		t.Fatal("flush did not persist a[0]")
	}
}

type recordingPersister struct {
	regions []int
	iters   []int64
}

func (p *recordingPersister) RegionEnd(m *Machine, region int, it int64) {
	p.regions = append(p.regions, region)
}
func (p *recordingPersister) IterationEnd(m *Machine, it int64) {
	p.iters = append(p.iters, it)
}

func TestPersisterHooks(t *testing.T) {
	m := newM(t)
	p := &recordingPersister{}
	m.SetPersister(p)
	m.MainLoopBegin()
	for it := int64(0); it < 3; it++ {
		m.BeginIteration(it)
		m.BeginRegion(0)
		m.EndRegion(0)
		m.BeginRegion(1)
		m.EndRegion(1)
		m.EndIteration(it)
	}
	m.MainLoopEnd()
	if len(p.regions) != 6 || p.regions[0] != 0 || p.regions[1] != 1 {
		t.Fatalf("regions = %v", p.regions)
	}
	if len(p.iters) != 3 || p.iters[2] != 2 {
		t.Fatalf("iters = %v", p.iters)
	}
	if m.Region() != NoRegion {
		t.Fatal("region not reset")
	}
}

func TestFlushTrafficIsNotDemandTraffic(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 8, true)
	m.MainLoopBegin()
	m.F64(o).Set(0, 1)
	n := m.MainAccesses()
	m.FlushObject(o, cachesim.CLWB)
	if m.MainAccesses() != n {
		t.Fatal("flush counted as demand access")
	}
}

type countingObserver struct {
	loads, stores int
	lastAddr      uint64
}

func (o *countingObserver) Access(addr uint64, size int, store bool) {
	if store {
		o.stores++
	} else {
		o.loads++
	}
	o.lastAddr = addr
}

func TestObserverSeesAllTypedAccesses(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 8, true)
	oi := m.Space().AllocI64("y", 8, true)
	obs := &countingObserver{}
	m.SetObserver(obs)
	m.F64(o).Set(0, 1)
	m.F64(o).At(0)
	m.I64(oi).Set(1, 2)
	m.I64(oi).At(1)
	if obs.loads != 2 || obs.stores != 2 {
		t.Fatalf("observer saw %d loads, %d stores; want 2, 2", obs.loads, obs.stores)
	}
	if obs.lastAddr != oi.Addr+8 {
		t.Fatalf("lastAddr = %#x", obs.lastAddr)
	}
	m.SetObserver(nil)
	m.F64(o).Set(0, 3)
	if obs.stores != 2 {
		t.Fatal("detached observer still notified")
	}
}

func TestRestoreObject(t *testing.T) {
	m := newM(t)
	o := m.Space().AllocF64("x", 20, true) // 160 bytes, spans blocks
	v := m.F64(o)
	for i := 0; i < 20; i++ {
		v.Set(i, float64(i))
	}
	// Build a dump with distinct contents.
	dump := make([]byte, o.Size)
	for i := range dump {
		dump[i] = byte(i ^ 0x5A)
	}
	m.RestoreObject(o, dump)
	got := make([]byte, o.Size)
	m.Hierarchy().ArchValue(o.Addr, got)
	for i := range dump {
		if got[i] != dump[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], dump[i])
		}
	}
	// Size mismatch is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	m.RestoreObject(o, dump[:8])
}
