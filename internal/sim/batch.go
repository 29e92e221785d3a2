package sim

import (
	"encoding/binary"
	"math"

	"easycrash/internal/cachesim"
	"easycrash/internal/mem"
)

// This file is the machine half of the batched access engine: run accessors
// that hand the hierarchy whole element runs, and stream views that memoize
// single-block residency. Both preserve the exact crash semantics of the
// scalar path — the access tick counter, SetCrashAfter/RearmCrash firing
// points, interrupt checks, region/iteration accounting and the in-flight
// torn-write window are all computed so that batches split precisely at the
// crash tick, the interrupt boundary, the block boundary and region
// transitions. Any element that could fire (crash or interrupt) goes through
// the scalar tick() path, so panics — and the snapshot-tree fork hook —
// fire at exactly the site a scalar run would have fired them.

// maxRunSpan bounds one batch (and the machine's scratch buffer); splitting
// a run into several batches is semantically free.
const maxRunSpan = 8192

// SetScalarAccess forces every batched accessor down the per-element scalar
// reference path. Cleared by Reset. Campaigns expose it as
// nvct.Config.ScalarAccess; the equivalence tests run both modes and demand
// byte-identical results.
func (m *Machine) SetScalarAccess(v bool) { m.scalarAccess = v }

// batchSpan returns how many of the next n consecutive main-loop demand
// accesses can be issued as one batch: none of them may fire the armed
// crash or the interrupt check. 0 means the next access is a potential
// firing point and must take the scalar path. Outside the main loop every
// access is inert and n is returned unchanged.
func (m *Machine) batchSpan(n uint64) uint64 {
	if !m.inMainLoop {
		return n
	}
	at := m.fireAt()
	if m.mainAccess+1 >= at {
		return 0
	}
	return min(n, at-m.mainAccess-1)
}

// bulkAccount performs the accounting of n crash-clock ticks that batchSpan
// already proved fire nothing, so the threshold needs no look. Like tick, it
// is a no-op outside the main loop.
func (m *Machine) bulkAccount(n uint64) {
	if !m.inMainLoop {
		return
	}
	m.mainAccess += n
	m.regionAccess[m.regionIdx] += n
}

// resyncBatch re-anchors the in-flight torn-write window as the tick of the
// batch's *final* element would have: at the next scalar tick the window
// must cover precisely the writes of the immediately preceding access, as
// it would after a scalar run.
func (m *Machine) resyncBatch() {
	if m.inMainLoop {
		m.resyncWrites()
	}
}

// runBytes returns the scratch buffer for one batch, growing it on demand.
func (m *Machine) runBytes(n int) []byte {
	if cap(m.runBuf) < n {
		m.runBuf = make([]byte, n)
	}
	return m.runBuf[:n]
}

// loadRun reads n consecutive 8-byte elements at addr into the scratch
// buffer and returns it; each element is one demand access.
func (m *Machine) loadRun(addr uint64, span uint64) []byte {
	buf := m.runBytes(int(span) * 8)
	m.bulkAccount(span)
	if span > 1 {
		m.hier.LoadRun(0, addr, buf[:(span-1)*8])
	}
	m.resyncBatch()
	m.hier.Load(0, addr+(span-1)*8, buf[(span-1)*8:])
	return buf
}

// storeRun writes the scratch buffer (span 8-byte elements) at addr; each
// element is one demand access.
func (m *Machine) storeRun(addr uint64, span uint64, buf []byte) {
	m.bulkAccount(span)
	if span > 1 {
		m.hier.StoreRun(0, addr, buf[:(span-1)*8])
	}
	m.resyncBatch()
	m.hier.Store(0, addr+(span-1)*8, buf[(span-1)*8:])
}

// LoadRun loads elements [i, i+len(dst)) of the slice into dst, equivalent
// to len(dst) consecutive At calls.
func (s F64Slice) LoadRun(i int, dst []float64) {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || addr&7 != 0 {
		for j := range dst {
			dst[j] = m.LoadF64(addr + uint64(j)*8)
		}
		return
	}
	for j := 0; j < len(dst); {
		n := uint64(len(dst) - j)
		if n > maxRunSpan {
			n = maxRunSpan
		}
		span := m.batchSpan(n)
		if span == 0 {
			dst[j] = m.LoadF64(addr + uint64(j)*8)
			j++
			continue
		}
		buf := m.loadRun(addr+uint64(j)*8, span)
		for k := uint64(0); k < span; k++ {
			dst[j+int(k)] = math.Float64frombits(binary.LittleEndian.Uint64(buf[k*8:]))
		}
		j += int(span)
	}
}

// StoreRun stores src into elements [i, i+len(src)) of the slice,
// equivalent to len(src) consecutive Set calls.
func (s F64Slice) StoreRun(i int, src []float64) {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || addr&7 != 0 {
		for j, v := range src {
			m.StoreF64(addr+uint64(j)*8, v)
		}
		return
	}
	for j := 0; j < len(src); {
		n := uint64(len(src) - j)
		if n > maxRunSpan {
			n = maxRunSpan
		}
		span := m.batchSpan(n)
		if span == 0 {
			m.StoreF64(addr+uint64(j)*8, src[j])
			j++
			continue
		}
		buf := m.runBytes(int(span) * 8)
		for k := uint64(0); k < span; k++ {
			binary.LittleEndian.PutUint64(buf[k*8:], math.Float64bits(src[j+int(k)]))
		}
		m.storeRun(addr+uint64(j)*8, span, buf)
		j += int(span)
	}
}

// LoadRun loads elements [i, i+len(dst)) of the slice into dst, equivalent
// to len(dst) consecutive At calls.
func (s I64Slice) LoadRun(i int, dst []int64) {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || addr&7 != 0 {
		for j := range dst {
			dst[j] = m.LoadI64(addr + uint64(j)*8)
		}
		return
	}
	for j := 0; j < len(dst); {
		n := uint64(len(dst) - j)
		if n > maxRunSpan {
			n = maxRunSpan
		}
		span := m.batchSpan(n)
		if span == 0 {
			dst[j] = m.LoadI64(addr + uint64(j)*8)
			j++
			continue
		}
		buf := m.loadRun(addr+uint64(j)*8, span)
		for k := uint64(0); k < span; k++ {
			dst[j+int(k)] = int64(binary.LittleEndian.Uint64(buf[k*8:]))
		}
		j += int(span)
	}
}

// StoreRun stores src into elements [i, i+len(src)) of the slice,
// equivalent to len(src) consecutive Set calls.
func (s I64Slice) StoreRun(i int, src []int64) {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || addr&7 != 0 {
		for j, v := range src {
			m.StoreI64(addr+uint64(j)*8, v)
		}
		return
	}
	for j := 0; j < len(src); {
		n := uint64(len(src) - j)
		if n > maxRunSpan {
			n = maxRunSpan
		}
		span := m.batchSpan(n)
		if span == 0 {
			m.StoreI64(addr+uint64(j)*8, src[j])
			j++
			continue
		}
		buf := m.runBytes(int(span) * 8)
		for k := uint64(0); k < span; k++ {
			binary.LittleEndian.PutUint64(buf[k*8:], uint64(src[j+int(k)]))
		}
		m.storeRun(addr+uint64(j)*8, span, buf)
		j += int(span)
	}
}

// F64Stream is a float64 element view backed by a block-memoizing cachesim
// stream: per-access crash accounting stays exact (every access goes through
// tick()), but consecutive accesses within one 64 B block skip the
// hierarchy walk. Kernels keep one stream per stride-regular access site
// (e.g. one per stencil arm), so each stream sees block-local traffic.
//
// With an observer attached, in scalar reference mode or over an unaligned
// object, every access transparently falls back to the scalar path.
type F64Stream struct {
	m       *Machine
	o       mem.Object
	st      cachesim.Stream
	aligned bool
}

// F64Stream returns a stream view of an object holding float64 elements.
func (m *Machine) F64Stream(o mem.Object) *F64Stream {
	return &F64Stream{m: m, o: o, st: m.hier.NewStream(), aligned: o.Addr&7 == 0}
}

// Len returns the element count.
func (s *F64Stream) Len() int { return int(s.o.Size / 8) }

// Object returns the underlying data object.
func (s *F64Stream) Object() mem.Object { return s.o }

// At loads element i.
func (s *F64Stream) At(i int) float64 {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || !s.aligned {
		return m.LoadF64(addr)
	}
	m.tick()
	return math.Float64frombits(s.st.Load8(0, addr))
}

// Set stores element i.
func (s *F64Stream) Set(i int, v float64) {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || !s.aligned {
		m.StoreF64(addr, v)
		return
	}
	m.tick()
	s.st.Store8(0, addr, math.Float64bits(v))
}

// I64Stream is the int64 counterpart of F64Stream.
type I64Stream struct {
	m       *Machine
	o       mem.Object
	st      cachesim.Stream
	aligned bool
}

// I64Stream returns a stream view of an object holding int64 elements.
func (m *Machine) I64Stream(o mem.Object) *I64Stream {
	return &I64Stream{m: m, o: o, st: m.hier.NewStream(), aligned: o.Addr&7 == 0}
}

// Len returns the element count.
func (s *I64Stream) Len() int { return int(s.o.Size / 8) }

// Object returns the underlying data object.
func (s *I64Stream) Object() mem.Object { return s.o }

// At loads element i.
func (s *I64Stream) At(i int) int64 {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || !s.aligned {
		return m.LoadI64(addr)
	}
	m.tick()
	return int64(s.st.Load8(0, addr))
}

// Set stores element i.
func (s *I64Stream) Set(i int, v int64) {
	m := s.m
	addr := s.o.Addr + uint64(i)*8
	if m.scalarAccess || m.observer != nil || !s.aligned {
		m.StoreI64(addr, v)
		return
	}
	m.tick()
	s.st.Store8(0, addr, uint64(v))
}
