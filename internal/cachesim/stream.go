package cachesim

import "encoding/binary"

// Stream is a memoizing access cursor for stride-regular 8-byte element
// traffic. It caches the innermost residency of the last block it touched —
// the tag array and way slot the block occupied in the L1 (or the LLC when
// there are no private levels) — so consecutive accesses to the same 64 B
// block skip the hierarchy walk: the fast path is a tick, a Hits[0] count, an
// LRU touch and the data copy, exactly the effects the scalar path's
// innermost-level hit would have had.
//
// The memo is self-validating: the fast path re-checks that the memoized way
// still holds the block's tag with the valid bit set, and re-reads the block's
// arena slot through the flat store (a single array read). A valid tag in the
// innermost level proves residency, and inclusion guarantees the arena slot is
// current, so no global invalidation protocol is needed — evictions, refills,
// resets and snapshot resumes all naturally fail the tag check (or redirect
// the arena read) and fall back to the full scalar path. A Stream is therefore
// access-for-access equivalent to per-element Load/Store calls, which is what
// lets digest-pinned kernels migrate onto it. The memo stays on top of the
// inclusion directory because it is still the faster form (DESIGN.md, "Batched
// access path", has both rungs).
//
// Streams are single-goroutine cursors over one hierarchy; any number may be
// live at once (kernels keep one per stencil arm, so each stream sees
// block-local traffic even when the loop interleaves several arrays).
type Stream struct {
	h     *Hierarchy
	blk   uint64
	inner *cache
	slot  int
}

// NewStream returns an access cursor over the hierarchy. addr arguments to
// Load8/Store8 must be 8-byte aligned (callers with possibly unaligned
// objects must keep the scalar path).
func (h *Hierarchy) NewStream() Stream {
	return Stream{h: h}
}

// hit reports whether the memoized residency is current for blk.
func (s *Stream) hit(blk uint64) bool {
	return s.inner != nil && s.blk == blk &&
		s.inner.tags[s.slot] == blk && s.inner.state[s.slot]&stValid != 0
}

// Load8 reads the 8-byte element at addr, equivalent to an 8-byte Load (whose
// doc covers the reserved leading int). The value is returned in little-endian
// byte order, matching the typed views layered above the hierarchy.
func (s *Stream) Load8(_ int, addr uint64) uint64 {
	h := s.h
	h.stats.Loads++
	blk := addr >> blockShift
	if s.hit(blk) {
		h.tick++
		s.inner.touch(s.slot, h.tick)
		h.stats.Hits[0]++
		return binary.LittleEndian.Uint64(h.blockData(blk)[addr&(BlockSize-1):])
	}
	return s.loadSlow(blk, addr)
}

func (s *Stream) loadSlow(blk, addr uint64) uint64 {
	h := s.h
	h.tick++
	data, inner, slot := h.ensureResident(blk)
	s.memoize(blk, inner, slot)
	return binary.LittleEndian.Uint64(data[addr&(BlockSize-1):])
}

// Store8 writes the 8-byte element at addr, equivalent to an 8-byte Store.
func (s *Stream) Store8(_ int, addr uint64, v uint64) {
	h := s.h
	h.stats.Stores++
	blk := addr >> blockShift
	if s.hit(blk) {
		h.tick++
		s.inner.touch(s.slot, h.tick)
		h.stats.Hits[0]++
		binary.LittleEndian.PutUint64(h.blockData(blk)[addr&(BlockSize-1):], v)
		if st := s.inner.state[s.slot]; st&stDirty == 0 {
			s.inner.setState(s.slot, st|stDirty)
		}
		return
	}
	s.storeSlow(blk, addr, v)
}

func (s *Stream) storeSlow(blk, addr uint64, v uint64) {
	h := s.h
	h.tick++
	data, inner, slot := h.ensureResident(blk)
	binary.LittleEndian.PutUint64(data[addr&(BlockSize-1):], v)
	if st := inner.state[slot]; st&stDirty == 0 {
		inner.setState(slot, st|stDirty)
	}
	s.memoize(blk, inner, slot)
}

// memoize captures the innermost residency the access just resolved.
func (s *Stream) memoize(blk uint64, inner *cache, slot int) {
	s.blk = blk
	s.inner = inner
	s.slot = slot
}
