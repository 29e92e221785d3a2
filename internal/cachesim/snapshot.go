package cachesim

// Snapshot is a compact copy of a hierarchy's full volatile state: every tag
// array (tags, state flags, recency ticks, replacement RNG), the recency
// clock, the statistics, and the values of the resident blocks. It
// deliberately does NOT copy the block-number-indexed slot table
// (NVM-capacity / 64 entries — megabytes for a realistic image) or the
// inclusion directory: a block's arena slot IS its LLC way slot and its
// directory row names its private ways, so the restored tag arrays enumerate
// every (block, slot) and (block, level, way) triple and ResumeFrom replays
// those into a freshly Reset table and directory instead.
//
// A Snapshot is immutable once taken and safe to restore into any hierarchy
// with the same configuration, concurrently with other restores of the same
// snapshot elsewhere.
type Snapshot struct {
	name  string // config name, used to reject geometry mismatches
	tick  uint64
	stats Stats

	// Concatenated per-cache arrays in fixed iteration order: the private
	// levels innermost-first, then the LLC.
	tags  []uint64
	state []uint8
	lru   []uint64
	rngs  []uint64

	// Resident block values in valid-LLC-line order (ascending way slot).
	data []byte
}

// eachCache visits every tag array in the fixed snapshot order.
func (h *Hierarchy) eachCache(fn func(c *cache)) {
	for _, pc := range h.priv {
		fn(pc)
	}
	fn(h.llc)
}

// Snapshot captures the hierarchy's volatile state. The backing image is not
// captured — pair this with a mem.Image fork taken at the same instant.
func (h *Hierarchy) Snapshot() *Snapshot {
	s := &Snapshot{name: h.cfg.Name, tick: h.tick, stats: h.Stats()}
	total := 0
	h.eachCache(func(c *cache) { total += len(c.tags) })
	s.tags = make([]uint64, 0, total)
	s.state = make([]uint8, 0, total)
	s.lru = make([]uint64, 0, total)
	s.rngs = make([]uint64, 0, h.nlev)
	h.eachCache(func(c *cache) {
		s.tags = append(s.tags, c.tags...)
		s.state = append(s.state, c.state...)
		s.lru = append(s.lru, c.lru...)
		s.rngs = append(s.rngs, c.rng)
	})
	resident, _ := h.llc.countValid()
	s.data = make([]byte, 0, resident*BlockSize)
	for i, st := range h.llc.state {
		if st&stValid != 0 {
			s.data = append(s.data, h.dataAt(int32(i))[:]...)
		}
	}
	return s
}

// ResumeFrom restores a snapshot into the hierarchy, which must be freshly
// Reset (or just constructed) and share the snapshot's configuration. After
// the call the hierarchy is state-identical to the one the snapshot was taken
// from: same residency, same recency order, same statistics — so a
// subsequent access sequence behaves identically, write order included.
// Panics on a dirty target or a geometry mismatch (both are programming
// errors in the campaign engine).
func (h *Hierarchy) ResumeFrom(s *Snapshot) {
	if h.cfg.Name != s.name {
		panic("cachesim: ResumeFrom across configurations: " + h.cfg.Name + " vs " + s.name)
	}
	if v, _ := h.llc.countValid(); v != 0 {
		panic("cachesim: ResumeFrom requires a freshly Reset hierarchy")
	}
	off, nrng := 0, 0
	h.eachCache(func(c *cache) {
		n := len(c.tags)
		copy(c.tags, s.tags[off:off+n])
		copy(c.state, s.state[off:off+n])
		copy(c.lru, s.lru[off:off+n])
		c.rng = s.rngs[nrng]
		c.recount()
		nrng++
		off += n
	})
	if off != len(s.tags) {
		panic("cachesim: ResumeFrom geometry mismatch despite matching config name")
	}
	n := 0
	for i, st := range h.llc.state {
		if st&stValid == 0 {
			continue
		}
		blk := h.llc.tags[i]
		h.growSlots(blk + 1)
		h.slots[blk] = int32(i)
		copy(h.dataAt(int32(i))[:], s.data[n*BlockSize:(n+1)*BlockSize])
		n++
	}
	// Rebuild the inclusion directory (all -1 on a Reset hierarchy) from the
	// restored private tag arrays.
	for l, pc := range h.priv {
		for i, st := range pc.state {
			if st&stValid != 0 {
				h.row(h.slots[pc.tags[i]])[l] = int32(i)
			}
		}
	}
	h.tick = s.tick

	hits, misses := h.stats.Hits, h.stats.Misses
	h.stats = s.stats
	copy(hits, s.stats.Hits)
	copy(misses, s.stats.Misses)
	h.stats.Hits, h.stats.Misses = hits, misses
}
