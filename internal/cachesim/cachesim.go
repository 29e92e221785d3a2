// Package cachesim implements the volatile cache substrate of the NVCT crash
// tester: a multi-level, inclusive, write-back/write-allocate, LRU cache
// hierarchy that carries data values, sitting in front of a simulated NVM
// image. It reproduces what the paper's PIN-based simulator models:
//
//   - which bytes are dirty in volatile caches at an arbitrary crash point,
//   - the write traffic that reaches NVM (evictions and explicit flushes),
//   - the semantics of the x86 flush instructions (CLFLUSH, CLFLUSHOPT, CLWB):
//     flushing a clean or non-resident block writes nothing back.
//
// The hierarchy models one core: a stack of private levels in front of a
// last-level cache. Every kernel in this repository issues from one core, so
// the multi-core coherence model that once lived here never influenced a
// result and was removed (it is in the history before PR 13).
package cachesim

import (
	"fmt"
	"slices"
)

// BlockSize is the cache block size in bytes (64, as simulated in the paper).
const BlockSize = 64

const blockShift = 6

// Backing is the memory the hierarchy sits in front of (the NVM image).
// Every eviction write-back and flush reaches the media through WriteBlock,
// which makes it the torn-write boundary of the media-fault model: the block
// passed to the most recent WriteBlock is the one in flight — and torn at the
// 8-byte atomic-write granularity — when a crash fires mid-write-back.
type Backing interface {
	// ReadBlock copies the block containing addr into dst (BlockSize bytes).
	ReadBlock(addr uint64, dst []byte)
	// WriteBlock writes one block and accounts one NVM media write.
	WriteBlock(addr uint64, src []byte)
}

// FlushOp selects the flush-instruction semantics.
type FlushOp int

const (
	// CLFLUSH writes back the block if dirty and invalidates it.
	CLFLUSH FlushOp = iota
	// CLFLUSHOPT is CLFLUSH with weaker ordering; for the simulator the
	// state effect is the same (write back if dirty, then invalidate).
	CLFLUSHOPT
	// CLWB writes back the block if dirty but leaves it resident and clean.
	CLWB
)

// String returns the instruction mnemonic.
func (op FlushOp) String() string {
	switch op {
	case CLFLUSH:
		return "CLFLUSH"
	case CLFLUSHOPT:
		return "CLFLUSHOPT"
	case CLWB:
		return "CLWB"
	}
	return fmt.Sprintf("FlushOp(%d)", int(op))
}

// Replacement selects a cache replacement policy. The paper simulates LRU;
// the alternatives support ablation studies of how much the recomputability
// results owe to replacement order (which determines when dirty blocks
// reach NVM naturally).
type Replacement int

const (
	// LRU evicts the least-recently-used way (the paper's policy).
	LRU Replacement = iota
	// FIFO evicts the oldest-inserted way regardless of reuse.
	FIFO
	// Random evicts a deterministically pseudo-random way.
	Random
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Replacement(%d)", int(r))
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name string
	Size int // bytes
	Ways int // associativity
}

// Sets returns the number of sets in the level.
func (lc LevelConfig) Sets() int { return lc.Size / (BlockSize * lc.Ways) }

// Config describes a hierarchy. Levels are ordered closest-to-CPU first; the
// last level is the LLC, all earlier levels form the private stack.
type Config struct {
	Name   string
	Levels []LevelConfig
	// Replace selects the replacement policy (default LRU).
	Replace Replacement
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Levels) < 1 {
		return fmt.Errorf("cachesim: config %q: need at least 1 level", c.Name)
	}
	for i, l := range c.Levels {
		if l.Ways < 1 || l.Size <= 0 || l.Size%(BlockSize*l.Ways) != 0 {
			return fmt.Errorf("cachesim: config %q level %d (%s): size %d not a multiple of %d ways x %d bytes",
				c.Name, i, l.Name, l.Size, l.Ways, BlockSize)
		}
		if i > 0 && l.Size < c.Levels[i-1].Size {
			return fmt.Errorf("cachesim: config %q: level %d smaller than level %d (inclusion impossible)", c.Name, i, i-1)
		}
	}
	return nil
}

// TestConfig is a small geometry for fast crash-test campaigns. Kernel
// problem sizes in this repository are scaled so that footprints exceed this
// LLC by the same ratio the paper's Class C inputs exceed a 19.25 MiB LLC.
func TestConfig() Config {
	return Config{
		Name: "test",
		Levels: []LevelConfig{
			{Name: "L1", Size: 2 << 10, Ways: 4},
			{Name: "L2", Size: 8 << 10, Ways: 8},
			{Name: "L3", Size: 32 << 10, Ways: 8},
		},
	}
}

// PaperConfig approximates the Xeon Gold 6126 geometry simulated in the paper
// (L1 32 KiB/8-way, L2 1 MiB/12-way, LLC 19.25 MiB/11-way). The L2 size is
// rounded down to the nearest multiple of 12 ways x 64 B (1365 sets).
func PaperConfig() Config {
	return Config{
		Name: "xeon-gold-6126",
		Levels: []LevelConfig{
			{Name: "L1", Size: 32 << 10, Ways: 8},
			{Name: "L2", Size: 1365 * 12 * BlockSize, Ways: 12},
			{Name: "L3", Size: 28672 * 11 * BlockSize, Ways: 11}, // 19.25 MiB
		},
	}
}

// Stats aggregates hierarchy event counts.
type Stats struct {
	Loads  uint64
	Stores uint64
	// Hits and Misses are per level, index 0 = closest to CPU.
	Hits   []uint64
	Misses []uint64
	// Fills counts blocks read from backing memory (NVM reads).
	Fills uint64
	// EvictionWritebacks counts dirty blocks written to backing because of
	// LLC evictions (natural cache pressure).
	EvictionWritebacks uint64
	// FlushOps counts block-granularity flush instructions issued.
	FlushOps uint64
	// DirtyFlushes counts flush ops that found a dirty resident block and
	// therefore wrote it back to backing.
	DirtyFlushes uint64
	// CleanFlushes counts flush ops on clean or non-resident blocks; these
	// cost little and write nothing (the effect EasyCrash exploits).
	CleanFlushes uint64
	// DrainWritebacks counts dirty blocks written back by WriteBackAll.
	DrainWritebacks uint64
}

// Writebacks returns all dirty-block write-backs that reached backing memory.
func (s *Stats) Writebacks() uint64 {
	return s.EvictionWritebacks + s.DirtyFlushes + s.DrainWritebacks
}

// Accesses returns total demand accesses.
func (s *Stats) Accesses() uint64 { return s.Loads + s.Stores }

const (
	stValid uint8 = 1 << 0
	stDirty uint8 = 1 << 1
)

// cache is one tag array (data lives in the shared hierarchy block store).
type cache struct {
	ways  int
	nsets uint64
	// pow2 is decided once from the geometry: a power-of-two set count
	// indexes by mask, any other (PaperConfig's 1365-set L2) by modulo.
	pow2    bool
	tags    []uint64
	state   []uint8
	lru     []uint64 // LRU: last-touch tick; FIFO: insertion tick; 0 = invalid way
	replace Replacement
	rng     uint64 // xorshift state for Random replacement

	// Incremental line counters, maintained by setState. countValid reads
	// them instead of scanning every way of every set; recount rebuilds
	// them after a bulk state restore (snapshot resume).
	valid int
	dirty int
}

// rngSeed seeds each tag array's xorshift state for Random replacement; a
// fixed seed keeps the policy deterministic and lets Reset restore it.
const rngSeed = 0x2545F4914F6CDD1D

func newCache(lc LevelConfig, replace Replacement) *cache {
	n := lc.Sets()
	return &cache{
		ways:    lc.Ways,
		nsets:   uint64(n),
		pow2:    n&(n-1) == 0,
		tags:    make([]uint64, n*lc.Ways),
		state:   make([]uint8, n*lc.Ways),
		lru:     make([]uint64, n*lc.Ways),
		replace: replace,
		rng:     rngSeed,
	}
}

// setBase returns the way slot of the first way of blk's set.
func (c *cache) setBase(blk uint64) int {
	if c.pow2 {
		return int(blk&(c.nsets-1)) * c.ways
	}
	return int(blk%c.nsets) * c.ways
}

// scan returns the way slot holding blk, or -1, by comparing the tags of
// blk's set. It is the audit's probe (CheckInclusion): the access path finds
// residency through the slot table and the inclusion directory and never
// scans.
func (c *cache) scan(blk uint64) int {
	base := c.setBase(blk)
	for i := base; i < base+c.ways; i++ {
		if c.state[i]&stValid != 0 && c.tags[i] == blk {
			return i
		}
	}
	return -1
}

// setState writes a way's state flags, maintaining the incremental
// valid/dirty line counters. Every state mutation must go through here
// (or clearState/recount, which reset the counters wholesale).
func (c *cache) setState(i int, st uint8) {
	old := c.state[i]
	c.state[i] = st
	c.valid += int(st&stValid) - int(old&stValid)
	c.dirty += int((st&stDirty)>>1) - int((old&stDirty)>>1)
}

// fill makes way i hold blk, clean, inserted at tick.
func (c *cache) fill(i int, blk, tick uint64) {
	c.tags[i] = blk
	c.setState(i, stValid)
	c.lru[i] = tick
}

// invalidate empties way i. An invalid way sits at recency 0, below every
// valid way (the recency clock is at least 1 at any fill), which is what
// lets victimSlot prefer invalid ways without looking at the state flags.
func (c *cache) invalidate(i int) {
	c.setState(i, 0)
	c.lru[i] = 0
}

// recount rebuilds the incremental counters from a full scan, after the
// state array was overwritten in bulk (snapshot resume).
func (c *cache) recount() {
	c.valid, c.dirty = 0, 0
	for _, s := range c.state {
		if s&stValid != 0 {
			c.valid++
			if s&stDirty != 0 {
				c.dirty++
			}
		}
	}
}

// victimSlot returns the slot to fill for blk in one pass over the set's
// recency words: the first invalid way (recency 0) if one exists, otherwise
// the way the replacement policy selects.
func (c *cache) victimSlot(blk uint64) int {
	base := c.setBase(blk)
	set := c.lru[base : base+c.ways]
	best, bestTick := 0, set[0]
	for w := 1; w < len(set); w++ {
		// Two single-value updates, so each compiles to a conditional move:
		// which way is oldest is data-dependent and a branch mispredicts.
		if set[w] < bestTick {
			best = w
		}
		bestTick = min(bestTick, set[w])
	}
	if bestTick != 0 && c.replace == Random {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return base + int(c.rng%uint64(c.ways))
	}
	// LRU and FIFO both evict the smallest tick; they differ in whether
	// hits refresh it (see touch).
	return base + best
}

// touch refreshes a way's recency on a hit (LRU only; FIFO and Random keep
// insertion order).
func (c *cache) touch(slot int, tick uint64) {
	if c.replace == LRU {
		c.lru[slot] = tick
	}
}

// clearState drops every way's flags and the line counters. The recency of
// the ways that were valid is the caller's to zero (DropAll does, in the walk
// it makes over them anyway).
func (c *cache) clearState() {
	clear(c.state)
	c.valid, c.dirty = 0, 0
}

// countValid returns the incremental line counters (formerly a scan over
// every way of every set — hot in stats/postmortem queries).
func (c *cache) countValid() (valid, dirty int) {
	return c.valid, c.dirty
}

// Hierarchy is an inclusive cache hierarchy carrying data values.
//
// Block values live in a flat, direct-indexed store: one contiguous arena
// with as many slots as the LLC has lines (residency is LLC-bounded by
// inclusion), plus a block-number-indexed slot table sized from the backing
// extent. A block's arena slot is its LLC way slot, and the inclusion
// directory records its way slot in every private level, so the steady-state
// access path performs no allocation and no tag scan: residency at any level
// is two array reads.
type Hierarchy struct {
	cfg     Config
	nlev    int
	npriv   int      // nlev-1
	priv    []*cache // private stack, innermost first (level 0..npriv-1)
	llc     *cache
	backing Backing

	// Flat block store (replaces the historical map[uint64]*block):
	// slots[blk] is the arena slot of blk's value, or -1 when not resident.
	// The arena has one slot per LLC line and a block's arena slot IS its
	// LLC way slot (inclusion makes residency and LLC validity the same
	// set), so slots[blk] doubles as an O(1) LLC lookup: attach/detach are
	// driven by LLC insert/evict and no free-slot bookkeeping exists.
	slots    []int32
	arena    []byte
	llcLines int

	// Inclusion directory: dir[slot*npriv+l] is the way slot in private
	// level l of the block held by LLC way slot, or -1 when level l does not
	// hold it (always -1 for an invalid LLC line). Inclusion gives every
	// private-resident block an LLC line to hang this on, so residency at
	// level l is row(slots[blk])[l]. Like slots it is derivable from the
	// tag arrays: snapshots omit it and ResumeFrom rebuilds it.
	dir     []int32
	scratch []uint64 // reused by WriteBackAll / ResidentBlocks

	// poisoned reports detected-uncorrectable backing blocks (resolved from
	// the backing at construction; nil when the backing cannot poison).
	// The postmortem helpers use it to treat lost media bytes as
	// inconsistent instead of tripping the backing's media-error panic.
	poisoned func(addr uint64) bool

	tick  uint64
	stats Stats
	tmp   [BlockSize]byte
}

// New creates a hierarchy over backing memory. It panics on invalid
// configuration (a programming error).
//
// When the backing exposes its capacity (a Size() uint64 method, as
// mem.Image does), the block-slot table is sized once up front; otherwise it
// grows on demand. A backing exposing Poisoned(addr uint64) bool enables the
// poison-aware postmortem paths of ArchValue and DirtyBytesIn.
func New(cfg Config, backing Backing) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:     cfg,
		nlev:    len(cfg.Levels),
		npriv:   len(cfg.Levels) - 1,
		backing: backing,
	}
	h.priv = make([]*cache, h.npriv)
	for l := range h.priv {
		h.priv[l] = newCache(cfg.Levels[l], cfg.Replace)
	}
	h.llc = newCache(cfg.Levels[h.nlev-1], cfg.Replace)
	h.stats.Hits = make([]uint64, h.nlev)
	h.stats.Misses = make([]uint64, h.nlev)

	h.llcLines = int(h.llc.nsets) * h.llc.ways
	h.arena = make([]byte, h.llcLines*BlockSize)
	h.dir = make([]int32, h.llcLines*h.npriv)
	for i := range h.dir {
		h.dir[i] = -1
	}
	if s, ok := backing.(interface{ Size() uint64 }); ok {
		h.growSlots(s.Size() >> blockShift)
	}
	if p, ok := backing.(interface{ Poisoned(addr uint64) bool }); ok {
		h.poisoned = p.Poisoned
	}
	return h
}

// growSlots extends the slot table to cover at least nblocks blocks.
func (h *Hierarchy) growSlots(nblocks uint64) {
	if nblocks <= uint64(len(h.slots)) {
		return
	}
	grown := make([]int32, nblocks)
	copy(grown, h.slots)
	for i := len(h.slots); i < len(grown); i++ {
		grown[i] = -1
	}
	h.slots = grown
}

// row returns the directory row of the block held by LLC way ls: its way
// slot in each private level, or -1.
func (h *Hierarchy) row(ls int32) []int32 {
	return h.dir[int(ls)*h.npriv:][:h.npriv]
}

// slotOf returns blk's arena slot, or -1 when not resident.
func (h *Hierarchy) slotOf(blk uint64) int32 {
	if blk < uint64(len(h.slots)) {
		return h.slots[blk]
	}
	return -1
}

// dataAt returns the value buffer of an arena slot.
func (h *Hierarchy) dataAt(slot int32) *[BlockSize]byte {
	return (*[BlockSize]byte)(h.arena[int(slot)*BlockSize:])
}

// blockData returns the value buffer of a resident block.
func (h *Hierarchy) blockData(blk uint64) *[BlockSize]byte {
	return h.dataAt(h.slots[blk])
}

// attach makes blk resident in the flat store and returns its value buffer.
// slot is the LLC way slot blk was just inserted into (insertLLC made the
// room, so the corresponding arena slot is free by construction).
func (h *Hierarchy) attach(blk uint64, slot int32) *[BlockSize]byte {
	if blk >= uint64(len(h.slots)) {
		// Backing without a known size: grow geometrically.
		n := uint64(len(h.slots)) * 2
		if n < 1024 {
			n = 1024
		}
		for n <= blk {
			n *= 2
		}
		h.growSlots(n)
	}
	h.slots[blk] = slot
	return h.dataAt(slot)
}

// detach drops blk's value; the arena slot frees with its LLC way.
func (h *Hierarchy) detach(blk uint64) {
	h.slots[blk] = -1
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the accumulated statistics.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.Hits = append([]uint64(nil), h.stats.Hits...)
	s.Misses = append([]uint64(nil), h.stats.Misses...)
	return s
}

// Clock returns the recency clock. Every access advances it, so two equal
// readings with no Reset or ResumeFrom between them bracket no access.
func (h *Hierarchy) Clock() uint64 { return h.tick }

// ResetStats zeroes the statistics without touching cache state.
func (h *Hierarchy) ResetStats() {
	hits, misses := h.stats.Hits, h.stats.Misses
	h.stats = Stats{Hits: hits, Misses: misses}
	for i := range hits {
		hits[i], misses[i] = 0, 0
	}
}

// Load reads len(buf) bytes at addr through the cache. The leading int of
// the six access entry points (Load, Store, LoadRun, StoreRun, Stream.Load8,
// Stream.Store8) is reserved, callers pass 0; dropped with the next
// benchmark-archetype PR (benchmark/layers.go calls them positionally).
func (h *Hierarchy) Load(_ int, addr uint64, buf []byte) {
	h.stats.Loads++
	if off := int(addr & (BlockSize - 1)); off+len(buf) <= BlockSize {
		h.accessBlock(addr>>blockShift, off, buf, false)
		return
	}
	h.split(addr, buf, false)
}

// Store writes len(buf) bytes at addr through the cache (write-allocate: the
// block is brought into the cache first).
func (h *Hierarchy) Store(_ int, addr uint64, buf []byte) {
	h.stats.Stores++
	if off := int(addr & (BlockSize - 1)); off+len(buf) <= BlockSize {
		h.accessBlock(addr>>blockShift, off, buf, true)
		return
	}
	h.split(addr, buf, true)
}

// LoadRun reads len(buf)/8 consecutive 8-byte elements starting at addr,
// equivalent to issuing one 8-byte Load per element but resolving residency
// once per 64 B block. addr must be 8-byte aligned and len(buf) a multiple
// of 8 (unaligned runs fall back to the per-element path).
func (h *Hierarchy) LoadRun(_ int, addr uint64, buf []byte) {
	h.accessRun(addr, buf, false)
}

// StoreRun writes len(buf)/8 consecutive 8-byte elements starting at addr;
// the batched counterpart of per-element Store (see LoadRun).
func (h *Hierarchy) StoreRun(_ int, addr uint64, buf []byte) {
	h.accessRun(addr, buf, true)
}

// accessRun is the batched engine: per 64 B block it pays one residency
// resolution, then accounts the remaining elements of the block in bulk.
// The result is element-for-element equivalent to the scalar path — same
// tick evolution, hit/miss counts, LRU touches, dirty bits and fill/eviction
// order — because within one block the 2nd..kth scalar accesses are always
// innermost-level hits whose only effects are a tick, a Hits[0] count and an
// LRU touch (idempotent dirty marks aside).
func (h *Hierarchy) accessRun(addr uint64, buf []byte, store bool) {
	if addr&7 != 0 || len(buf)&7 != 0 {
		// Unaligned elements can straddle blocks (two ticks each); keep the
		// exact scalar semantics for them.
		for len(buf) > 0 {
			n := 8
			if n > len(buf) {
				n = len(buf)
			}
			if store {
				h.Store(0, addr, buf[:n])
			} else {
				h.Load(0, addr, buf[:n])
			}
			addr += uint64(n)
			buf = buf[n:]
		}
		return
	}
	if store {
		h.stats.Stores += uint64(len(buf)) >> 3
	} else {
		h.stats.Loads += uint64(len(buf)) >> 3
	}
	for len(buf) > 0 {
		off := int(addr & (BlockSize - 1))
		seg := BlockSize - off
		if seg > len(buf) {
			seg = len(buf)
		}
		blk := addr >> blockShift
		h.tick++
		data, inner, slot := h.ensureResident(blk)
		if store {
			copy(data[off:off+seg], buf[:seg])
			if st := inner.state[slot]; st&stDirty == 0 {
				inner.setState(slot, st|stDirty)
			}
		} else {
			copy(buf[:seg], data[off:off+seg])
		}
		if k := uint64(seg) >> 3; k > 1 {
			h.tick += k - 1
			h.stats.Hits[0] += k - 1
			inner.touch(slot, h.tick)
		}
		addr += uint64(seg)
		buf = buf[seg:]
	}
}

func (h *Hierarchy) split(addr uint64, buf []byte, store bool) {
	for len(buf) > 0 {
		off := int(addr & (BlockSize - 1))
		n := BlockSize - off
		if n > len(buf) {
			n = len(buf)
		}
		h.accessBlock(addr>>blockShift, off, buf[:n], store)
		addr += uint64(n)
		buf = buf[n:]
	}
}

func (h *Hierarchy) accessBlock(blk uint64, off int, buf []byte, store bool) {
	h.tick++
	data, inner, slot := h.ensureResident(blk)
	if store {
		copy(data[off:off+len(buf)], buf)
		// Mark dirty in the innermost level; ensureResident just returned
		// its residency, so no second lookup is needed.
		if st := inner.state[slot]; st&stDirty == 0 {
			inner.setState(slot, st|stDirty)
		}
	} else {
		copy(buf, data[off:off+len(buf)])
	}
}

// ensureResident makes blk resident in every level and returns its value
// buffer together with its innermost residency (the L1 tag array and way
// slot, or the LLC's when there are no private levels), so callers can mark
// dirtiness without a second lookup. Fill order is outermost-first so the
// inclusion invariant holds while inner levels evict.
func (h *Hierarchy) ensureResident(blk uint64) (*[BlockSize]byte, *cache, int) {
	ls := h.slotOf(blk)
	if ls < 0 {
		// No arena slot means blk is valid in no cache (every resident
		// line's value lives in the arena): miss everywhere and fill
		// straight from memory.
		for l := 0; l < h.nlev; l++ {
			h.stats.Misses[l]++
		}
		ls = int32(h.insertLLC(blk))
		data := h.attach(blk, ls)
		h.backing.ReadBlock(blk<<blockShift, data[:])
		h.stats.Fills++
		inner, slot := h.fillPrivate(h.npriv-1, blk, ls)
		return data, inner, slot
	}
	data := h.dataAt(ls)
	if h.npriv == 0 {
		h.llc.touch(int(ls), h.tick)
		h.stats.Hits[0]++
		return data, h.llc, int(ls)
	}
	// The block's directory row says which private levels hold it and where.
	row := h.row(ls)
	if s := row[0]; s >= 0 {
		l1 := h.priv[0]
		l1.touch(int(s), h.tick)
		h.stats.Hits[0]++
		return data, l1, int(s)
	}
	h.stats.Misses[0]++
	// Find the innermost level that has the block; the LLC does by inclusion.
	hitLevel := 1
	for ; hitLevel < h.npriv; hitLevel++ {
		if s := row[hitLevel]; s >= 0 {
			h.priv[hitLevel].touch(int(s), h.tick)
			break
		}
		h.stats.Misses[hitLevel]++
	}
	if hitLevel == h.npriv {
		h.llc.touch(int(ls), h.tick)
	}
	h.stats.Hits[hitLevel]++
	inner, slot := h.fillPrivate(hitLevel-1, blk, ls)
	return data, inner, slot
}

// fillPrivate inserts blk (held by LLC way ls) into private levels top down
// to 0, outermost first, and returns its innermost residency.
func (h *Hierarchy) fillPrivate(top int, blk uint64, ls int32) (*cache, int) {
	if h.npriv == 0 {
		return h.llc, int(ls)
	}
	slot := 0
	for l := top; l >= 0; l-- {
		slot = h.insertPrivate(l, blk, ls)
	}
	return h.priv[0], slot
}

// insertLLC inserts blk into the LLC, evicting a victim if needed,
// and returns the way slot used.
func (h *Hierarchy) insertLLC(blk uint64) int {
	slot := h.llc.victimSlot(blk)
	if h.llc.state[slot]&stValid != 0 {
		h.evictLLCSlot(slot)
	}
	h.llc.fill(slot, blk, h.tick)
	return slot
}

// dropPrivate back-invalidates the private copies, in levels [0, below), of
// the block held by LLC way ls, and reports whether any of them was dirty.
func (h *Hierarchy) dropPrivate(ls int32, below int) (dirty bool) {
	row := h.row(ls)[:below]
	for l, s := range row {
		if s >= 0 {
			pc := h.priv[l]
			dirty = dirty || pc.state[s]&stDirty != 0
			pc.invalidate(int(s))
			row[l] = -1
		}
	}
	return dirty
}

// evictLLCSlot evicts the block in an LLC slot: back-invalidates every
// private copy (merging dirtiness), writes the block to backing if dirty
// anywhere, and drops its value buffer.
func (h *Hierarchy) evictLLCSlot(slot int) {
	victim := h.llc.tags[slot]
	if h.dropPrivate(int32(slot), h.npriv) || h.llc.state[slot]&stDirty != 0 {
		h.backing.WriteBlock(victim<<blockShift, h.dataAt(int32(slot))[:])
		h.stats.EvictionWritebacks++
	}
	h.detach(victim)
	h.llc.invalidate(slot)
}

// insertPrivate inserts blk, held by LLC way ls, into private level l,
// evicting the policy's victim into level l+1 (which holds it by inclusion).
// Returns the way slot used.
func (h *Hierarchy) insertPrivate(l int, blk uint64, ls int32) int {
	c := h.priv[l]
	slot := c.victimSlot(blk)
	if st := c.state[slot]; st&stValid != 0 {
		vs := h.slots[c.tags[slot]]
		// Back-invalidate inner levels (inclusion within the private
		// stack), merging their dirtiness into the victim's.
		if h.dropPrivate(vs, l) || st&stDirty != 0 {
			h.markDirtyBelow(l, vs)
		}
		h.row(vs)[l] = -1
	}
	c.fill(slot, blk, h.tick)
	h.row(ls)[l] = int32(slot)
	return slot
}

// markDirtyBelow records that the block held by LLC way vs, evicted dirty
// out of private level l, is now dirty in the next level down (private l+1
// or the LLC).
func (h *Hierarchy) markDirtyBelow(l int, vs int32) {
	if l+1 < h.npriv {
		s := h.row(vs)[l+1]
		if s < 0 {
			panic("cachesim: inclusion violated: victim absent from next private level")
		}
		next := h.priv[l+1]
		next.setState(int(s), next.state[s]|stDirty)
		return
	}
	h.llc.setState(int(vs), h.llc.state[vs]|stDirty)
}

// dirtyAnywhere reports whether the block held by LLC way ls is dirty in any
// level.
func (h *Hierarchy) dirtyAnywhere(ls int32) bool {
	if h.llc.state[ls]&stDirty != 0 {
		return true
	}
	for l, s := range h.row(ls) {
		if s >= 0 && h.priv[l].state[s]&stDirty != 0 {
			return true
		}
	}
	return false
}

// cleanEverywhere clears the dirty bit of the block held by LLC way ls in
// every level. Residency is untouched.
func (h *Hierarchy) cleanEverywhere(ls int32) {
	h.llc.setState(int(ls), h.llc.state[ls]&^stDirty)
	for l, s := range h.row(ls) {
		if s >= 0 {
			pc := h.priv[l]
			pc.setState(int(s), pc.state[s]&^stDirty)
		}
	}
}

// invalidateEverywhere removes the block held by LLC way ls from every level
// and drops its value.
func (h *Hierarchy) invalidateEverywhere(ls int32) {
	h.dropPrivate(ls, h.npriv)
	h.detach(h.llc.tags[ls])
	h.llc.invalidate(int(ls))
}

// FlushResult reports what one Flush call did.
type FlushResult struct {
	Blocks       uint64 // flush instructions issued (one per block)
	DirtyFlushed uint64 // blocks written back to NVM
	CleanFlushed uint64 // clean or non-resident blocks (no write)
}

// Flush issues flush instructions for every block overlapping
// [addr, addr+size), with the given instruction semantics. This is the
// cache_block_flush primitive of the paper's runtime: persisting an object
// flushes all its blocks, but only dirty resident blocks cost a write-back.
func (h *Hierarchy) Flush(addr, size uint64, op FlushOp) FlushResult {
	var r FlushResult
	if size == 0 {
		return r
	}
	first := addr >> blockShift
	last := (addr + size - 1) >> blockShift
	for blk := first; blk <= last; blk++ {
		r.Blocks++
		h.stats.FlushOps++
		slot := h.slotOf(blk)
		if slot < 0 {
			r.CleanFlushed++
			h.stats.CleanFlushes++
			continue
		}
		if h.dirtyAnywhere(slot) {
			h.backing.WriteBlock(blk<<blockShift, h.dataAt(slot)[:])
			h.stats.DirtyFlushes++
			r.DirtyFlushed++
			h.cleanEverywhere(slot)
		} else {
			r.CleanFlushed++
			h.stats.CleanFlushes++
		}
		if op != CLWB {
			h.invalidateEverywhere(slot)
		}
	}
	return r
}

// WriteBackAll drains every dirty block to backing memory and cleans it,
// leaving blocks resident. It models the system forcing full consistency
// (used by the copy-based "verified" campaign and the C/R baseline).
//
// The drain proceeds in ascending block order. Media-write order is part of
// the determinism contract: the image's write hook (the fault injector and
// recorder) sees every WriteBlock in sequence, so a map-ordered
// drain — as this method historically did — varied run to run on identical
// seeds. Ascending order is reproducible and free with the flat store.
func (h *Hierarchy) WriteBackAll() uint64 {
	blks := h.residentSorted()
	var n uint64
	for _, blk := range blks {
		if slot := h.slots[blk]; h.dirtyAnywhere(slot) {
			h.backing.WriteBlock(blk<<blockShift, h.dataAt(slot)[:])
			h.cleanEverywhere(slot)
			h.stats.DrainWritebacks++
			n++
		}
	}
	return n
}

// residentSorted collects the resident block numbers (the valid LLC lines,
// by inclusion) in ascending order, reusing the hierarchy's scratch slice.
func (h *Hierarchy) residentSorted() []uint64 {
	blks := h.scratch[:0]
	for i, st := range h.llc.state {
		if st&stValid != 0 {
			blks = append(blks, h.llc.tags[i])
		}
	}
	slices.Sort(blks)
	h.scratch = blks
	return blks
}

// DropAll models a crash: every volatile cache loses its contents; nothing
// is written back. The backing image retains only what had already reached
// it. Statistics are preserved. The flat store is recycled in place — no
// allocation per crash.
func (h *Hierarchy) DropAll() {
	// Only a valid private line has a directory entry, so clearing those
	// (ResumeFrom's rebuild walk, backwards) empties the directory without
	// touching the rows of the far more numerous LLC-only lines.
	for l, pc := range h.priv {
		for i, st := range pc.state {
			if st&stValid != 0 {
				h.row(h.slots[pc.tags[i]])[l] = -1
				pc.lru[i] = 0
			}
		}
		pc.clearState()
	}
	for i, st := range h.llc.state {
		if st&stValid != 0 {
			h.detach(h.llc.tags[i])
			h.llc.lru[i] = 0
		}
	}
	h.llc.clearState()
}

// Reset returns the hierarchy to its just-constructed state: every level
// invalidated, the flat store empty, statistics and the recency clock
// zeroed. A Reset hierarchy behaves
// identically to a fresh New over the same backing, which is what lets
// campaign workers reuse one machine per crash test.
func (h *Hierarchy) Reset() {
	h.DropAll()
	h.llc.rng = rngSeed
	for _, pc := range h.priv {
		pc.rng = rngSeed
	}
	h.tick = 0
	h.ResetStats()
}

// DirtyBytesIn counts bytes in [addr, addr+size) whose architectural value
// (cache contents) differs from the backing image — the bytes that would be
// lost by a crash. This is exactly the paper's per-object data-inconsistency
// numerator.
//
// A poisoned backing block (detected-uncorrectable after media faults) has
// no durable value to compare against: every covered byte of a dirty cached
// block over poisoned media counts as inconsistent, instead of tripping the
// backing's media-error panic mid-postmortem.
func (h *Hierarchy) DirtyBytesIn(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	var n uint64
	first := addr >> blockShift
	last := (addr + size - 1) >> blockShift
	for blk := first; blk <= last; blk++ {
		slot := h.slotOf(blk)
		if slot < 0 || !h.dirtyAnywhere(slot) {
			continue
		}
		lo, hi := blk<<blockShift, (blk+1)<<blockShift
		if addr > lo {
			lo = addr
		}
		if addr+size < hi {
			hi = addr + size
		}
		if h.poisoned != nil && h.poisoned(blk<<blockShift) {
			n += hi - lo
			continue
		}
		data := h.dataAt(slot)
		h.backing.ReadBlock(blk<<blockShift, h.tmp[:])
		for i := lo; i < hi; i++ {
			if data[i&(BlockSize-1)] != h.tmp[i&(BlockSize-1)] {
				n++
			}
		}
	}
	return n
}

// ResidentBlocks returns the number of blocks currently held in the
// hierarchy, and how many of those are dirty somewhere.
func (h *Hierarchy) ResidentBlocks() (resident, dirty int) {
	for i, st := range h.llc.state {
		if st&stValid == 0 {
			continue
		}
		resident++
		if h.dirtyAnywhere(int32(i)) {
			dirty++
		}
	}
	return
}

// ArchValue copies the current architectural value of [addr, addr+len(buf))
// into buf without perturbing cache state or statistics: cached bytes come
// from the cache, the rest from backing. Intended for assertions and
// postmortem analysis.
//
// Bytes of a non-resident block whose backing is poisoned are lost — no
// durable or cached copy exists — and read as zero rather than raising the
// backing's media-error panic.
func (h *Hierarchy) ArchValue(addr uint64, buf []byte) {
	for len(buf) > 0 {
		blk := addr >> blockShift
		off := int(addr & (BlockSize - 1))
		n := BlockSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if slot := h.slotOf(blk); slot >= 0 {
			copy(buf[:n], h.dataAt(slot)[off:off+n])
		} else if h.poisoned != nil && h.poisoned(blk<<blockShift) {
			clear(buf[:n])
		} else {
			h.backing.ReadBlock(blk<<blockShift, h.tmp[:])
			copy(buf[:n], h.tmp[off:off+n])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

// CheckInclusion verifies the inclusion invariant and the two identities the
// access path relies on instead of scanning — slot table = LLC way, inclusion
// directory = private way — and returns an error describing the first
// violation. It finds residency with its own tag scans, never through the
// structures it audits. Used by tests.
func (h *Hierarchy) CheckInclusion() error {
	// Every valid private line is in its own set, LLC-resident, and pointed
	// at by its block's directory row.
	for l, pc := range h.priv {
		for i, st := range pc.state {
			if st&stValid == 0 {
				continue
			}
			blk := pc.tags[i]
			if pc.scan(blk) != i {
				return fmt.Errorf("block %#x valid in level %d way %d, outside its set or twice in it", blk, l, i)
			}
			ls := h.llc.scan(blk)
			if ls < 0 {
				return fmt.Errorf("block %#x valid in level %d but not in LLC", blk, l)
			}
			if got := h.row(int32(ls))[l]; got != int32(i) {
				return fmt.Errorf("block %#x valid in level %d way %d but directory says %d", blk, l, i, got)
			}
		}
	}
	// Every valid LLC line is where the slot table says, every directory
	// entry points at a valid way holding the line's tag, and no entry
	// survives for an invalid LLC line.
	for i, st := range h.llc.state {
		valid := st&stValid != 0
		if valid && h.slotOf(h.llc.tags[i]) != int32(i) {
			return fmt.Errorf("block %#x valid in LLC way %d but slot table says %d",
				h.llc.tags[i], i, h.slotOf(h.llc.tags[i]))
		}
		for l, s := range h.row(int32(i)) {
			if s < 0 {
				continue
			}
			if !valid {
				return fmt.Errorf("directory entry (level %d way %d) survives for invalid LLC way %d", l, s, i)
			}
			if pc := h.priv[l]; int(s) >= len(pc.state) || pc.state[s]&stValid == 0 || pc.tags[s] != h.llc.tags[i] {
				return fmt.Errorf("directory says block %#x is in level %d way %d, which does not hold it",
					h.llc.tags[i], l, s)
			}
		}
	}
	attached := 0
	for blk, slot := range h.slots {
		if slot < 0 {
			continue
		}
		attached++
		if h.llc.state[slot]&stValid == 0 || h.llc.tags[slot] != uint64(blk) {
			return fmt.Errorf("value buffer for block %#x in slot %d, but that LLC way holds %#x (state %#x)",
				blk, slot, h.llc.tags[slot], h.llc.state[slot])
		}
	}
	if v, _ := h.llc.countValid(); attached != v {
		return fmt.Errorf("slot leak: %d attached != %d valid LLC lines", attached, v)
	}
	return nil
}

// CheckCounters verifies, against a full scan of every tag array, the
// incremental valid/dirty line counters and that exactly the invalid ways sit
// at recency 0 (victimSlot's one-pass choice depends on it). Returns an error
// describing the first mismatch. Used by tests.
func (h *Hierarchy) CheckCounters() error {
	check := func(name string, c *cache) error {
		valid, dirty := 0, 0
		for i, s := range c.state {
			if (s&stValid != 0) != (c.lru[i] != 0) {
				return fmt.Errorf("%s: way %d has state %#x at recency %d", name, i, s, c.lru[i])
			}
			if s&stValid != 0 {
				valid++
				if s&stDirty != 0 {
					dirty++
				}
			}
		}
		if valid != c.valid || dirty != c.dirty {
			return fmt.Errorf("%s: counters (valid=%d dirty=%d) != scan (valid=%d dirty=%d)",
				name, c.valid, c.dirty, valid, dirty)
		}
		return nil
	}
	for l, pc := range h.priv {
		if err := check(h.cfg.Levels[l].Name, pc); err != nil {
			return err
		}
	}
	return check(h.cfg.Levels[h.nlev-1].Name, h.llc)
}

// Occupancy returns (valid, dirty) line counts per level name for debugging.
func (h *Hierarchy) Occupancy() map[string][2]int {
	out := make(map[string][2]int, h.nlev)
	for l, pc := range h.priv {
		v, d := pc.countValid()
		out[h.cfg.Levels[l].Name] = [2]int{v, d}
	}
	v, d := h.llc.countValid()
	out[h.cfg.Levels[h.nlev-1].Name] = [2]int{v, d}
	return out
}
