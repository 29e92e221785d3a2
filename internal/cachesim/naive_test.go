package cachesim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// This file checks the hierarchy against an independent model. naiveCache is
// a deliberately naive inclusive write-back hierarchy — a map of resident
// blocks per level, victims found by scanning the whole map, every run
// accessed one element at a time — that shares no code with cachesim.go, so
// no shortcut of the real one (slot table, inclusion directory, mask index,
// recency-0 invalid ways, batched runs, stream memos, snapshots that rebuild
// derived state) can hide behind itself. FuzzHierarchyVsNaive drives both in
// lock-step and compares everything observable after every operation.

type naiveLine struct {
	dirty bool
	stamp uint64 // LRU: tick of the last touch; FIFO: tick of the insertion
}

type naiveLevel struct {
	sets, ways uint64
	lines      map[uint64]*naiveLine // resident blocks
}

type naiveCache struct {
	levels []naiveLevel // innermost first; the last one is the LLC
	fifo   bool
	mem    []byte            // backing memory
	data   map[uint64][]byte // values of the resident blocks
	tick   uint64
	stats  Stats
}

func newNaive(cfg Config, memBytes int) *naiveCache {
	n := &naiveCache{fifo: cfg.Replace == FIFO, mem: make([]byte, memBytes), data: map[uint64][]byte{}}
	for _, lc := range cfg.Levels {
		n.levels = append(n.levels, naiveLevel{uint64(lc.Sets()), uint64(lc.Ways), map[uint64]*naiveLine{}})
	}
	n.stats.Hits = make([]uint64, len(cfg.Levels))
	n.stats.Misses = make([]uint64, len(cfg.Levels))
	return n
}

// clone deep-copies the model (the reference for Snapshot + ResumeFrom).
func (n *naiveCache) clone() *naiveCache {
	c := &naiveCache{fifo: n.fifo, mem: bytes.Clone(n.mem), data: map[uint64][]byte{}, tick: n.tick, stats: n.stats}
	c.stats.Hits = append([]uint64(nil), n.stats.Hits...)
	c.stats.Misses = append([]uint64(nil), n.stats.Misses...)
	for _, lv := range n.levels {
		lines := map[uint64]*naiveLine{}
		for b, ln := range lv.lines {
			cp := *ln
			lines[b] = &cp
		}
		c.levels = append(c.levels, naiveLevel{lv.sets, lv.ways, lines})
	}
	for b, d := range n.data {
		c.data[b] = bytes.Clone(d)
	}
	return c
}

// access makes blk resident in every level, as one demand access does, and
// returns its value buffer.
func (n *naiveCache) access(blk uint64) []byte {
	n.tick++
	hit := len(n.levels) // memory
	for l := range n.levels {
		if ln, ok := n.levels[l].lines[blk]; ok {
			n.stats.Hits[l]++
			if !n.fifo {
				ln.stamp = n.tick
			}
			hit = l
			break
		}
		n.stats.Misses[l]++
	}
	if hit == len(n.levels) {
		n.data[blk] = bytes.Clone(n.mem[blk*BlockSize : (blk+1)*BlockSize])
		n.stats.Fills++
	}
	for l := hit - 1; l >= 0; l-- { // outermost first
		lv := n.levels[l]
		victim, oldest, members := uint64(0), ^uint64(0), uint64(0)
		for b, ln := range lv.lines {
			if b%lv.sets != blk%lv.sets {
				continue
			}
			members++
			if ln.stamp < oldest {
				victim, oldest = b, ln.stamp
			}
		}
		if members == lv.ways {
			n.evict(l, victim)
		}
		lv.lines[blk] = &naiveLine{stamp: n.tick}
	}
	return n.data[blk]
}

// evict removes victim from level l and every level inside it; its dirtiness
// moves one level out, or to memory from the LLC.
func (n *naiveCache) evict(l int, victim uint64) {
	dirty := false
	for i := 0; i <= l; i++ {
		if ln, ok := n.levels[i].lines[victim]; ok {
			dirty = dirty || ln.dirty
			delete(n.levels[i].lines, victim)
		}
	}
	if l < len(n.levels)-1 {
		if dirty {
			n.levels[l+1].lines[victim].dirty = true // inclusion: it is there
		}
		return
	}
	if dirty {
		copy(n.mem[victim*BlockSize:], n.data[victim])
		n.stats.EvictionWritebacks++
	}
	delete(n.data, victim)
}

// rw is one Load or Store call: one access per block the bytes overlap.
func (n *naiveCache) rw(addr uint64, buf []byte, store bool) {
	if store {
		n.stats.Stores++
	} else {
		n.stats.Loads++
	}
	for len(buf) > 0 {
		blk, off := addr/BlockSize, addr%BlockSize
		k := min(uint64(len(buf)), BlockSize-off)
		data := n.access(blk)
		if store {
			copy(data[off:], buf[:k])
			n.levels[0].lines[blk].dirty = true
		} else {
			copy(buf[:k], data[off:])
		}
		addr, buf = addr+k, buf[k:]
	}
}

func (n *naiveCache) dirtyAnywhere(blk uint64) bool {
	for _, lv := range n.levels {
		if ln, ok := lv.lines[blk]; ok && ln.dirty {
			return true
		}
	}
	return false
}

// writeBack writes blk to memory if it is dirty anywhere and cleans it.
func (n *naiveCache) writeBack(blk uint64) bool {
	if !n.dirtyAnywhere(blk) {
		return false
	}
	copy(n.mem[blk*BlockSize:], n.data[blk])
	for _, lv := range n.levels {
		if ln, ok := lv.lines[blk]; ok {
			ln.dirty = false
		}
	}
	return true
}

func (n *naiveCache) flush(addr, size uint64, op FlushOp) {
	for blk := addr / BlockSize; blk <= (addr+size-1)/BlockSize; blk++ {
		n.stats.FlushOps++
		if n.writeBack(blk) {
			n.stats.DirtyFlushes++
		} else {
			n.stats.CleanFlushes++
		}
		if _, resident := n.data[blk]; resident && op != CLWB {
			n.evict(len(n.levels)-1, blk) // clean by now: nothing is written
		}
	}
}

func (n *naiveCache) writeBackAll() {
	for blk := uint64(0); blk < uint64(len(n.mem))/BlockSize; blk++ {
		if n.writeBack(blk) {
			n.stats.DrainWritebacks++
		}
	}
}

func (n *naiveCache) dropAll() {
	for _, lv := range n.levels {
		clear(lv.lines)
	}
	clear(n.data)
}

func (n *naiveCache) reset() {
	n.dropAll()
	n.tick = 0
	n.stats = Stats{Hits: make([]uint64, len(n.levels)), Misses: make([]uint64, len(n.levels))}
}

// arch copies the architectural value of all memory: cached bytes where a
// block is resident, backing bytes elsewhere.
func (n *naiveCache) arch() []byte {
	out := bytes.Clone(n.mem)
	for blk, d := range n.data {
		copy(out[blk*BlockSize:], d)
	}
	return out
}

// flatBacking is plain memory behind the real hierarchy.
type flatBacking []byte

func (b flatBacking) ReadBlock(addr uint64, dst []byte) {
	copy(dst, b[addr&^(BlockSize-1):][:BlockSize])
}
func (b flatBacking) WriteBlock(addr uint64, src []byte) {
	copy(b[addr&^(BlockSize-1):][:BlockSize], src)
}
func (b flatBacking) Size() uint64 { return uint64(len(b)) }

// naiveGeometries are the fuzzed shapes: the tiny and test hierarchies, a
// lone LLC, and one whose set counts (3, 6, 12) are not powers of two, so
// the modulo set index is exercised next to the mask.
func naiveGeometries() []Config {
	return []Config{
		tiny(),
		TestConfig(),
		{Name: "single", Levels: []LevelConfig{{Name: "L1", Size: 512, Ways: 2}}},
		{Name: "odd-sets", Levels: []LevelConfig{
			{Name: "L1", Size: 3 * 2 * BlockSize, Ways: 2},
			{Name: "L2", Size: 6 * 4 * BlockSize, Ways: 4},
			{Name: "L3", Size: 12 * 4 * BlockSize, Ways: 4},
		}},
	}
}

// lockstep runs one fuzz program on a real hierarchy and the naive model.
// prog[0] picks the geometry, prog[1] the replacement policy, the rest is a
// stream of operations; reading past the end yields zeros and ends the run.
//
// Under Random replacement the model cannot predict victims, so only values
// (every load, the whole architectural image) and the real hierarchy's own
// invariants are checked, and what a crash leaves in memory is copied from
// the real side.
func lockstep(t testing.TB, prog []byte) {
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	geos := naiveGeometries()
	cfg := geos[next()%uint64(len(geos))]
	cfg.Replace = Replacement(next() % 3)
	predictable := cfg.Replace != Random
	memBytes := 2 * cfg.Levels[len(cfg.Levels)-1].Size

	mem := make(flatBacking, memBytes)
	real := New(cfg, mem)
	naive := newNaive(cfg, memBytes)
	stream := real.NewStream()
	var snap *Snapshot
	var snapMem []byte
	var snapNaive *naiveCache

	addr := func(align uint64) uint64 { // leaves room for the longest run
		return (next()<<8 | next()) % uint64(memBytes-576) &^ (align - 1)
	}
	got, want := make([]byte, 512), make([]byte, 512)
	for step := 0; len(prog) > 0; step++ {
		op := next()
		switch op % 12 {
		case 0, 1: // Load, possibly across blocks
			a, k := addr(1), 1+next()%100
			real.Load(0, a, got[:k])
			naive.rw(a, want[:k], false)
			if !bytes.Equal(got[:k], want[:k]) {
				t.Fatalf("step %d: Load(%#x, %d) = %x, model %x", step, a, k, got[:k], want[:k])
			}
		case 2, 3: // Store
			a, k, v := addr(1), 1+next()%100, byte(next())
			for i := range got[:k] {
				got[i] = v + byte(i)
			}
			real.Store(0, a, got[:k])
			naive.rw(a, got[:k], true)
		case 4, 5: // LoadRun / StoreRun; a quarter of them unaligned
			a, k := addr(8), 8*(1+next()%64)
			if op&0x30 == 0 {
				a += 1 + next()%7
			}
			if op%12 == 4 {
				real.LoadRun(0, a, got[:k])
			} else {
				for i := range got[:k] {
					got[i] = byte(op) + byte(i)
				}
				real.StoreRun(0, a, got[:k])
			}
			for o := uint64(0); o < k; o += 8 {
				if op%12 == 4 {
					naive.rw(a+o, want[o:o+8], false)
				} else {
					naive.rw(a+o, got[o:o+8], true)
				}
			}
			if op%12 == 4 && !bytes.Equal(got[:k], want[:k]) {
				t.Fatalf("step %d: LoadRun(%#x, %d) = %x, model %x", step, a, k, got[:k], want[:k])
			}
		case 6, 7: // a burst on the stream handle, whose memo may be stale
			a, k := addr(8), 1+next()%24
			for i := uint64(0); i < k; i++ {
				if op%12 == 6 {
					v := stream.Load8(0, a+8*i)
					naive.rw(a+8*i, want[:8], false)
					if v != binary.LittleEndian.Uint64(want) {
						t.Fatalf("step %d: Load8(%#x) = %#x, model %x", step, a+8*i, v, want[:8])
					}
				} else {
					binary.LittleEndian.PutUint64(got, op<<32|i)
					stream.Store8(0, a+8*i, op<<32|i)
					naive.rw(a+8*i, got[:8], true)
				}
			}
		case 8, 9:
			a, size, fop := addr(1), 1+next()%200, FlushOp(next()%3)
			real.Flush(a, size, fop)
			naive.flush(a, size, fop)
		case 10:
			real.WriteBackAll()
			naive.writeBackAll()
		case 11:
			switch what := next() % 4; {
			case what == 0 || what == 1:
				if !predictable {
					copy(naive.mem, mem)
				}
				if what == 0 {
					real.DropAll()
					naive.dropAll()
				} else {
					real.Reset()
					naive.reset()
				}
			case what == 2:
				snap, snapMem, snapNaive = real.Snapshot(), bytes.Clone(mem), naive.clone()
			case snap != nil:
				real.Reset()
				copy(mem, snapMem)
				real.ResumeFrom(snap)
				naive = snapNaive.clone()
			}
		}

		audit(t, real, "after a step")
		arch := make([]byte, memBytes)
		real.ArchValue(0, arch)
		if !bytes.Equal(arch, naive.arch()) {
			t.Fatalf("step %d (op %d): architectural values differ from the model", step, op%12)
		}
		if !predictable {
			continue
		}
		if !bytes.Equal(mem, naive.mem) {
			t.Fatalf("step %d (op %d): backing bytes differ from the model", step, op%12)
		}
		if !reflect.DeepEqual(real.Stats(), naive.stats) {
			t.Fatalf("step %d (op %d): stats\n real  %+v\n model %+v", step, op%12, real.Stats(), naive.stats)
		}
		for blk := uint64(0); blk < uint64(memBytes)/BlockSize; blk++ {
			slot := real.slotOf(blk)
			_, resident := naive.data[blk]
			if (slot >= 0) != resident || (resident && real.dirtyAnywhere(slot) != naive.dirtyAnywhere(blk)) {
				t.Fatalf("step %d (op %d): block %#x resident/dirty differs from the model", step, op%12, blk)
			}
		}
		for l, lc := range cfg.Levels {
			valid, dirty := 0, 0
			for _, ln := range naive.levels[l].lines {
				valid++
				if ln.dirty {
					dirty++
				}
			}
			if occ := real.Occupancy()[lc.Name]; occ != [2]int{valid, dirty} {
				t.Fatalf("step %d (op %d): %s holds %v (valid, dirty) lines, model %d, %d", step, op%12, lc.Name, occ, valid, dirty)
			}
		}
	}
}

// FuzzHierarchyVsNaive runs its seed corpus under plain `go test`: one
// pseudo-random program per geometry and replacement policy.
func FuzzHierarchyVsNaive(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for geo := range naiveGeometries() {
		for policy := 0; policy < 3; policy++ {
			prog := make([]byte, 1500)
			rng.Read(prog)
			prog[0], prog[1] = byte(geo), byte(policy)
			f.Add(prog)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			t.Skip("long programs only repeat what short ones reach")
		}
		lockstep(t, prog)
	})
}
