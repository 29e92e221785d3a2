// Package mem provides the simulated non-volatile main memory (NVM) substrate
// used by the whole reproduction: a byte-accurate memory image that survives
// simulated crashes, plus a registry of application data objects placed in it.
//
// The memory image plays the role of the Optane DC PMM in app-direct mode: it
// is the durable truth. Volatile state (the caches in package cachesim) sits
// in front of it; only cache write-backs and explicit flushes reach the image.
// Write traffic into the image is counted at cache-block granularity, which is
// what the paper's NVM-endurance experiments (Figure 9) measure. Kernels
// never hold an Image: sim.Machine owns it, so every kernel access goes
// through the cache model.
package mem

import (
	"fmt"
	"sort"
)

// BlockSize is the cache-block size in bytes used throughout the simulator.
// The paper simulates 64-byte lines (Xeon Gold 6126).
const BlockSize = 64

// SnapPageSize is the sharing granularity of copy-on-write image forks: a
// Fork copies only the pages dirtied since the previous Fork and shares the
// rest with it. 4 KiB keeps the dirty-tracking table small (one bool per
// page) while a typical inter-fork delta touches only a handful of pages.
const SnapPageSize = 4096

const snapPageShift = 12

// Image is a byte-accurate simulated NVM image. The zero value is not usable;
// create one with NewImage.
type Image struct {
	data        []byte
	blockWrites uint64
	writeHook   WriteHook
	poisoned    map[uint64]struct{} // block base addrs that read as uncorrectable

	// Copy-on-write fork tracking (nil until the first Fork): snapDirty[i]
	// marks page i as mutated since the previous Fork, lastFork[i] is the
	// immutable copy of page i the previous Fork produced. A Fork copies
	// dirty pages and shares clean ones with its predecessor.
	snapDirty []bool
	lastFork  [][]byte
}

// WriteHook observes every in-band block write into the image before it is
// applied: base is the block base address, old the current contents and new
// the incoming contents (both BlockSize bytes). Both slices alias live
// buffers — a hook must copy what it keeps. The media-fault layer installs
// one to learn which block is in flight when a crash fires.
type WriteHook func(base uint64, old, new []byte)

// MediaError is the panic payload raised by reading a poisoned block — the
// simulator's analogue of the machine-check exception a detected-
// uncorrectable NVM error raises.
type MediaError struct {
	Addr uint64 // poisoned block base address
}

// Error implements error.
func (e *MediaError) Error() string {
	return fmt.Sprintf("mem: detected-uncorrectable media error reading block %#x", e.Addr)
}

// NewImage creates an NVM image of the given size in bytes, rounded up to a
// whole number of cache blocks.
func NewImage(size uint64) *Image {
	size = (size + BlockSize - 1) &^ (BlockSize - 1)
	return &Image{data: make([]byte, size)}
}

// Size returns the image capacity in bytes.
func (im *Image) Size() uint64 { return uint64(len(im.data)) }

// ReadBlock copies the cache block containing addr into dst (len BlockSize).
// Reading a poisoned block panics with a *MediaError — the detected-
// uncorrectable outcome of the ECC model; the crash tester recovers it and
// classifies the test.
func (im *Image) ReadBlock(addr uint64, dst []byte) {
	base := addr &^ (BlockSize - 1)
	if im.poisoned != nil {
		if _, bad := im.poisoned[base]; bad {
			panic(&MediaError{Addr: base})
		}
	}
	copy(dst, im.data[base:base+BlockSize])
}

// WriteBlock writes one cache block into the image and counts one NVM write.
// This is the only mutation path used by the cache hierarchy, so blockWrites
// counts exactly the media writes the paper's endurance analysis counts.
// A full-block write re-establishes the block's ECC, healing any poison.
func (im *Image) WriteBlock(addr uint64, src []byte) {
	base := addr &^ (BlockSize - 1)
	if im.writeHook != nil {
		im.writeHook(base, im.data[base:base+BlockSize], src[:BlockSize])
	}
	if im.poisoned != nil {
		delete(im.poisoned, base)
	}
	copy(im.data[base:base+BlockSize], src[:BlockSize])
	im.blockWrites++
	if im.snapDirty != nil {
		im.snapDirty[base>>snapPageShift] = true
	}
}

// markSnapRange records that [addr, addr+n) was mutated since the last Fork.
// A no-op (one branch) until the first Fork enables tracking.
func (im *Image) markSnapRange(addr, n uint64) {
	if im.snapDirty == nil || n == 0 {
		return
	}
	for p := addr >> snapPageShift; p <= (addr+n-1)>>snapPageShift; p++ {
		im.snapDirty[p] = true
	}
}

// SetWriteHook installs an observer for in-band block writes (nil removes
// it). The media-fault layer uses it to track the write in flight at a
// crash; a nil hook costs one predictable branch per media write.
func (im *Image) SetWriteHook(h WriteHook) { im.writeHook = h }

// PoisonBlock marks the block containing addr as detected-uncorrectable:
// its data is considered lost and ReadBlock panics with a *MediaError until
// a full-block write heals it.
func (im *Image) PoisonBlock(addr uint64) {
	if im.poisoned == nil {
		im.poisoned = make(map[uint64]struct{})
	}
	im.poisoned[addr&^(BlockSize-1)] = struct{}{}
}

// ClearPoison heals the block containing addr without writing data.
func (im *Image) ClearPoison(addr uint64) {
	delete(im.poisoned, addr&^(BlockSize-1))
}

// Poisoned reports whether the block containing addr is poisoned.
func (im *Image) Poisoned(addr uint64) bool {
	_, bad := im.poisoned[addr&^(BlockSize-1)]
	return bad
}

// PoisonedBlocks returns the poisoned block base addresses in ascending
// order — the postmortem record the crash tester carries into restart.
func (im *Image) PoisonedBlocks() []uint64 {
	if len(im.poisoned) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(im.poisoned))
	for b := range im.poisoned {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BlockWrites returns the number of cache-block writes the image has absorbed.
func (im *Image) BlockWrites() uint64 { return im.blockWrites }

// Bytes returns the raw image contents for the half-open range [addr, addr+n).
// The returned slice aliases the image; callers must not hold it across
// mutations they do not intend to observe. It sees durable state only.
func (im *Image) Bytes(addr, n uint64) []byte { return im.data[addr : addr+n] }

// RawWrite copies bytes into the image without counting NVM writes: the
// out-of-band path of media-fault injection and test setup.
func (im *Image) RawWrite(addr uint64, src []byte) {
	copy(im.data[addr:], src)
	im.markSnapRange(addr, uint64(len(src)))
}

// ImageSnapshot is an immutable copy-on-write snapshot of an image prefix,
// produced by Fork. Its pages are plain copies, shared structurally with the
// neighbouring forks of the same image where the content did not change in
// between, so concurrent readers never observe the live image mutating.
type ImageSnapshot struct {
	extent      uint64
	pages       [][]byte
	blockWrites uint64
}

// Extent returns the number of image-prefix bytes the snapshot captured.
func (s *ImageSnapshot) Extent() uint64 { return s.extent }

// copyTo copies the snapshot contents into dst (len >= Extent).
func (s *ImageSnapshot) copyTo(dst []byte) {
	off := uint64(0)
	for _, p := range s.pages {
		n := s.extent - off
		if n > SnapPageSize {
			n = SnapPageSize
		}
		copy(dst[off:off+n], p[:n])
		off += n
	}
}

// Fork snapshots the first extent bytes of the image as an immutable
// ImageSnapshot. The first Fork copies every covered page and enables
// page-granular dirty tracking; subsequent Forks copy only the pages written
// since the previous Fork (through any mutation path — block writes, raw
// writes, RestoreSnapshot) and share the untouched pages with it. This is what lets a
// campaign's reference machine hand a durable-image copy to every trial at
// page-delta cost instead of a full 64 MiB copy each.
//
// Forking does not capture poison state; the campaign fast path that forks
// runs with the media-fault layer detached, so the image cannot be poisoned.
func (im *Image) Fork(extent uint64) *ImageSnapshot {
	if extent > im.Size() {
		extent = im.Size()
	}
	if im.snapDirty == nil {
		npages := (im.Size() + SnapPageSize - 1) / SnapPageSize
		im.snapDirty = make([]bool, npages)
		for i := range im.snapDirty {
			im.snapDirty[i] = true
		}
		im.lastFork = make([][]byte, npages)
	}
	npages := int((extent + SnapPageSize - 1) / SnapPageSize)
	pages := make([][]byte, npages)
	for i := range pages {
		if !im.snapDirty[i] && im.lastFork[i] != nil {
			pages[i] = im.lastFork[i]
			continue
		}
		lo := uint64(i) << snapPageShift
		hi := lo + SnapPageSize
		if hi > im.Size() {
			hi = im.Size()
		}
		p := make([]byte, SnapPageSize)
		copy(p, im.data[lo:hi])
		pages[i] = p
		im.lastFork[i] = p
		im.snapDirty[i] = false
	}
	return &ImageSnapshot{extent: extent, pages: pages, blockWrites: im.blockWrites}
}

// RestoreSnapshot loads a forked snapshot into the image: the captured prefix
// is overwritten and the write counter is set to the forked machine's
// value. The caller is responsible for the bytes past the snapshot extent
// (a freshly reset image holds zeros there, matching the forked image, whose
// in-band traffic never leaves its allocated prefix).
func (im *Image) RestoreSnapshot(s *ImageSnapshot) {
	s.copyTo(im.data)
	im.blockWrites = s.blockWrites
	im.markSnapRange(0, s.extent)
	im.poisoned = nil
}

// ResetPrefix returns the image to its as-constructed state — zero write
// counter, no poison, no write hook — but zeroes only the first n bytes of
// contents (rounded up to a whole block). Campaign workers recycle one image
// across crash tests this way; knowing the high-water mark of past writes
// (for a Space, its Extent) they avoid re-zeroing untouched capacity.
func (im *Image) ResetPrefix(n uint64) {
	n = (n + BlockSize - 1) &^ (BlockSize - 1)
	if n > uint64(len(im.data)) {
		n = uint64(len(im.data))
	}
	clear(im.data[:n])
	im.blockWrites = 0
	im.poisoned = nil
	im.writeHook = nil
	im.snapDirty = nil
	im.lastFork = nil
}

// Object describes one application data object placed in simulated NVM.
// Following the paper (§2.2) only heap and global objects are modelled.
type Object struct {
	Name string
	Addr uint64
	Size uint64
	// Candidate marks a candidate critical data object (§5.1): its lifetime
	// is the main computation loop and it is not read-only.
	Candidate bool
}

// End returns the first address past the object.
func (o Object) End() uint64 { return o.Addr + o.Size }

// Space is an allocator plus data-object registry over an Image. Objects are
// block-aligned so flushing an object never touches a neighbouring object's
// blocks, matching how the paper's runtime flushes whole objects.
type Space struct {
	img    *Image
	brk    uint64
	byName map[string]int
	objs   []Object
}

// NewSpace creates an object space that allocates over img. The space hands
// out addresses only; reads and writes go through whoever owns the image.
func NewSpace(img *Image) *Space {
	return &Space{img: img, byName: make(map[string]int)}
}

// Reset forgets every registered object and returns the image to its
// as-constructed state, zeroing only the allocated prefix (in-band traffic
// and fault injection are both bounded by Extent, so bytes past the brk were
// never written). After Reset the space is indistinguishable from a fresh
// NewSpace over a fresh image of the same size.
func (s *Space) Reset() {
	s.img.ResetPrefix(s.brk)
	s.brk = 0
	s.objs = s.objs[:0]
	clear(s.byName)
}

// Alloc places a new object of size bytes, block-aligned, and registers it.
// It panics if the name is already taken or the image is exhausted: both are
// programming errors in kernel setup, not runtime conditions.
func (s *Space) Alloc(name string, size uint64, candidate bool) Object {
	if _, dup := s.byName[name]; dup {
		panic("mem: duplicate object name " + name)
	}
	if size == 0 {
		panic("mem: zero-size object " + name)
	}
	addr := (s.brk + BlockSize - 1) &^ (BlockSize - 1)
	if addr+size > s.img.Size() {
		panic(fmt.Sprintf("mem: out of simulated NVM allocating %s (%d bytes, brk %d, cap %d)",
			name, size, addr, s.img.Size()))
	}
	s.brk = addr + size
	o := Object{Name: name, Addr: addr, Size: size, Candidate: candidate}
	s.byName[name] = len(s.objs)
	s.objs = append(s.objs, o)
	return o
}

// AllocF64 allocates an object holding n float64 values.
func (s *Space) AllocF64(name string, n int, candidate bool) Object {
	return s.Alloc(name, uint64(n)*8, candidate)
}

// AllocI64 allocates an object holding n int64 values.
func (s *Space) AllocI64(name string, n int, candidate bool) Object {
	return s.Alloc(name, uint64(n)*8, candidate)
}

// Extent returns the allocation high-water mark: the first address past all
// registered objects. The media-fault layer bounds raw-bit-error injection
// to [0, Extent) — errors in never-allocated capacity cannot affect the
// application.
func (s *Space) Extent() uint64 { return s.brk }

// Object looks up a registered object by name.
func (s *Space) Object(name string) (Object, bool) {
	i, ok := s.byName[name]
	if !ok {
		return Object{}, false
	}
	return s.objs[i], true
}

// MustObject looks up a registered object by name and panics if absent.
func (s *Space) MustObject(name string) Object {
	o, ok := s.Object(name)
	if !ok {
		panic("mem: unknown object " + name)
	}
	return o
}

// Candidates returns the candidate critical data objects in allocation order.
func (s *Space) Candidates() []Object {
	var out []Object
	for _, o := range s.objs {
		if o.Candidate {
			out = append(out, o)
		}
	}
	return out
}

// Footprint returns the total bytes allocated to registered objects.
func (s *Space) Footprint() uint64 {
	var t uint64
	for _, o := range s.objs {
		t += o.Size
	}
	return t
}

// CandidateFootprint returns the total bytes of candidate objects.
func (s *Space) CandidateFootprint() uint64 {
	var t uint64
	for _, o := range s.objs {
		if o.Candidate {
			t += o.Size
		}
	}
	return t
}
