// Package faultmodel implements a deterministic, seed-driven NVM media-fault
// layer for the crash tester. The paper (and the rest of this reproduction)
// treats the NVM image as perfectly intact after a crash: only volatile cache
// contents are lost. Real persistent memory fails in more ways than that:
//
//   - torn writes: the cache block being written back or flushed when power
//     fails can land partially, at the 8-byte atomic-write granularity x86
//     guarantees — the surviving block interleaves old and new words
//     (the failure surface WITCHER-style crash-consistency checkers probe);
//   - raw bit errors: media cells flip with a raw bit-error rate (RBER),
//     so a crash surfaces accumulated cell errors in the surviving image;
//   - ECC: the memory controller protects each block with an error-correcting
//     code, turning raw errors into one of three outcomes — corrected
//     (data intact), detected-uncorrectable (the block reads as poisoned and
//     raises a machine-check analogue), or silent corruption (errors beyond
//     the detection capability pass through unnoticed).
//
// An Injector is attached to one simulated machine for one crash test. It
// observes every media write through the image's write hook (so it knows
// which block was in flight when the crash fired) and mutates the image once,
// at crash time, via ApplyCrash. All randomness comes from the injector's own
// seeded source, so fault campaigns are reproducible independent of test
// scheduling. The zero Config is provably inert: Enabled() is false and no
// injector is attached at all.
package faultmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"easycrash/internal/mem"
)

// WordSize is the atomic-write granularity in bytes: 8-byte aligned stores
// are guaranteed power-fail atomic on x86 NVM platforms, so torn writes
// interleave old and new content at this granularity.
const WordSize = 8

// ECC models the per-cache-block error-correcting code of the memory
// controller. The zero value disables ECC: every raw bit error passes
// through as silent corruption.
type ECC struct {
	// CorrectBits is the number of raw bit errors per block the code
	// corrects (outcome: data intact).
	CorrectBits int
	// DetectBits is the number of raw bit errors per block the code
	// detects; errors in (CorrectBits, DetectBits] poison the block
	// (detected-uncorrectable), errors above DetectBits corrupt silently.
	DetectBits int
}

// Enabled reports whether any protection is configured.
func (e ECC) Enabled() bool { return e.CorrectBits > 0 || e.DetectBits > 0 }

// SECDED returns the per-block analogue of the classic single-error-correct,
// double-error-detect code: correct 1 bit, detect 2.
func SECDED() ECC { return ECC{CorrectBits: 1, DetectBits: 2} }

// Config describes the media-fault model for one campaign. The zero value
// injects nothing.
type Config struct {
	// RBER is the raw bit-error rate: the per-bit probability that a cell
	// of the surviving image is flipped at crash time.
	RBER float64
	// TornWrites tears the block being written back or flushed when the
	// crash fires, interleaving old and new 8-byte words.
	TornWrites bool
	// ECC is the per-block protection applied to raw bit errors.
	ECC ECC
}

// Enabled reports whether the configuration injects any faults.
func (c Config) Enabled() bool { return c.RBER > 0 || c.TornWrites }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RBER < 0 || c.RBER > 1 {
		return fmt.Errorf("faultmodel: RBER %v outside [0,1]", c.RBER)
	}
	if c.ECC.CorrectBits < 0 || c.ECC.DetectBits < 0 {
		return fmt.Errorf("faultmodel: negative ECC capability %+v", c.ECC)
	}
	if c.ECC.Enabled() && c.ECC.DetectBits < c.ECC.CorrectBits {
		return fmt.Errorf("faultmodel: ECC detects %d bits but corrects %d", c.ECC.DetectBits, c.ECC.CorrectBits)
	}
	return nil
}

// Injection summarises the faults one crash injected into the image.
type Injection struct {
	// TornWords counts 8-byte words of the in-flight block that reverted
	// to their pre-write content (only words that actually differed).
	TornWords int
	// CorrectedBlocks counts blocks whose raw errors ECC corrected.
	CorrectedBlocks int
	// PoisonedBlocks counts detected-uncorrectable blocks: their data is
	// lost and any read raises a media error.
	PoisonedBlocks int
	// SilentBlocks counts blocks corrupted beyond ECC detection (or with
	// ECC disabled): their flipped bits survive unnoticed.
	SilentBlocks int
	// FlippedBits counts the raw bit errors actually applied to the image
	// (errors in corrected or poisoned blocks are not applied).
	FlippedBits int
}

// Any reports whether the injection changed or poisoned anything.
func (i Injection) Any() bool {
	return i.TornWords > 0 || i.PoisonedBlocks > 0 || i.SilentBlocks > 0
}

// Injector injects media faults into one machine's image at crash time.
// It is not safe for concurrent use; each crash test owns one injector.
type Injector struct {
	cfg Config
	rng *rand.Rand

	writeSeq uint64 // media writes observed so far

	// Most recent media write (candidate torn-write target).
	lastBase uint64
	lastOld  [mem.BlockSize]byte
	hasLast  bool

	// Armed tear target, snapshotted when the crash fires.
	tearBase  uint64
	tearOld   [mem.BlockSize]byte
	tearArmed bool
}

// New returns an injector for one crash test. The seed fully determines the
// injected faults, so campaigns replay identically for a given seed.
func New(cfg Config, seed int64) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// ObserveWrite is the mem.WriteHook the owning machine installs: it records
// the most recent block write so ApplyCrash knows which block was in flight.
// old aliases the image; the injector copies what it needs.
func (in *Injector) ObserveWrite(base uint64, old, new []byte) {
	in.writeSeq++
	if !in.cfg.TornWrites {
		return
	}
	in.lastBase = base
	copy(in.lastOld[:], old)
	in.hasLast = true
}

// WriteSeq returns the number of media writes observed so far. The machine
// compares it across crash-clock ticks to decide whether a write was in
// flight when the crash fired.
func (in *Injector) WriteSeq() uint64 { return in.writeSeq }

// ArmTear marks the most recently observed media write as in flight at the
// crash; ApplyCrash will tear it. Called by the machine at the instant the
// crash fires, before any post-crash writes can overwrite the target.
func (in *Injector) ArmTear() {
	if !in.hasLast {
		return
	}
	in.tearBase = in.lastBase
	in.tearOld = in.lastOld
	in.tearArmed = true
}

// InFlight identifies the media write that was in flight when a crash fired:
// the block base and its pre-write content, the torn-write target ApplyCrash
// reverts word by word. It is a plain value — recorded once on a reference
// execution, it can arm any trial's injector via ReplayCrash.
type InFlight struct {
	Base uint64
	Old  [mem.BlockSize]byte
}

// Recorder observes media writes without injecting anything: it keeps the
// same in-flight-write window an Injector keeps (most recent write and its
// pre-write content), but owns no RNG and never mutates the image. The
// prefix-sharing campaign engine attaches one to the shared reference
// execution; at each fork point the recorded InFlight is replayed into every
// trial's own injector via ReplayCrash, so trial injectors observe nothing
// during the shared prefix and stay byte-identical to their live-engine
// counterparts (which observed every write themselves but only consume RNG at
// ApplyCrash).
type Recorder struct {
	writeSeq uint64
	last     InFlight
}

// ObserveWrite is the mem.WriteHook the reference machine installs. Unlike
// Injector.ObserveWrite it always records the pre-write content: the recorder
// serves trials with any fault configuration, and storing 64 bytes per media
// write costs less than branching on one.
func (r *Recorder) ObserveWrite(base uint64, old, new []byte) {
	r.writeSeq++
	r.last.Base = base
	copy(r.last.Old[:], old)
}

// WriteSeq returns the number of media writes observed so far; the machine
// compares it across crash-clock ticks exactly as it does an injector's.
func (r *Recorder) WriteSeq() uint64 { return r.writeSeq }

// Last returns the most recently observed media write.
func (r *Recorder) Last() InFlight { return r.last }

// ReplayCrash applies the injector's crash-time faults to an image using a
// recorded in-flight write instead of the injector's own observation window:
// the tear target is armed from inflight (nil = no write was in flight) and
// the faults are drawn from the injector's seeded source exactly as
// ApplyCrash draws them. An injector that observed the same execution live
// arms the same target — the live window (lastBase/lastOld) tracks the most
// recent media write, which is what the recorder hands over — and consumes
// RNG only here, so replayed and live injections are byte-identical.
func (in *Injector) ReplayCrash(img *mem.Image, extent uint64, inflight *InFlight) Injection {
	if inflight != nil && in.cfg.TornWrites {
		in.tearBase = inflight.Base
		in.tearOld = inflight.Old
		in.tearArmed = true
	}
	return in.ApplyCrash(img, extent)
}

// ApplyCrash mutates the image the way the media fails at power loss: tears
// the armed in-flight block, then applies RBER bit flips filtered through
// the per-block ECC model. extent bounds the bit-flip region to the
// allocated part of the image (raw errors in never-used capacity cannot
// affect the application). It returns a summary of what was injected.
func (in *Injector) ApplyCrash(img *mem.Image, extent uint64) Injection {
	var rep Injection

	// (a) Torn write: each 8-byte word of the in-flight block independently
	// either reached the media or kept its old content.
	if in.tearArmed {
		var cur [mem.BlockSize]byte
		img.ReadBlock(in.tearBase, cur[:])
		for w := 0; w < mem.BlockSize/WordSize; w++ {
			lo := w * WordSize
			if in.rng.Intn(2) == 0 {
				continue // this word reached the media
			}
			old := in.tearOld[lo : lo+WordSize]
			if !bytesEqual(cur[lo:lo+WordSize], old) {
				rep.TornWords++
			}
			copy(cur[lo:lo+WordSize], old)
		}
		img.RawWrite(in.tearBase, cur[:])
		in.tearArmed = false
	}

	// (b) Raw bit errors over the surviving image, (c) filtered per block
	// through ECC.
	if in.cfg.RBER > 0 && extent > 0 {
		if extent > img.Size() {
			extent = img.Size()
		}
		nbits := float64(extent) * 8
		flips := make(map[uint64][]int) // block base -> bit offsets in block
		for k := in.poisson(in.cfg.RBER * nbits); k > 0; k-- {
			bit := uint64(in.rng.Int63n(int64(extent) * 8))
			base := (bit / 8) &^ (mem.BlockSize - 1)
			flips[base] = append(flips[base], int(bit-base*8))
		}
		bases := make([]uint64, 0, len(flips))
		//eclint:allow campaigndet — key collection, sorted below
		for b := range flips {
			bases = append(bases, b)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		for _, base := range bases {
			n := len(flips[base])
			switch {
			case in.cfg.ECC.Enabled() && n <= in.cfg.ECC.CorrectBits:
				rep.CorrectedBlocks++
			case in.cfg.ECC.Enabled() && n <= in.cfg.ECC.DetectBits:
				img.PoisonBlock(base)
				rep.PoisonedBlocks++
			default:
				var blk [mem.BlockSize]byte
				img.ReadBlock(base, blk[:])
				for _, b := range flips[base] {
					blk[b/8] ^= 1 << (b % 8)
				}
				img.RawWrite(base, blk[:])
				rep.SilentBlocks++
				rep.FlippedBits += n
			}
		}
	}
	return rep
}

// poisson draws from Poisson(lambda) using the injector's own source:
// Knuth's product method for small lambda, a normal approximation above.
func (in *Injector) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		k := int(math.Round(lambda + math.Sqrt(lambda)*in.rng.NormFloat64()))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= in.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func bytesEqual(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
