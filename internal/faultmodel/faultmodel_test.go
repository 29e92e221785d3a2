package faultmodel

import (
	"bytes"
	"testing"

	"easycrash/internal/mem"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{RBER: -0.1},
		{RBER: 1.5},
		{ECC: ECC{CorrectBits: -1}},
		{ECC: ECC{CorrectBits: 2, DetectBits: -3}},
		{ECC: ECC{CorrectBits: 3, DetectBits: 1}},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	good := []Config{
		{},
		{RBER: 1e-4, TornWrites: true},
		{RBER: 1, ECC: SECDED()},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config enabled")
	}
	if (Config{ECC: SECDED()}).Enabled() {
		t.Fatal("ECC alone (no error source) should not enable injection")
	}
	if !(Config{TornWrites: true}).Enabled() || !(Config{RBER: 1e-9}).Enabled() {
		t.Fatal("torn writes / RBER should enable injection")
	}
	if got := SECDED(); got.CorrectBits != 1 || got.DetectBits != 2 || !got.Enabled() {
		t.Fatalf("SECDED() = %+v", got)
	}
}

// fillImage writes a recognisable pattern directly into every byte.
func fillImage(img *mem.Image) {
	buf := make([]byte, img.Size())
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	img.RawWrite(0, buf)
}

func TestZeroConfigInert(t *testing.T) {
	img := mem.NewImage(4 * mem.BlockSize)
	fillImage(img)
	before := bytes.Clone(img.Bytes(0, img.Size()))

	in := New(Config{}, 42)
	// Observe a write as the machine would, then crash.
	blk := make([]byte, mem.BlockSize)
	img.SetWriteHook(in.ObserveWrite)
	img.WriteBlock(0, blk)
	in.ArmTear() // no torn writes configured: must be a no-op
	rep := in.ApplyCrash(img, img.Size())
	if rep.Any() || rep != (Injection{}) {
		t.Fatalf("zero config injected %+v", rep)
	}
	after := bytes.Clone(img.Bytes(0, img.Size()))
	// Only the observed WriteBlock itself changed the image.
	copy(before[:mem.BlockSize], blk)
	if !bytes.Equal(before, after) {
		t.Fatal("zero config mutated the image at crash time")
	}
}

func TestTornWriteInterleavesWords(t *testing.T) {
	img := mem.NewImage(2 * mem.BlockSize)
	oldBlk := make([]byte, mem.BlockSize)
	newBlk := make([]byte, mem.BlockSize)
	for i := range oldBlk {
		oldBlk[i] = 0x11
		newBlk[i] = 0xEE
	}
	img.RawWrite(mem.BlockSize, oldBlk)

	in := New(Config{TornWrites: true}, 3)
	img.SetWriteHook(in.ObserveWrite)
	img.WriteBlock(mem.BlockSize, newBlk)
	in.ArmTear()
	rep := in.ApplyCrash(img, img.Size())

	got := make([]byte, mem.BlockSize)
	img.ReadBlock(mem.BlockSize, got)
	reverted := 0
	for w := 0; w < mem.BlockSize/WordSize; w++ {
		word := got[w*WordSize : (w+1)*WordSize]
		switch {
		case bytes.Equal(word, oldBlk[:WordSize]):
			reverted++
		case bytes.Equal(word, newBlk[:WordSize]):
		default:
			t.Fatalf("word %d is neither old nor new: % x", w, word)
		}
	}
	if rep.TornWords != reverted {
		t.Fatalf("TornWords = %d, image shows %d reverted words", rep.TornWords, reverted)
	}
	// Untouched block survives.
	img.ReadBlock(0, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("tear leaked into a neighbouring block")
		}
	}
}

func TestTornWriteOnlyCountsChangedWords(t *testing.T) {
	// Writing identical content: tearing it must not count torn words.
	img := mem.NewImage(mem.BlockSize)
	blk := make([]byte, mem.BlockSize)
	for i := range blk {
		blk[i] = 0x5A
	}
	img.RawWrite(0, blk)
	in := New(Config{TornWrites: true}, 9)
	img.SetWriteHook(in.ObserveWrite)
	img.WriteBlock(0, blk)
	in.ArmTear()
	if rep := in.ApplyCrash(img, img.Size()); rep.TornWords != 0 {
		t.Fatalf("identical rewrite reported %d torn words", rep.TornWords)
	}
}

func TestECCOutcomes(t *testing.T) {
	// One block, RBER high enough that the block collects many raw errors;
	// the ECC capability then decides the outcome class.
	cases := []struct {
		name string
		ecc  ECC
		want func(Injection, *mem.Image) error
	}{
		{"off-silent", ECC{}, nil},
		{"huge-correct", ECC{CorrectBits: 1 << 20, DetectBits: 1 << 20}, nil},
		{"detect-poison", ECC{CorrectBits: 0, DetectBits: 1 << 20}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := mem.NewImage(mem.BlockSize)
			fillImage(img)
			before := bytes.Clone(img.Bytes(0, img.Size()))
			in := New(Config{RBER: 0.25, ECC: tc.ecc}, 11)
			rep := in.ApplyCrash(img, img.Size())
			switch tc.name {
			case "off-silent":
				if rep.SilentBlocks != 1 || rep.FlippedBits == 0 {
					t.Fatalf("ECC off: %+v", rep)
				}
				if bytes.Equal(before, img.Bytes(0, img.Size())) {
					t.Fatal("silent corruption left the image unchanged")
				}
			case "huge-correct":
				if rep.CorrectedBlocks != 1 || rep.SilentBlocks != 0 || rep.PoisonedBlocks != 0 {
					t.Fatalf("corrected: %+v", rep)
				}
				if !bytes.Equal(before, img.Bytes(0, img.Size())) {
					t.Fatal("corrected errors mutated the image")
				}
			case "detect-poison":
				if rep.PoisonedBlocks != 1 || rep.SilentBlocks != 0 {
					t.Fatalf("poisoned: %+v", rep)
				}
				if !img.Poisoned(0) {
					t.Fatal("block not poisoned")
				}
				if !bytes.Equal(before, img.Bytes(0, img.Size())) {
					t.Fatal("poisoned block's data should be left as-is (it is unreadable, not rewritten)")
				}
			}
		})
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func(seed int64) ([]byte, Injection) {
		img := mem.NewImage(8 * mem.BlockSize)
		fillImage(img)
		in := New(Config{RBER: 0.01, TornWrites: true, ECC: SECDED()}, seed)
		img.SetWriteHook(in.ObserveWrite)
		blk := make([]byte, mem.BlockSize)
		img.WriteBlock(3*mem.BlockSize, blk)
		in.ArmTear()
		rep := in.ApplyCrash(img, img.Size())
		return bytes.Clone(img.Bytes(0, img.Size())), rep
	}
	img1, rep1 := run(77)
	img2, rep2 := run(77)
	if rep1 != rep2 || !bytes.Equal(img1, img2) {
		t.Fatal("same seed produced different injections")
	}
	img3, rep3 := run(78)
	if rep1 == rep3 && bytes.Equal(img1, img3) {
		t.Fatal("different seeds produced identical injections")
	}
}

func TestPoissonMatchesMean(t *testing.T) {
	in := New(Config{}, 5)
	for _, lambda := range []float64{0.5, 4, 25, 200} {
		const n = 2000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(in.poisson(lambda))
		}
		got := sum / n
		if got < lambda*0.85 || got > lambda*1.15 {
			t.Errorf("poisson(%v) mean %v over %d draws", lambda, got, n)
		}
	}
	if in.poisson(0) != 0 || in.poisson(-1) != 0 {
		t.Error("non-positive lambda should draw 0")
	}
}

func TestRecorderWindow(t *testing.T) {
	rec := &Recorder{}
	if rec.WriteSeq() != 0 {
		t.Fatalf("fresh recorder WriteSeq = %d", rec.WriteSeq())
	}
	old := make([]byte, mem.BlockSize)
	old[3] = 0xAB
	rec.ObserveWrite(2*mem.BlockSize, old, nil)
	old[3] = 0xCD // the recorder must have copied, not aliased
	rec.ObserveWrite(5*mem.BlockSize, old, nil)
	if rec.WriteSeq() != 2 {
		t.Fatalf("WriteSeq = %d after two writes", rec.WriteSeq())
	}
	last := rec.Last()
	if last.Base != 5*mem.BlockSize || last.Old[3] != 0xCD {
		t.Fatalf("Last() = base %#x old[3]=%#x", last.Base, last.Old[3])
	}
}

// TestReplayCrashTearGate: ReplayCrash arms a tear only when the trial's
// config tears writes AND a write was actually in flight — the same two
// conditions the live machine's crash-time arming checks.
func TestReplayCrashTearGate(t *testing.T) {
	const size = 4 * mem.BlockSize
	pristine := mem.NewImage(size)
	fillImage(pristine)
	want := pristine.Bytes(0, size)

	inflight := &InFlight{Base: mem.BlockSize}
	// Pre-write content differs from the image in every word, so an armed
	// tear reverts (on average) half the words — seed 3 tears at least one.
	for i := range inflight.Old {
		inflight.Old[i] = 0xFF
	}

	// Torn writes disabled: the in-flight record must be ignored.
	img := mem.NewImage(size)
	fillImage(img)
	if rep := New(Config{RBER: 0}, 3).ReplayCrash(img, size, inflight); rep.Any() {
		t.Fatalf("inert config injected %+v", rep)
	}
	if !bytes.Equal(img.Bytes(0, size), want) {
		t.Fatal("inert replay mutated the image")
	}

	// Torn writes enabled but no write in flight: nothing to tear.
	img = mem.NewImage(size)
	fillImage(img)
	if rep := New(Config{TornWrites: true}, 3).ReplayCrash(img, size, nil); rep.Any() {
		t.Fatalf("no write in flight, yet injected %+v", rep)
	}
	if !bytes.Equal(img.Bytes(0, size), want) {
		t.Fatal("tear without an in-flight write mutated the image")
	}

	// Both conditions hold: the in-flight block tears, nothing else changes.
	img = mem.NewImage(size)
	fillImage(img)
	rep := New(Config{TornWrites: true}, 3).ReplayCrash(img, size, inflight)
	if rep.TornWords == 0 {
		t.Fatalf("armed tear reverted no words: %+v", rep)
	}
	got := img.Bytes(0, size)
	if bytes.Equal(got[mem.BlockSize:2*mem.BlockSize], want[mem.BlockSize:2*mem.BlockSize]) {
		t.Fatal("in-flight block unchanged despite torn words")
	}
	if !bytes.Equal(got[:mem.BlockSize], want[:mem.BlockSize]) ||
		!bytes.Equal(got[2*mem.BlockSize:], want[2*mem.BlockSize:]) {
		t.Fatal("tear leaked outside the in-flight block")
	}
}
