package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// flatSize leaves the image's last fork page short, so forks and restores
// cross a partial page.
const flatSize = 2*SnapPageSize + 3*BlockSize

// flatImage is the independent model FuzzImageVsFlat holds an Image to: a
// plain byte slice, a poison set and a write counter.
type flatImage struct {
	data     []byte
	poisoned map[uint64]bool
	writes   uint64
}

// flatFork pairs a Fork with the model's bytes and counter at that instant.
type flatFork struct {
	snap   *ImageSnapshot
	data   []byte
	writes uint64
}

// runFlat interprets prog as a sequence of Image operations, applies each to
// a fresh image and to the model, and fails at the first divergence in
// contents, write count, poison set, read result or write-hook arguments.
func runFlat(t *testing.T, prog []byte) {
	im := NewImage(flatSize)
	model := flatImage{data: make([]byte, flatSize), poisoned: map[uint64]bool{}}
	var forks []flatFork
	hooked, hookCalls := false, 0
	var wantNew []byte
	hook := func(base uint64, old, new []byte) {
		hookCalls++
		if !bytes.Equal(old, model.data[base:base+BlockSize]) || !bytes.Equal(new, wantNew) {
			t.Fatalf("write hook at %#x saw old/new bytes the model does not hold", base)
		}
	}

	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	word := func() uint64 { return next()<<8 | next() }
	pattern := func(n int) []byte {
		p := make([]byte, n)
		seed := byte(next())
		for i := range p {
			p[i] = seed ^ byte(i*7)
		}
		return p
	}

	for step := 0; len(prog) > 0; step++ {
		op := next() % 16
		a := word() % flatSize
		base := a &^ (BlockSize - 1)
		switch op {
		case 0, 1, 2, 3: // WriteBlock: counts, heals, and shows the hook old and new
			src := pattern(BlockSize)
			wantNew = src
			calls := hookCalls
			im.WriteBlock(a, src)
			if hooked && hookCalls != calls+1 || !hooked && hookCalls != calls {
				t.Fatalf("step %d: hook ran %d times for one write (hooked %v)", step, hookCalls-calls, hooked)
			}
			copy(model.data[base:], src)
			delete(model.poisoned, base)
			model.writes++
		case 4, 5: // RawWrite: out of band, neither counts nor heals
			src := pattern(1 + int(next()%100))
			if rest := flatSize - a; uint64(len(src)) > rest {
				src = src[:rest]
			}
			im.RawWrite(a, src)
			copy(model.data[a:], src)
		case 6, 7: // ReadBlock
			got := make([]byte, BlockSize)
			r := func() (r any) {
				defer func() { r = recover() }()
				im.ReadBlock(a, got)
				return nil
			}()
			if model.poisoned[base] {
				if me, ok := r.(*MediaError); !ok || me.Addr != base {
					t.Fatalf("step %d: read of poisoned %#x recovered %v, want *MediaError", step, base, r)
				}
			} else if r != nil || !bytes.Equal(got, model.data[base:base+BlockSize]) {
				t.Fatalf("step %d: read of %#x diverged (panic %v)", step, base, r)
			}
		case 8:
			im.PoisonBlock(a)
			model.poisoned[base] = true
		case 9:
			im.ClearPoison(a)
			delete(model.poisoned, base)
		case 10, 11: // Fork, extent clamped to the image
			extent := word() % (flatSize + 2*BlockSize)
			s := im.Fork(extent)
			extent = min(extent, flatSize)
			if s.Extent() != extent {
				t.Fatalf("step %d: fork extent %d, want %d", step, s.Extent(), extent)
			}
			f := flatFork{snap: s, data: bytes.Clone(model.data[:extent]), writes: model.writes}
			if len(forks) < 4 {
				forks = append(forks, f)
			} else {
				forks[a%4] = f
			}
		case 12, 13: // RestoreSnapshot of any earlier fork: its pages must not have moved
			if len(forks) == 0 {
				continue
			}
			f := forks[a%uint64(len(forks))]
			im.RestoreSnapshot(f.snap)
			copy(model.data, f.data)
			model.writes = f.writes
			clear(model.poisoned)
		case 14:
			hooked = !hooked
			if hooked {
				im.SetWriteHook(hook)
			} else {
				im.SetWriteHook(nil)
			}
		case 15: // ResetPrefix: whole blocks, and counter, poison and hook
			n := min((a+BlockSize-1)&^(BlockSize-1), flatSize)
			im.ResetPrefix(a)
			clear(model.data[:n])
			model.writes = 0
			clear(model.poisoned)
			hooked = false
		}

		if !bytes.Equal(im.Bytes(0, flatSize), model.data) {
			t.Fatalf("step %d (op %d): contents diverged from the flat model", step, op)
		}
		if im.BlockWrites() != model.writes {
			t.Fatalf("step %d (op %d): BlockWrites %d, model %d", step, op, im.BlockWrites(), model.writes)
		}
		var want []uint64
		for b := range model.poisoned {
			want = append(want, b)
		}
		slices.Sort(want)
		if got := im.PoisonedBlocks(); !slices.Equal(got, want) || im.Poisoned(a) != model.poisoned[base] {
			t.Fatalf("step %d (op %d): poisoned %v, model %v", step, op, got, want)
		}
	}
}

// FuzzImageVsFlat runs its seed corpus (testdata/fuzz plus a few
// pseudo-random programs) under plain `go test`.
func FuzzImageVsFlat(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		prog := make([]byte, 1200)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("long programs only repeat what short ones reach")
		}
		runFlat(t, prog)
	})
}
