package mem

import (
	"bytes"
	"sort"
	"testing"
)

func TestPoisonedReadPanicsWithMediaError(t *testing.T) {
	im := NewImage(4 * BlockSize)
	im.PoisonBlock(BlockSize + 7) // any address inside the block poisons it
	if !im.Poisoned(BlockSize + 63) {
		t.Fatal("block not reported poisoned")
	}
	if im.Poisoned(0) {
		t.Fatal("neighbouring block reported poisoned")
	}
	defer func() {
		r := recover()
		me, ok := r.(*MediaError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *MediaError", r, r)
		}
		if me.Addr != BlockSize {
			t.Fatalf("MediaError.Addr = %#x, want %#x", me.Addr, BlockSize)
		}
		if me.Error() == "" {
			t.Fatal("empty error string")
		}
	}()
	dst := make([]byte, BlockSize)
	im.ReadBlock(BlockSize+16, dst)
	t.Fatal("read of poisoned block did not panic")
}

func TestWriteBlockHealsPoison(t *testing.T) {
	im := NewImage(2 * BlockSize)
	im.PoisonBlock(0)
	src := make([]byte, BlockSize)
	for i := range src {
		src[i] = byte(i)
	}
	im.WriteBlock(0, src)
	if im.Poisoned(0) {
		t.Fatal("full-block write did not heal poison")
	}
	dst := make([]byte, BlockSize)
	im.ReadBlock(0, dst) // must not panic
	if !bytes.Equal(dst, src) {
		t.Fatal("healed block holds wrong data")
	}
}

func TestClearPoisonAndSortedList(t *testing.T) {
	im := NewImage(8 * BlockSize)
	for _, a := range []uint64{5 * BlockSize, BlockSize, 3 * BlockSize} {
		im.PoisonBlock(a)
	}
	got := im.PoisonedBlocks()
	if len(got) != 3 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("PoisonedBlocks = %v", got)
	}
	im.ClearPoison(3 * BlockSize)
	if im.Poisoned(3 * BlockSize) {
		t.Fatal("ClearPoison did not heal")
	}
	if n := len(im.PoisonedBlocks()); n != 2 {
		t.Fatalf("%d poisoned blocks after clear", n)
	}
	fresh := NewImage(BlockSize)
	if fresh.PoisonedBlocks() != nil {
		t.Fatal("fresh image reports poisoned blocks")
	}
}

func TestWriteHookSeesOldAndNew(t *testing.T) {
	im := NewImage(2 * BlockSize)
	first := make([]byte, BlockSize)
	for i := range first {
		first[i] = 0xAA
	}
	im.WriteBlock(BlockSize, first)

	var hookBase uint64
	var hookOld, hookNew []byte
	calls := 0
	im.SetWriteHook(func(base uint64, old, new []byte) {
		calls++
		hookBase = base
		hookOld = append([]byte(nil), old...)
		hookNew = append([]byte(nil), new...)
	})
	second := make([]byte, BlockSize)
	for i := range second {
		second[i] = 0xBB
	}
	im.WriteBlock(BlockSize+8, second) // unaligned addr: hook sees the block base
	if calls != 1 || hookBase != BlockSize {
		t.Fatalf("hook calls=%d base=%#x", calls, hookBase)
	}
	if !bytes.Equal(hookOld, first) || !bytes.Equal(hookNew, second) {
		t.Fatal("hook old/new content wrong")
	}
	im.SetWriteHook(nil)
	im.WriteBlock(0, first)
	if calls != 1 {
		t.Fatal("removed hook still invoked")
	}
}

func TestSpaceExtent(t *testing.T) {
	s := NewSpace(NewImage(1 << 16))
	if s.Extent() != 0 {
		t.Fatalf("fresh space extent %d", s.Extent())
	}
	o := s.Alloc("a", 100, true)
	if s.Extent() != o.End() {
		t.Fatalf("extent %d after alloc ending at %d", s.Extent(), o.End())
	}
	b := s.Alloc("b", 8, false)
	if s.Extent() != b.End() {
		t.Fatalf("extent %d, last object ends at %d", s.Extent(), b.End())
	}
}
