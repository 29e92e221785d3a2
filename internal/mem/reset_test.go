package mem

import "testing"

func TestImageReset(t *testing.T) {
	im := NewImage(1 << 12)
	im.WriteBlock(0, make([]byte, BlockSize))
	im.RawWrite(128, []byte{5})
	im.PoisonBlock(64)
	hooked := 0
	im.SetWriteHook(func(base uint64, old, new []byte) { hooked++ })

	im.ResetPrefix(im.Size())
	if im.BlockWrites() != 0 {
		t.Fatalf("counter after Reset: %d blocks", im.BlockWrites())
	}
	if im.Poisoned(64) {
		t.Fatal("poison survived Reset")
	}
	for i, b := range im.Bytes(0, im.Size()) {
		if b != 0 {
			t.Fatalf("byte %d = %#x after Reset, want 0", i, b)
		}
	}
	im.WriteBlock(0, make([]byte, BlockSize))
	if hooked != 0 {
		t.Fatal("write hook survived Reset")
	}
}

func TestImageResetPrefix(t *testing.T) {
	im := NewImage(256)
	im.RawWrite(0, []byte{1})
	im.RawWrite(200, []byte{2})
	im.ResetPrefix(64)
	if im.Bytes(0, 1)[0] != 0 {
		t.Fatal("prefix byte not zeroed")
	}
	if im.Bytes(200, 1)[0] != 2 {
		t.Fatal("byte past the prefix was zeroed")
	}

	// The prefix rounds up to whole blocks; clamping past capacity is fine.
	im.RawWrite(65, []byte{3})
	im.ResetPrefix(1)
	if im.Bytes(65, 1)[0] != 3 {
		t.Fatal("ResetPrefix(1) crossed into the second block")
	}
	im.ResetPrefix(65)
	if im.Bytes(65, 1)[0] != 0 {
		t.Fatal("ResetPrefix(65) did not round up to the containing block")
	}
	im.ResetPrefix(1 << 20)
}

func TestSpaceReset(t *testing.T) {
	im := NewImage(1 << 12)
	s := NewSpace(im)
	o := s.AllocF64("x", 4, true)
	im.RawWrite(o.Addr, []byte{9})

	s.Reset()
	if s.Extent() != 0 {
		t.Fatalf("Extent after Reset = %d", s.Extent())
	}
	if _, ok := s.Object("x"); ok {
		t.Fatal("object registry survived Reset")
	}
	if s.Footprint() != 0 || len(s.Candidates()) != 0 {
		t.Fatal("object lists survived Reset")
	}

	// The name and the address are reusable, over zeroed contents.
	o2 := s.AllocF64("x", 4, true)
	if o2.Addr != o.Addr {
		t.Fatalf("realloc placed x at %#x, fresh space placed it at %#x", o2.Addr, o.Addr)
	}
	if im.Bytes(o2.Addr, 1)[0] != 0 {
		t.Fatal("reallocated object sees stale contents")
	}
}
