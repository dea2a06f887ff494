package hw

import "testing"

// dirtyPages lists the pages r has marked, in ascending order.
func dirtyPages(r *RAM) []uint32 {
	var out []uint32
	for p := uint32(0); p < RAMSize/PageSize; p++ {
		if r.dirty[p/64]&(1<<(p%64)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

func samePages(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestRAMStoreMarksStraddledPages stores 1, 2 and 4 bytes just below
// the first page boundary: every page an access touches is marked,
// and only those.
func TestRAMStoreMarksStraddledPages(t *testing.T) {
	cases := []struct {
		addr  uint32
		size  int
		pages []uint32
	}{
		{0x0FFE, 1, []uint32{0}},
		{0x0FFF, 1, []uint32{0}},
		{0x0FFE, 2, []uint32{0}},
		{0x0FFF, 2, []uint32{0, 1}},
		{0x0FFE, 4, []uint32{0, 1}},
		{0x0FFF, 4, []uint32{0, 1}},
		{RAMSize - 4, 4, []uint32{RAMSize/PageSize - 1}},
	}
	for _, c := range cases {
		r := NewRAM()
		if !r.Store(c.addr, c.size, 0xA1B2C3D4) {
			t.Fatalf("store %d bytes at %#x refused", c.size, c.addr)
		}
		if got := dirtyPages(r); !samePages(got, c.pages) {
			t.Errorf("store %d bytes at %#x marked pages %v, want %v", c.size, c.addr, got, c.pages)
		}
		want := uint32(0xA1B2C3D4) & SizeMask(c.size)
		if v, ok := r.Load(c.addr, c.size); !ok || v != want {
			t.Errorf("load %d bytes at %#x = %#x, %v; want %#x", c.size, c.addr, v, ok, want)
		}
		r.Free()
	}
}

// TestRAMOutOfBounds pins that accesses past the end fail without
// writing or marking anything.
func TestRAMOutOfBounds(t *testing.T) {
	r := NewRAM()
	defer r.Free()
	if r.Store(RAMSize-2, 4, 1) {
		t.Error("store straddling the end of RAM accepted")
	}
	if _, ok := r.Load(RAMSize-1, 2); ok {
		t.Error("load straddling the end of RAM accepted")
	}
	r.WriteMem(RAMSize-1, []byte{1, 2})
	if got := dirtyPages(r); len(got) != 0 {
		t.Errorf("refused writes marked pages %v", got)
	}
}

// TestRAMWriteMemMarksEveryPage covers the DMA path: one write that
// spans three pages marks all three.
func TestRAMWriteMemMarksEveryPage(t *testing.T) {
	r := NewRAM()
	defer r.Free()
	buf := make([]byte, 2*PageSize)
	for i := range buf {
		buf[i] = byte(i) | 1
	}
	r.WriteMem(5*PageSize-1, buf)
	if got, want := dirtyPages(r), []uint32{4, 5, 6}; !samePages(got, want) {
		t.Errorf("DMA write marked pages %v, want %v", got, want)
	}
	back := make([]byte, len(buf))
	r.ReadMem(5*PageSize-1, back)
	if string(back) != string(buf) {
		t.Error("ReadMem does not return what WriteMem wrote")
	}
}

// TestRAMFreeZeroesAndRecycles dirties scattered pages, frees the RAM,
// and checks that the whole buffer is zero again, that it went back
// to the free list, and that the freed RAM faults instead of aliasing
// the buffer's next owner.
func TestRAMFreeZeroesAndRecycles(t *testing.T) {
	r := NewRAM()
	b := r.b
	for _, a := range []uint32{0, 0x0FFF, 0x12345, 0x80000, RAMSize - 4} {
		r.Store(a, 4, 0xFFFFFFFF)
	}
	r.WriteMem(0x40FFF, make([]byte, 3*PageSize))
	r.WriteMem(0x60000, []byte{7, 7, 7})
	before := PooledRAM()
	r.Free()
	if !allZero(b) {
		t.Fatal("Free left non-zero bytes in the buffer")
	}
	if got := PooledRAM(); got != before+1 {
		t.Fatalf("free list holds %d buffers, want %d", got, before+1)
	}
	if r.Store(0, 4, 1) {
		t.Error("store into freed RAM accepted")
	}
	r.Free() // a second Free is a no-op
	if got := PooledRAM(); got != before+1 {
		t.Fatalf("double Free changed the free list to %d buffers", got)
	}
	again := NewRAM()
	defer again.Free()
	if &again.b[0] != &b[0] {
		t.Error("NewRAM did not reuse the freed buffer")
	}
	if got := dirtyPages(again); len(got) != 0 {
		t.Errorf("recycled RAM starts with dirty pages %v", got)
	}
}
