package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// PageSize is the granularity at which RAM tracks written memory.
const PageSize = 4096

// maxPooledRAM bounds how many freed buffers the process keeps for
// reuse, so a burst of concurrent machines does not pin its peak
// memory for the rest of the process lifetime.
const maxPooledRAM = 32

// RAM is guest physical memory: RAMSize bytes with bounds-checked
// little-endian access and a bitmap of the pages written since the
// buffer was last zeroed. Every concrete VM machine, original or
// synthesized side, owns one; it implements MemBus for device DMA.
//
// Every write marks the pages it touches, so Free can return the
// buffer to a process-wide free list after zeroing only those pages.
// NewRAM draws from that list, and a RAM fresh from it is
// indistinguishable from a newly allocated one.
type RAM struct {
	b     []byte
	dirty [RAMSize / PageSize / 64]uint64
}

// ramPool is the process-wide free list of zeroed RAMSize buffers.
var ramPool struct {
	mu   sync.Mutex
	free [][]byte
}

// NewRAM returns zeroed guest memory, reusing a freed buffer when one
// is available.
func NewRAM() *RAM {
	var b []byte
	ramPool.mu.Lock()
	if n := len(ramPool.free); n > 0 {
		b = ramPool.free[n-1]
		ramPool.free[n-1] = nil
		ramPool.free = ramPool.free[:n-1]
	}
	ramPool.mu.Unlock()
	if b == nil {
		b = make([]byte, RAMSize)
	}
	return &RAM{b: b}
}

// PooledRAM reports how many zeroed buffers wait on the free list.
func PooledRAM() int {
	ramPool.mu.Lock()
	defer ramPool.mu.Unlock()
	return len(ramPool.free)
}

// Free zeroes the written pages and returns the buffer to the free
// list. The RAM is empty afterwards: every access is out of bounds,
// so a stale user faults instead of seeing another machine's memory.
// Calling Free again is a no-op.
func (r *RAM) Free() {
	if r.b == nil {
		return
	}
	for w, word := range r.dirty {
		for ; word != 0; word &= word - 1 {
			p := w*64 + bits.TrailingZeros64(word)
			clear(r.b[p*PageSize : (p+1)*PageSize])
		}
	}
	ramPool.mu.Lock()
	if len(ramPool.free) < maxPooledRAM {
		ramPool.free = append(ramPool.free, r.b)
	}
	ramPool.mu.Unlock()
	*r = RAM{}
}

// Contains reports whether the n bytes at addr lie inside the RAM.
func (r *RAM) Contains(addr uint32, n int) bool {
	return int(addr)+n <= len(r.b)
}

// Holds reports whether the RAM holds exactly the bytes p at addr.
func (r *RAM) Holds(addr uint32, p []byte) bool {
	return r.Contains(addr, len(p)) && bytes.Equal(r.b[addr:int(addr)+len(p)], p)
}

// markDirty records that the n > 0 bytes at addr were written. It
// runs before the write, so a buffer is never dirty but unmarked.
func (r *RAM) markDirty(addr uint32, n int) {
	for p := addr / PageSize; p <= (addr+uint32(n)-1)/PageSize; p++ {
		r.dirty[p/64] |= 1 << (p % 64)
	}
}

// Load reads a size-byte (1, 2 or 4) little-endian value; ok is false
// when the access falls outside the RAM.
func (r *RAM) Load(addr uint32, size int) (v uint32, ok bool) {
	switch size {
	case 1:
		return r.Load8(addr)
	case 2:
		return r.Load16(addr)
	case 4:
		return r.Load32(addr)
	}
	panic(fmt.Sprintf("hw: invalid access size %d", size))
}

// Store writes a size-byte (1, 2 or 4) little-endian value; it
// reports false, writing nothing, when the access falls outside the
// RAM.
func (r *RAM) Store(addr uint32, size int, v uint32) bool {
	switch size {
	case 1:
		return r.Store8(addr, v)
	case 2:
		return r.Store16(addr, v)
	case 4:
		return r.Store32(addr, v)
	}
	panic(fmt.Sprintf("hw: invalid access size %d", size))
}

// The sized accessors below are Load and Store for one access width,
// small enough for the compiler to inline into the CPU's loads,
// stores, pushes and pops. A store marks the pages of its first and
// last byte, which cover the at most two pages a 4-byte access spans.

// Load8 reads one byte; ok is false outside the RAM.
func (r *RAM) Load8(addr uint32) (v uint32, ok bool) {
	if int(addr) >= len(r.b) {
		return 0, false
	}
	return uint32(r.b[addr]), true
}

// Load16 reads a little-endian 16-bit value; ok is false outside the
// RAM.
func (r *RAM) Load16(addr uint32) (v uint32, ok bool) {
	if int(addr)+2 > len(r.b) {
		return 0, false
	}
	return uint32(binary.LittleEndian.Uint16(r.b[addr:])), true
}

// Load32 reads a little-endian 32-bit value; ok is false outside the
// RAM.
func (r *RAM) Load32(addr uint32) (v uint32, ok bool) {
	if int(addr)+4 > len(r.b) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(r.b[addr:]), true
}

// Store8 writes one byte; it reports false, writing nothing, outside
// the RAM.
func (r *RAM) Store8(addr, v uint32) bool {
	if int(addr) >= len(r.b) {
		return false
	}
	r.mark(addr)
	r.b[addr] = byte(v)
	return true
}

// Store16 writes a little-endian 16-bit value; it reports false,
// writing nothing, outside the RAM.
func (r *RAM) Store16(addr, v uint32) bool {
	if int(addr)+2 > len(r.b) {
		return false
	}
	r.mark(addr)
	r.mark(addr + 1)
	binary.LittleEndian.PutUint16(r.b[addr:], uint16(v))
	return true
}

// Store32 writes a little-endian 32-bit value; it reports false,
// writing nothing, outside the RAM.
func (r *RAM) Store32(addr, v uint32) bool {
	if int(addr)+4 > len(r.b) {
		return false
	}
	r.mark(addr)
	r.mark(addr + 3)
	binary.LittleEndian.PutUint32(r.b[addr:], v)
	return true
}

// mark records that the byte at addr, inside the RAM, is written. The
// modulo is a no-op there and lets the compiler drop the bounds check.
func (r *RAM) mark(addr uint32) {
	p := addr / PageSize
	r.dirty[p/64%uint32(len(r.dirty))] |= 1 << (p % 64)
}

// ReadMem implements MemBus: it copies len(p) bytes at addr into p,
// leaving p untouched when the range falls outside the RAM.
func (r *RAM) ReadMem(addr uint32, p []byte) {
	if r.Contains(addr, len(p)) {
		copy(p, r.b[addr:])
	}
}

// WriteMem implements MemBus: it copies p into the RAM at addr,
// dropping the write when the range falls outside the RAM.
func (r *RAM) WriteMem(addr uint32, p []byte) {
	if len(p) > 0 && r.Contains(addr, len(p)) {
		r.markDirty(addr, len(p))
		copy(r.b[addr:], p)
	}
}
