// Package symexec implements RevNIC's selective symbolic execution
// engine (§3): the driver executes symbolically over expression
// values while the OS boundary stays concrete, hardware reads return
// fresh symbolic values (symbolic hardware), and a set of heuristics
// steers path exploration toward uncovered code.
package symexec

import (
	"encoding/binary"

	"revnic/internal/expr"
)

// pageSize is the granularity of copy-on-write sharing. The paper
// augments KLEE's object-level COW with page-level COW (§3.4); this
// memory is page-level COW from the start.
const pageSize = 256

// page holds the symbolic overlay for one page. A nil entry means the
// byte still has its initial concrete value from the base image.
type page struct {
	bytes  [pageSize]*expr.Expr
	shared bool
}

// Memory is a byte-granular symbolic memory with page-level
// copy-on-write. The concrete base image (the RAM snapshot taken when
// symbolic execution starts, which may stop short of the end of RAM) is
// shared by all states and never mutated; bytes past its end read as
// zero. Reads assemble (and writes decompose) multi-byte values in the
// memory's expression arena, so a job-scoped engine never leaks nodes
// into the process-global table.
type Memory struct {
	base  []byte
	pages map[uint32]*page
	ar    *expr.Arena
}

// NewMemory wraps a concrete base image, building expressions in the
// default arena. The image is aliased, not copied: callers must not
// mutate it afterwards. It may be shorter than guest RAM (the engine's
// ends with the driver code); bytes past its end read as zero.
func NewMemory(base []byte) *Memory {
	return NewMemoryArena(base, expr.Default())
}

// NewMemoryArena wraps a concrete base image, building expressions in
// the given arena.
func NewMemoryArena(base []byte, ar *expr.Arena) *Memory {
	return &Memory{base: base, pages: map[uint32]*page{}, ar: ar}
}

// Fork produces a new memory sharing all pages copy-on-write.
//
// A page flips to shared only while it is still owned by exactly one
// memory (and therefore one exploration goroutine); once shared it is
// immutable — SetByte copies it before writing — so fork trees may be
// partitioned across concurrently explored state sets without races.
func (m *Memory) Fork() *Memory {
	f := &Memory{base: m.base, pages: make(map[uint32]*page, len(m.pages)), ar: m.ar}
	for k, p := range m.pages {
		if !p.shared {
			p.shared = true
		}
		f.pages[k] = p
	}
	return f
}

func (m *Memory) baseByte(addr uint32) byte {
	if int(addr) < len(m.base) {
		return m.base[addr]
	}
	return 0
}

// ByteAt returns the symbolic value of one byte.
func (m *Memory) ByteAt(addr uint32) *expr.Expr {
	if p, ok := m.pages[addr/pageSize]; ok {
		if e := p.bytes[addr%pageSize]; e != nil {
			return e
		}
	}
	return m.ar.C(uint32(m.baseByte(addr)), 8)
}

// SetByte stores a symbolic byte, cloning a shared page first.
func (m *Memory) SetByte(addr uint32, v *expr.Expr) {
	if v.Width != 8 {
		panic("symexec: SetByte width")
	}
	idx := addr / pageSize
	p, ok := m.pages[idx]
	if !ok {
		p = &page{}
		m.pages[idx] = p
	} else if p.shared {
		cp := &page{bytes: p.bytes}
		m.pages[idx] = cp
		p = cp
	}
	p.bytes[addr%pageSize] = v
}

// Read returns a size-byte little-endian value (size 1, 2 or 4).
func (m *Memory) Read(addr uint32, size int) *expr.Expr {
	switch size {
	case 1:
		return m.ar.Zext(m.ByteAt(addr), 32)
	case 2:
		return m.ar.Zext(m.ar.FromBytes16(m.ByteAt(addr), m.ByteAt(addr+1)), 32)
	case 4:
		return m.ar.FromBytes32(m.ByteAt(addr), m.ByteAt(addr+1), m.ByteAt(addr+2), m.ByteAt(addr+3))
	}
	panic("symexec: invalid read size")
}

// Write stores the low size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint32, size int, v *expr.Expr) {
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint32(i), m.ar.ExtractByte(v, i))
	}
}

// WriteConcreteBytes bulk-stores concrete data (used by the engine's
// OS model when it builds buffers in guest memory).
func (m *Memory) WriteConcreteBytes(addr uint32, data []byte) {
	for i, b := range data {
		m.SetByte(addr+uint32(i), m.ar.C(uint32(b), 8))
	}
}

// ConcreteRead evaluates a read under the given variable assignment,
// for trace witnesses.
func (m *Memory) ConcreteRead(addr uint32, size int, env map[string]uint32) uint32 {
	var buf [4]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(expr.Eval(m.ByteAt(addr+uint32(i)), env))
	}
	return binary.LittleEndian.Uint32(buf[:])
}

// PageCount returns the number of materialized overlay pages, a
// memory-pressure metric for the engine's state-discard heuristics.
func (m *Memory) PageCount() int { return len(m.pages) }
