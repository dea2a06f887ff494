// Package symexec implements RevNIC's selective symbolic execution
// engine (§3): the driver executes symbolically over expression
// values while the OS boundary stays concrete, hardware reads return
// fresh symbolic values (symbolic hardware), and a set of heuristics
// steers path exploration toward uncovered code.
package symexec

import (
	"revnic/internal/expr"
)

// pageSize is the granularity of copy-on-write sharing. The paper
// augments KLEE's object-level COW with page-level COW (§3.4); this
// memory is page-level COW from the start.
const pageSize = 256

// page is one materialized page of guest memory, split into a concrete
// half and a symbolic half. data holds every byte's concrete value: the
// base image's bytes, copied in when the page materializes, overwritten
// by concrete stores. written marks the offsets ever stored to (the
// wire form lists exactly these). sym is the symbolic overlay: nil
// until the first symbolic store, and within it a non-nil entry
// overrides data. A copy-on-write copy moves data and written and
// shares sym, which is copied only when a store must change it.
type page struct {
	data    [pageSize]byte
	written [pageSize / 64]uint64
	sym     *[pageSize]*expr.Expr
	// shared makes the page immutable: every store copies it first.
	shared bool
	// symShared says sym is also reachable from another page, so it is
	// copied before an entry changes. A page's own flags are only ever
	// written by the goroutine owning the page, never on a shared one.
	symShared bool
}

// isWritten reports whether the byte at off has been stored to.
func (p *page) isWritten(off uint32) bool { return p.written[off/64]&(1<<(off%64)) != 0 }

// symAt returns the symbolic overlay byte at off, nil if it is concrete.
func (p *page) symAt(off uint32) *expr.Expr {
	if p.sym == nil {
		return nil
	}
	return p.sym[off]
}

// ownSym makes the page's overlay private (allocating an empty one if
// it has none) so its entries may change.
func (p *page) ownSym() {
	switch {
	case p.sym == nil:
		p.sym = new([pageSize]*expr.Expr)
	case p.symShared:
		cp := *p.sym
		p.sym = &cp
	}
	p.symShared = false
}

// set stores one byte: the concrete value b when e is nil, else the
// non-constant width-8 expression e.
func (p *page) set(off uint32, b byte, e *expr.Expr) {
	p.written[off/64] |= 1 << (off % 64)
	if e != nil {
		p.ownSym()
		p.sym[off] = e
		return
	}
	p.data[off] = b
	if p.symAt(off) != nil {
		p.ownSym()
		p.sym[off] = nil
	}
}

// setExpr stores one width-8 byte, concretely if it is a constant.
func (p *page) setExpr(off uint32, e *expr.Expr) {
	if c, ok := e.IsConst(); ok {
		p.set(off, byte(c), nil)
	} else {
		p.set(off, 0, e)
	}
}

// Memory is a byte-granular symbolic memory with page-level
// copy-on-write. The concrete base image (the RAM snapshot taken when
// symbolic execution starts, which may stop short of the end of RAM) is
// shared by all states and never mutated; bytes past its end read as
// zero. A page materializes on its first store. Concrete bytes are
// plain bytes: concrete reads assemble machine words and concrete
// stores write bytes, neither touching the arena. Only a read that
// meets a symbolic byte builds an expression, in the memory's arena, so
// a job-scoped engine never leaks nodes into the process-global table.
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
// immutable — a store copies it before writing — so fork trees may be
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

// fillUnwritten copies the base image's bytes of page idx into p's
// unwritten offsets, as if p had materialized at idx.
func (m *Memory) fillUnwritten(p *page, idx uint32) {
	for off := uint32(0); off < pageSize; off++ {
		if !p.isWritten(off) {
			p.data[off] = 0
			if a := int(idx)*pageSize + int(off); a < len(m.base) {
				p.data[off] = m.base[a]
			}
		}
	}
}

// writable returns page idx ready for a store: materialized, and
// copied first if shared. The copy shares the symbolic overlay.
func (m *Memory) writable(idx uint32) *page {
	p, ok := m.pages[idx]
	switch {
	case !ok:
		p = &page{}
		m.fillUnwritten(p, idx)
		m.pages[idx] = p
	case p.shared:
		cp := *p
		cp.shared = false
		cp.symShared = p.sym != nil
		p = &cp
		m.pages[idx] = p
	}
	return p
}

// byteAt returns one byte: its concrete value, or its symbolic
// expression (nil when the byte is concrete).
func (m *Memory) byteAt(addr uint32) (byte, *expr.Expr) {
	if p, ok := m.pages[addr/pageSize]; ok {
		off := addr % pageSize
		return p.data[off], p.symAt(off)
	}
	if int(addr) < len(m.base) {
		return m.base[addr], nil
	}
	return 0, nil
}

// ByteAt returns the value of one byte as a width-8 expression;
// concrete bytes come from the shared small-constant pool, which
// interns nothing.
func (m *Memory) ByteAt(addr uint32) *expr.Expr {
	b, e := m.byteAt(addr)
	if e != nil {
		return e
	}
	return m.ar.C(uint32(b), 8)
}

// setByte stores one byte: the concrete b when e is nil, else the
// non-constant width-8 expression e.
func (m *Memory) setByte(addr uint32, b byte, e *expr.Expr) {
	m.writable(addr/pageSize).set(addr%pageSize, b, e)
}

// read returns a size-byte little-endian value (size 1, 2 or 4),
// zero-extended to 32 bits. All-concrete bytes assemble into a
// concrete word; otherwise the expression is the one the arena
// constructors build from the bytes.
func (m *Memory) read(addr uint32, size int) word {
	var v uint32
	if off := addr % pageSize; off+uint32(size) <= pageSize {
		// Within one materialized page: look it up once.
		if p, ok := m.pages[addr/pageSize]; ok {
			for i := size - 1; i >= 0; i-- {
				if p.symAt(off+uint32(i)) != nil {
					return wordOf(m.readExpr(addr, size))
				}
				v = v<<8 | uint32(p.data[off+uint32(i)])
			}
			return word{v: v}
		}
	}
	for i := size - 1; i >= 0; i-- {
		b, e := m.byteAt(addr + uint32(i))
		if e != nil {
			return wordOf(m.readExpr(addr, size))
		}
		v = v<<8 | uint32(b)
	}
	return word{v: v}
}

func (m *Memory) readExpr(addr uint32, size int) *expr.Expr {
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

// write stores the low size bytes of v at addr, little-endian. A
// symbolic v is truncated to the access width and split into bytes by
// the arena constructors; a byte that folds to a constant is stored
// concretely.
func (m *Memory) write(addr uint32, size int, v word) {
	if v.e == nil {
		for i := 0; i < size; i++ {
			m.setByte(addr+uint32(i), byte(v.v>>(8*i)), nil)
		}
		return
	}
	t := m.ar.Trunc(v.e, uint8(size*8))
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		m.writable(a/pageSize).setExpr(a%pageSize, m.ar.ExtractByte(t, i))
	}
}

// SetByte stores a width-8 byte; a constant one is stored concretely.
func (m *Memory) SetByte(addr uint32, v *expr.Expr) {
	if v.Width != 8 {
		panic("symexec: SetByte width")
	}
	m.writable(addr/pageSize).setExpr(addr%pageSize, v)
}

// Read returns a size-byte little-endian value (size 1, 2 or 4) as a
// 32-bit expression.
func (m *Memory) Read(addr uint32, size int) *expr.Expr {
	return m.read(addr, size).expr(m.ar)
}
