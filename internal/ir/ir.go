// Package ir defines the translation-block intermediate representation
// shared by the concrete VM, the symbolic execution engine, the
// wiretap traces, and the code synthesizer.
//
// A translation block is a maximal straight-line sequence of decoded
// instructions ending in a control-flow terminator, exactly the unit
// RevNIC's dynamic binary translator produces (§3.4): "QEMU passes the
// current program counter to the DBT, which translates the code until
// it finds an instruction altering the control flow."
//
// A translation block is not necessarily a basic block: an instruction
// in its middle may be the target of a branch from elsewhere. The CFG
// builder (package cfg) splits translation blocks into basic blocks
// during reconstruction, as the paper describes.
//
// An Image translates one program image once for all its consumers:
// the symbolic engine and its fork-join workers share one per engine,
// and the VM rigs of one differential-fuzzing harness share one per
// harness. A VM machine takes an Image's block only after checking
// that its own RAM holds the bytes the block was decoded from, so a
// block it runs is always the decoding of its own memory at the
// block's first execution.
package ir

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"revnic/internal/hw"
	"revnic/internal/isa"
)

// Block is one translation block.
type Block struct {
	// Addr is the guest address of the first instruction.
	Addr uint32
	// Instrs are the decoded instructions; the last one is always a
	// terminator unless translation hit MaxBlockInstrs.
	Instrs []isa.Instr
}

// MaxBlockInstrs bounds translation so that a run of straight-line
// code without terminators (e.g. data misinterpreted as code) cannot
// wedge the translator.
const MaxBlockInstrs = 512

// Term returns the terminating instruction of the block.
func (b *Block) Term() isa.Instr { return b.Instrs[len(b.Instrs)-1] }

// EndAddr returns the address one past the last instruction, i.e. the
// fall-through address for calls and not-taken branches.
func (b *Block) EndAddr() uint32 {
	return b.Addr + uint32(len(b.Instrs))*isa.InstrSize
}

// InstrAddr returns the address of the i-th instruction.
func (b *Block) InstrAddr(i int) uint32 {
	return b.Addr + uint32(i)*isa.InstrSize
}

// Contains reports whether addr falls on an instruction boundary
// inside the block.
func (b *Block) Contains(addr uint32) bool {
	return addr >= b.Addr && addr < b.EndAddr() && (addr-b.Addr)%isa.InstrSize == 0
}

// String renders the block with addresses, for traces and debugging.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block %#x:\n", b.Addr)
	for i, in := range b.Instrs {
		fmt.Fprintf(&sb, "  %#x: %s\n", b.InstrAddr(i), in.Disassemble())
	}
	return sb.String()
}

// Reader provides instruction fetch for the translator.
type Reader interface {
	// FetchInstr decodes the instruction at addr.
	FetchInstr(addr uint32) (isa.Instr, error)
}

// Translate builds the translation block starting at addr. It stops
// at the first terminator or after MaxBlockInstrs instructions.
func Translate(r Reader, addr uint32) (*Block, error) {
	b := &Block{Addr: addr}
	for len(b.Instrs) < MaxBlockInstrs {
		in, err := r.FetchInstr(addr + uint32(len(b.Instrs))*isa.InstrSize)
		if err != nil {
			return nil, fmt.Errorf("ir: translate at %#x: %w", addr, err)
		}
		b.Instrs = append(b.Instrs, in)
		if in.Op.IsTerminator() {
			break
		}
	}
	return b, nil
}

// Image holds the translation blocks of one program image, read as
// the image placed at its base address in otherwise zeroed guest RAM
// of hw.RAMSize bytes. It is immutable input shared by every consumer
// of the image: the symbolic engine and all its fork-join workers, and
// every VM rig of one differential-fuzzing harness.
//
// Blocks are translated lazily, at most once per address. An address
// on an instruction slot of the image (Base plus a multiple of
// isa.InstrSize, inside the image) has a slot in a dense table whose
// read path is one atomic pointer load; every other address goes to a
// map. Translation serializes on a mutex, so a block is translated
// once however many goroutines race to execute it. The image is safe
// for concurrent use.
type Image struct {
	base uint32
	// code is the image followed by MaxBlockInstrs zero instruction
	// words: every byte a block starting on a slot can span.
	code  []byte
	size  int // image length in bytes, without the padding
	slots []atomic.Pointer[Block]

	mu     sync.Mutex // serializes translation and guards other
	other  map[uint32]*Block
	misses atomic.Int64
}

// NewImage returns an empty translation image of p.
func NewImage(p *isa.Program) *Image {
	code := make([]byte, len(p.Code)+MaxBlockInstrs*isa.InstrSize)
	copy(code, p.Code)
	return &Image{
		base:  p.Base,
		code:  code,
		size:  len(p.Code),
		slots: make([]atomic.Pointer[Block], (len(p.Code)+isa.InstrSize-1)/isa.InstrSize),
	}
}

// Base returns the guest address the image is placed at.
func (img *Image) Base() uint32 { return img.base }

// Code returns the image bytes. The caller must not modify them.
func (img *Image) Code() []byte { return img.code[:img.size:img.size] }

// Slots returns the number of instruction slots of the image.
func (img *Image) Slots() int { return len(img.slots) }

// Slot returns the slot index of addr, and false when addr is not an
// instruction slot of the image.
func (img *Image) Slot(addr uint32) (int, bool) {
	off := addr - img.base
	if addr < img.base || off%isa.InstrSize != 0 || int(off/isa.InstrSize) >= len(img.slots) {
		return 0, false
	}
	return int(off / isa.InstrSize), true
}

// FetchInstr implements Reader over the image placed in zeroed RAM: a
// fetch crossing either end of the image reads zeros past it.
func (img *Image) FetchInstr(addr uint32) (isa.Instr, error) {
	if int(addr)+isa.InstrSize > hw.RAMSize {
		return isa.Instr{}, fmt.Errorf("ir: fetch outside RAM at %#x", addr)
	}
	var buf [isa.InstrSize]byte
	base := int(img.base)
	lo, hi := max(int(addr), base), min(int(addr)+isa.InstrSize, base+img.size)
	if lo < hi {
		copy(buf[lo-int(addr):], img.code[lo-base:hi-base])
	}
	return isa.Decode(buf[:])
}

// Get returns the translation block at addr, translating on first
// use.
func (img *Image) Get(addr uint32) (*Block, error) {
	i, slot := img.Slot(addr)
	if slot {
		if b := img.slots[i].Load(); b != nil {
			return b, nil
		}
	}
	img.mu.Lock()
	defer img.mu.Unlock()
	if slot {
		if b := img.slots[i].Load(); b != nil {
			return b, nil
		}
	} else if b := img.other[addr]; b != nil {
		return b, nil
	}
	b, err := Translate(img, addr)
	if err != nil {
		return nil, err
	}
	img.misses.Add(1)
	if slot {
		img.slots[i].Store(b)
	} else {
		if img.other == nil {
			img.other = map[uint32]*Block{}
		}
		img.other[addr] = b
	}
	return b, nil
}

// Source returns the bytes a block Get returned for an instruction
// slot was decoded from: the image bytes it spans, zero past the
// image end. A machine that holds exactly these bytes at b.Addr would
// decode the same block.
func (img *Image) Source(b *Block) []byte {
	off := b.Addr - img.base
	return img.code[off : off+uint32(len(b.Instrs))*isa.InstrSize]
}

// Misses returns the number of translations performed.
func (img *Image) Misses() int64 { return img.misses.Load() }
