package symexec

import (
	"fmt"
	"sort"

	"revnic/internal/expr"
)

// Wire form of a state group, for the distributed exploration mode.
// Phases are sequential and state-carrying — the seed of each phase is
// a completed state of the previous one — so shipping a shard group to
// a peer node means shipping live symbolic states: registers, the COW
// memory overlay, path constraints, frames and the heuristics'
// bookkeeping. Everything expression-valued is encoded through one
// shared expr.WireNode table (constraints across sibling states share
// most of their structure), and overlay pages are deduplicated by
// pointer identity, so COW sharing survives the encoding instead of
// being multiplied out per state.
//
// Decoding rebuilds expressions through the arena constructors (see
// expr.DAGDecoder), which reproduces the source structures exactly;
// decoded pages are marked shared so the first write inside any state
// copies them, exactly like pages arriving through Memory.Fork.

// WireFrame is one guest call frame.
type WireFrame struct {
	CallSite uint32 `json:"cs,omitempty"`
	Target   uint32 `json:"tg,omitempty"`
	RetAddr  uint32 `json:"ra,omitempty"`
	EntrySP  uint32 `json:"sp,omitempty"`
}

// WirePage is one memory overlay page: the in-page offsets that carry
// a symbolic overlay byte, with their expression references in a
// parallel slice. Offsets are emitted in increasing order.
type WirePage struct {
	Off []uint16 `json:"off,omitempty"`
	Ref []int32  `json:"ref,omitempty"`
}

// WireState is one serialized execution state. Expression-valued
// fields hold 1-based references into the group's node table (0 =
// nil); Pages maps page indices to 1-based references into the
// group's page table.
type WireState struct {
	ID          int              `json:"id"`
	PC          uint32           `json:"pc"`
	Regs        [8]int32         `json:"regs"`
	Constraints []int32          `json:"cons,omitempty"`
	Pages       map[uint32]int32 `json:"pages,omitempty"`
	Frames      []WireFrame      `json:"frames,omitempty"`
	Reason      int              `json:"reason,omitempty"`
	Result      int32            `json:"result,omitempty"`
	HeapNext    uint32           `json:"heap,omitempty"`
	LocalCount  map[uint32]int   `json:"local,omitempty"`
	LastBlock   uint32           `json:"last,omitempty"`
	HasLast     bool             `json:"has_last,omitempty"`
	PendingRet  uint32           `json:"pending_ret,omitempty"`
	Depth       int              `json:"depth,omitempty"`
}

// WireStateGroup is a set of states sharing one expression node table
// and one overlay page table.
type WireStateGroup struct {
	Exprs  []expr.WireNode `json:"exprs,omitempty"`
	Pages  []WirePage      `json:"pages,omitempty"`
	States []WireState     `json:"states,omitempty"`
}

// encodeStateGroup serializes the states into one WireStateGroup.
// Pages shared between states (COW) are emitted once and referenced
// from each sharer, preserving the fork tree's structure on the wire.
func encodeStateGroup(states []*State) *WireStateGroup {
	enc := expr.NewDAGEncoder()
	g := &WireStateGroup{}
	pageRef := map[*page]int32{}
	encodePage := func(p *page) int32 {
		if r, ok := pageRef[p]; ok {
			return r
		}
		var wp WirePage
		for off, e := range p.bytes {
			if e != nil {
				wp.Off = append(wp.Off, uint16(off))
				wp.Ref = append(wp.Ref, enc.Add(e))
			}
		}
		g.Pages = append(g.Pages, wp)
		r := int32(len(g.Pages))
		pageRef[p] = r
		return r
	}
	for _, s := range states {
		ws := WireState{
			ID:         s.ID,
			PC:         s.PC,
			Reason:     int(s.Reason),
			HeapNext:   s.heapNext,
			LastBlock:  s.lastBlock,
			HasLast:    s.hasLast,
			PendingRet: s.pendingRet,
			Depth:      s.Depth,
		}
		for i, r := range s.Regs {
			ws.Regs[i] = enc.Add(r)
		}
		for _, c := range s.Constraints {
			ws.Constraints = append(ws.Constraints, enc.Add(c))
		}
		ws.Result = enc.Add(s.Result)
		if len(s.Mem.pages) > 0 {
			ws.Pages = make(map[uint32]int32, len(s.Mem.pages))
			// Sorted emission keeps the node and page tables
			// deterministic across runs (map iteration order is not).
			for _, idx := range sortedKeysU32(s.Mem.pages) {
				ws.Pages[idx] = encodePage(s.Mem.pages[idx])
			}
		}
		for _, f := range s.Frames {
			ws.Frames = append(ws.Frames, WireFrame{
				CallSite: f.callSite, Target: f.target, RetAddr: f.retAddr, EntrySP: f.entrySP,
			})
		}
		if len(s.localCount) > 0 {
			ws.LocalCount = make(map[uint32]int, len(s.localCount))
			for k, v := range s.localCount {
				ws.LocalCount[k] = v
			}
		}
		g.States = append(g.States, ws)
	}
	g.Exprs = enc.Nodes()
	return g
}

// maxWirePages caps the page table of one decoded state group. Each
// entry decodes to a full overlay page (pageSize pointers, 2 KB)
// however few bytes it takes on the wire, so the cap bounds what a
// hostile payload can make the decoder allocate. The largest table
// the corpus produces is 58 pages (5 drivers × Shards 2/4/8/16 × all
// four searchers, seed 1).
const maxWirePages = 1024

// decodeStateGroup rebuilds the states against the given base image
// and arena. Wire bytes arrive from the network, so every structural
// violation is an error, never a panic; a decode error means the
// payload was torn or the peers disagree about the job.
func decodeStateGroup(g *WireStateGroup, base []byte, ar *expr.Arena) ([]*State, error) {
	if g == nil {
		return nil, nil
	}
	if len(g.Pages) > maxWirePages {
		return nil, fmt.Errorf("symexec: decode: %d pages exceed the cap of %d", len(g.Pages), maxWirePages)
	}
	dec := ar.NewDAGDecoder(g.Exprs)
	pages := make([]*page, len(g.Pages))
	for i, wp := range g.Pages {
		if len(wp.Off) != len(wp.Ref) {
			return nil, fmt.Errorf("symexec: decode page %d: %d offsets, %d refs", i, len(wp.Off), len(wp.Ref))
		}
		// The encoder emits only pages holding a symbolic byte: an empty
		// one is malformed, and would cost a whole page for two bytes.
		if len(wp.Off) == 0 {
			return nil, fmt.Errorf("symexec: decode page %d: no offsets", i)
		}
		// Decoded pages start shared: they may be referenced by several
		// states, and even a sole owner must copy before writing so the
		// group can be re-encoded (straggler re-dispatch) untouched.
		p := &page{shared: true}
		for k, off := range wp.Off {
			if int(off) >= pageSize {
				return nil, fmt.Errorf("symexec: decode page %d: offset %d outside page", i, off)
			}
			e, err := dec.Ref(wp.Ref[k])
			if err != nil {
				return nil, err
			}
			if e == nil || e.Width != 8 {
				return nil, fmt.Errorf("symexec: decode page %d: byte at %d is not a width-8 expression", i, off)
			}
			p.bytes[off] = e
		}
		pages[i] = p
	}
	out := make([]*State, 0, len(g.States))
	for si, ws := range g.States {
		if ws.Reason < int(TermRunning) || ws.Reason > int(TermDeadline) {
			return nil, fmt.Errorf("symexec: decode state %d: unknown term reason %d", si, ws.Reason)
		}
		s := &State{
			ID:         ws.ID,
			PC:         ws.PC,
			Reason:     TermReason(ws.Reason),
			heapNext:   ws.HeapNext,
			lastBlock:  ws.LastBlock,
			hasLast:    ws.HasLast,
			pendingRet: ws.PendingRet,
			Depth:      ws.Depth,
			localCount: make(map[uint32]int, len(ws.LocalCount)),
		}
		for i, ref := range ws.Regs {
			e, err := dec.Ref(ref)
			if err != nil {
				return nil, err
			}
			if e == nil || e.Width != 32 {
				return nil, fmt.Errorf("symexec: decode state %d: register %d is not a width-32 expression", si, i)
			}
			s.Regs[i] = e
		}
		for _, ref := range ws.Constraints {
			e, err := dec.Ref(ref)
			if err != nil {
				return nil, err
			}
			if e == nil || e.Width != 1 {
				return nil, fmt.Errorf("symexec: decode state %d: constraint is not a width-1 expression", si)
			}
			s.Constraints = append(s.Constraints, e)
		}
		res, err := dec.Ref(ws.Result)
		if err != nil {
			return nil, err
		}
		s.Result = res
		mem := NewMemoryArena(base, ar)
		for idx, ref := range ws.Pages {
			if ref < 1 || int(ref) > len(pages) {
				return nil, fmt.Errorf("symexec: decode state %d: page reference %d outside table of %d", si, ref, len(pages))
			}
			mem.pages[idx] = pages[ref-1]
		}
		s.Mem = mem
		for _, f := range ws.Frames {
			s.Frames = append(s.Frames, frame{
				callSite: f.CallSite, target: f.Target, retAddr: f.RetAddr, entrySP: f.EntrySP,
			})
		}
		for k, v := range ws.LocalCount {
			s.localCount[k] = v
		}
		out = append(out, s)
	}
	return out, nil
}

func sortedKeysU32[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
