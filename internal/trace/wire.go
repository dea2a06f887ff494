package trace

import (
	"fmt"
	"sort"

	"revnic/internal/ir"
)

// Wire form of a Collector, for the distributed exploration mode: a
// peer node that executed a shard group ships its wiretap records back
// to the coordinator, which folds them in with the same Merge the
// in-process fork-join uses. The encoding is faithful and
// order-preserving — block tables sort by address, slice-valued
// records (IO points, API calls) keep their observation order — so a
// decoded collector merges exactly like the worker collector it was
// encoded from, which is what keeps coordinator results bit-identical
// to a single-node run.
//
// Translation blocks are not serialized: they are a pure function of
// the driver image, so the decoder resolves each block address through
// the coordinator's own translation image. That also keeps the
// coordinator's translated-block accounting identical to a single-node
// run, where one shared image translates every distinct block exactly
// once no matter which worker executed it first.

// WireBlock is one BlockInfo without the ir.Block pointer.
type WireBlock struct {
	Addr      uint32    `json:"addr"`
	Count     int64     `json:"count"`
	IO        []Access  `json:"io,omitempty"`
	TouchesOS bool      `json:"touches_os,omitempty"`
	RegsIn    [8]uint32 `json:"regs_in"`
	RegsOut   [8]uint32 `json:"regs_out"`
}

// WireEdge is one observed control transfer with its count.
type WireEdge struct {
	From  uint32   `json:"from"`
	To    uint32   `json:"to"`
	Kind  EdgeKind `json:"kind"`
	Count int64    `json:"count"`
}

// WireCall is one call-site -> callee pair.
type WireCall struct {
	Site   uint32 `json:"site"`
	Target uint32 `json:"target"`
}

// WireCollector is the serialized form of a Collector.
type WireCollector struct {
	Blocks       []WireBlock       `json:"blocks,omitempty"`
	Edges        []WireEdge        `json:"edges,omitempty"`
	Calls        []WireCall        `json:"calls,omitempty"`
	APICalls     []APICallRecord   `json:"api_calls,omitempty"`
	AsyncEntries []uint32          `json:"async,omitempty"`
	EntryPoints  map[uint32]string `json:"entries,omitempty"`
	FuncParams   map[uint32]int    `json:"params,omitempty"`
	FuncReturns  []uint32          `json:"returns,omitempty"`
}

// Encode serializes the collector. Map-backed records are emitted in
// sorted key order so the encoding is deterministic.
func (c *Collector) Encode() *WireCollector {
	w := &WireCollector{
		APICalls:    c.APICalls,
		EntryPoints: c.EntryPoints,
		FuncParams:  c.FuncParams,
	}
	for _, addr := range c.SortedBlockAddrs() {
		bi := c.Blocks[addr]
		w.Blocks = append(w.Blocks, WireBlock{
			Addr: addr, Count: bi.Count, IO: bi.IO, TouchesOS: bi.TouchesOS,
			RegsIn: bi.RegsInSample, RegsOut: bi.RegsOutSample,
		})
	}
	edges := make([]Edge, 0, len(c.Edges))
	for e := range c.Edges {
		edges = append(edges, e)
	}
	sortEdges(edges)
	for _, e := range edges {
		w.Edges = append(w.Edges, WireEdge{From: e.From, To: e.To, Kind: e.Kind, Count: c.Edges[e]})
	}
	for _, site := range sortedKeys32(c.Calls) {
		for _, t := range sortedKeysBool(c.Calls[site]) {
			w.Calls = append(w.Calls, WireCall{Site: site, Target: t})
		}
	}
	w.AsyncEntries = sortedKeysBool(c.AsyncEntries)
	w.FuncReturns = sortedKeysBool(c.FuncReturns)
	return w
}

// BlockResolver turns a block address back into its translation block;
// the coordinator passes its engine's cache lookup.
type BlockResolver func(addr uint32) (*ir.Block, error)

// Decode rebuilds a collector from its wire form, resolving block
// addresses through resolve. It fails (rather than dropping records)
// on addresses that no longer translate — that means the request and
// the image went out of sync, and a silently incomplete wiretap would
// corrupt the synthesized driver downstream.
func (w *WireCollector) Decode(resolve BlockResolver) (*Collector, error) {
	c := NewCollector()
	for _, wb := range w.Blocks {
		b, err := resolve(wb.Addr)
		if err != nil {
			return nil, fmt.Errorf("trace: decode block %#x: %w", wb.Addr, err)
		}
		bi := &BlockInfo{
			Block: b, Count: wb.Count, TouchesOS: wb.TouchesOS,
			RegsInSample: wb.RegsIn, RegsOutSample: wb.RegsOut,
		}
		bi.IO = append(bi.IO, wb.IO...)
		for _, a := range wb.IO {
			c.ioSeen[ioKey{a.InstrAddr, a.Class, a.Write}] = true
		}
		c.Blocks[wb.Addr] = bi
	}
	for _, e := range w.Edges {
		c.Edges[Edge{From: e.From, To: e.To, Kind: e.Kind}] = e.Count
	}
	for _, call := range w.Calls {
		c.Call(call.Site, call.Target)
	}
	c.APICalls = append(c.APICalls, w.APICalls...)
	for _, a := range w.AsyncEntries {
		c.AsyncEntries[a] = true
	}
	for a, role := range w.EntryPoints {
		c.EntryPoints[a] = role
	}
	for fn, n := range w.FuncParams {
		c.FuncParams[fn] = n
	}
	for _, fn := range w.FuncReturns {
		c.FuncReturns[fn] = true
	}
	return c, nil
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
}

func sortedKeys32[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeysBool(m map[uint32]bool) []uint32 {
	return sortedKeys32(m)
}
