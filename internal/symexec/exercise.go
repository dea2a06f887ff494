package symexec

import (
	"fmt"

	"revnic/internal/expr"
	"revnic/internal/guestos"
	"revnic/internal/isa"
	"revnic/internal/vm"
)

// argSpec describes one entry-point argument in a phase: either a
// concrete value or a fresh symbolic one ("RevNIC selectively
// converts the parameters of kernel-to-driver calls into symbolic
// values", §2).
type argSpec struct {
	concrete uint32
	symbolic string // non-empty: fresh symbol of this name prefix
}

func conc(v uint32) argSpec   { return argSpec{concrete: v} }
func sym(name string) argSpec { return argSpec{symbolic: name} }

// successFn tests a completed state's return value. During shard
// execution it runs against the worker's engine, so it must only use
// the engine's solver and the state itself.
type successFn func(e *Engine, s *State) bool

// phase is one step of the exercise script.
type phase struct {
	name  string
	entry func() uint32
	args  func(ctx uint32) []argSpec
	// success names the predicate (successAny/successOK/successNonZero)
	// testing a completed state's return value; successful completions
	// count toward the discard heuristic and are eligible to seed the
	// next phase. A name, not a function, because shard tasks carry it
	// across process boundaries.
	success string
	// bindCtx extracts the adapter context from the seeding state.
	bindCtx bool
}

// Wire names of the success predicates (ShardTask.Success).
const (
	successAny     = "any"
	successOK      = "ok"
	successNonZero = "nonzero"
)

// successFunc resolves a predicate's wire name; the empty name means
// successAny, so older coordinators stay compatible.
func successFunc(name string) (successFn, error) {
	switch name {
	case successAny, "":
		return anyResult, nil
	case successOK:
		return statusOK, nil
	case successNonZero:
		return nonZero, nil
	}
	return nil, fmt.Errorf("symexec: unknown success predicate %q", name)
}

func statusOK(e *Engine, s *State) bool {
	return e.sol.MayBeTrue(s.Constraints, e.ar.Eq(s.Result, e.ar.C(guestos.StatusSuccess, 32)))
}

func nonZero(e *Engine, s *State) bool {
	return e.sol.MayBeTrue(s.Constraints, e.ar.Not(e.ar.Eq(s.Result, e.ar.C(0, 32))))
}

func anyResult(e *Engine, s *State) bool { return true }

// Explore runs the full exercise script symbolically: load, init,
// IOCTLs (query/set with symbolic OIDs and buffers), send with
// symbolic packet data and length, interrupt handling under symbolic
// hardware, the timer, and unload — mirroring §3.2's user-mode
// script, with interrupt injection after entry points return.
func (e *Engine) Explore() (*Result, error) {
	// Phase 0: DriverEntry, executed symbolically like everything
	// else (its RegisterMiniport call is monitored to discover entry
	// points).
	seed := e.newState()
	completed, err := e.runPhase(seed, "load", e.prog.Base, nil, successAny)
	if err != nil {
		return nil, err
	}
	if !e.entries.Registered() {
		if e.stopReason() != TermRunning {
			// Stopped before DriverEntry registered anything: an empty
			// but well-formed partial result, not an error.
			return e.buildResult(false), nil
		}
		return nil, fmt.Errorf("symexec: driver did not register entry points")
	}
	e.col.Entry(e.prog.Base, "load")
	e.col.Entry(e.entries.Init, "initialize")
	e.col.Entry(e.entries.Send, "send")
	e.col.Entry(e.entries.ISR, "isr")
	if e.entries.Query != 0 {
		e.col.Entry(e.entries.Query, "query")
	}
	if e.entries.Set != 0 {
		e.col.Entry(e.entries.Set, "set")
	}
	e.col.Entry(e.entries.Halt, "halt")
	seed = e.pickSeed(completed, anyResult)
	if seed == nil {
		if e.stopReason() != TermRunning {
			return e.buildResult(false), nil
		}
		return nil, fmt.Errorf("symexec: DriverEntry never completed")
	}

	var ctx uint32
	initFailed := false
	phases := []phase{
		{name: "initialize", entry: func() uint32 { return e.entries.Init },
			args:    func(uint32) []argSpec { return nil },
			success: successNonZero, bindCtx: true},
		{name: "query", entry: func() uint32 { return e.entries.Query },
			args: func(ctx uint32) []argSpec {
				// Symbolic OID explores every handler and the
				// unsupported-OID error path in one invocation.
				return []argSpec{conc(ctx), sym("oid"), conc(e.symBuffer(64, nil)), conc(64)}
			},
			success: successOK},
		// Set IOCTLs are exercised the way the user-mode script issues
		// them — one call per IOCTL class — mixing concrete and
		// symbolic buffer data to keep exploration tractable (§3.2:
		// "Existing techniques can be employed to mix concrete and
		// symbolic data within the same buffer, in order to speed up
		// exploration").
		{name: "set-flags", entry: func() uint32 { return e.entries.Set },
			args: func(ctx uint32) []argSpec {
				// Symbolic OID + a symbolic flag word: covers the
				// packet filter bit combinations, duplex/WOL/LED
				// on/off branches, and the default error path. The
				// zero length makes the multicast-list loop exit
				// immediately; the list itself is exercised next.
				return []argSpec{conc(ctx), sym("oid"), conc(e.symBuffer(64, []int{0, 1, 2, 3})), conc(0)}
			},
			success: successOK},
		{name: "set-multicast", entry: func() uint32 { return e.entries.Set },
			args: func(ctx uint32) []argSpec {
				// Concrete group addresses keep the CRC-32 hashing
				// concrete (covering the whole algorithm without a
				// 2^48 fork storm) while the symbolic length explores
				// the list-walking loop bounds.
				return []argSpec{conc(ctx), conc(guestos.OIDMulticastList),
					conc(e.symBuffer(64, nil)), sym("inlen")}
			},
			success: successOK},
		{name: "send", entry: func() uint32 { return e.entries.Send },
			args: func(ctx uint32) []argSpec {
				// Symbolic length covers the runt/giant boundary
				// checks and every copy-loop exit; the EtherType
				// bytes stay symbolic so packet-type-dependent
				// driver logic (ARP vs IP vs VLAN, §2) would fork.
				return []argSpec{conc(ctx), conc(e.symBuffer(1514, []int{12, 13})), sym("pktlen")}
			},
			success: successOK},
		{name: "isr", entry: func() uint32 { return e.entries.ISR },
			args:    func(ctx uint32) []argSpec { return []argSpec{conc(ctx)} },
			success: successAny},
		{name: "timer", entry: func() uint32 { return e.timer },
			args:    func(ctx uint32) []argSpec { return []argSpec{conc(ctx)} },
			success: successAny},
		{name: "halt", entry: func() uint32 { return e.entries.Halt },
			args:    func(ctx uint32) []argSpec { return []argSpec{conc(ctx)} },
			success: successAny},
	}

	e.col.Async(e.entries.ISR)
	for _, ph := range phases {
		if e.stopReason() != TermRunning {
			// Cancelled or past the deadline: keep everything the
			// completed phases produced and stop exercising new ones.
			break
		}
		entry := ph.entry()
		if entry == 0 {
			continue // optional entry point not registered
		}
		if ph.name == "timer" {
			// The timer handler was registered at run time via
			// NdisMInitializeTimer (§3.2); it is an asynchronous
			// event root like the ISR.
			e.col.Entry(entry, "timer")
			e.col.Async(entry)
		}
		st := e.fork(seed)
		st.Reason = TermRunning
		var specs []argSpec
		if ph.args != nil {
			specs = ph.args(ctx)
		}
		okFn, err := successFunc(ph.success)
		if err != nil {
			return nil, err
		}
		completed, err := e.runPhase(st, ph.name, entry, specs, ph.success)
		if err != nil {
			return nil, err
		}
		next := e.pickSeed(completed, okFn)
		if next == nil {
			// The entry point never completed successfully (e.g. a
			// hardware-dependent wait): fall back to any completed
			// path, else keep the old seed.
			next = e.pickSeed(completed, anyResult)
		}
		if next != nil {
			if ph.bindCtx {
				v, ok := e.concretizeU32(next, next.Result)
				if !ok || v == 0 {
					// The driver refused to initialize (e.g. no
					// responding device under the concrete-hardware
					// ablation): report what was covered so far.
					initFailed = true
					break
				}
				ctx = v
			}
			seed = next
		} else if ph.bindCtx {
			initFailed = true
			break
		}
	}

	return e.buildResult(initFailed), nil
}

// buildResult assembles the exploration summary from the engine's
// accumulated state. For a stopped run it is a consistent snapshot:
// only fully merged phase explorations contribute, so the completed
// phases' traces match an uncancelled run's bit for bit.
func (e *Engine) buildResult(initFailed bool) *Result {
	queries, hits := e.sol.Stats()
	return &Result{
		InitFailed:       initFailed,
		Collector:        e.col,
		Entries:          e.entries,
		Coverage:         e.coverage,
		ExecutedBlocks:   e.exec,
		ForkCount:        e.forks,
		KilledLoops:      e.killed,
		DMARegions:       e.dma.Regions(),
		Strategy:         e.cfg.Searcher(e.col).Name(),
		SolverQueries:    queries + e.childQueries,
		SolverCacheHits:  hits + e.childHits,
		SolverModelHits:  e.sol.ModelHits() + e.childModelHits,
		SolverSearch:     e.searchStats(),
		TranslatedBlocks: e.cache.Misses(),
		ShardsEffective:  e.shardsEff,
		ShardCollapses:   e.shardCollapses,
		Stopped:          e.stopHit,
	}
}

// Timer returns the timer handler address registered during
// exploration (0 if none).
func (e *Engine) Timer() uint32 { return e.timer }

// symBuffer reserves a guest buffer filled with deterministic
// concrete data except at the listed offsets, which become fresh
// symbolic bytes when the phase state is prepared (mixed
// concrete/symbolic buffers, §3.2). symBytes == nil means fully
// concrete content.
func (e *Engine) symBuffer(n uint32, symBytes []int) uint32 {
	// Buffers live in a dedicated window above the OS heap.
	addr := e.nextBuf
	if addr == 0 {
		addr = 0x000C0000
	}
	e.nextBuf = addr + ((n + 15) &^ 15)
	e.bufs = append(e.bufs, bufSpec{addr, n, symBytes})
	return addr
}

type bufSpec struct {
	addr, n  uint32
	symBytes []int
}

// pickSeed chooses one successful completed state at random — the
// entry-point completion heuristic's "one successful one chosen at
// random" (§3.2).
func (e *Engine) pickSeed(completed []*State, ok func(*Engine, *State) bool) *State {
	var eligible []*State
	for _, s := range completed {
		if s.Result != nil && ok(e, s) {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	return eligible[e.rng.Intn(len(eligible))]
}

// runPhase symbolically executes one entry point from the given seed
// state until the state set drains, the budget expires, or coverage
// stagnates. With Shards > 1 the phase runs fork-join: a serial
// spread grows the live set to Shards independent state groups, the
// groups are explored on up to Config.Workers goroutines, and the
// results are merged back in seed order, so the outcome is the same
// for every Workers value.
func (e *Engine) runPhase(st *State, name string, entry uint32, args []argSpec, successName string) ([]*State, error) {
	success, err := successFunc(successName)
	if err != nil {
		return nil, err
	}
	// Fill pending buffers: patterned concrete data with symbolic
	// bytes at the requested offsets. The concrete pattern includes
	// two multicast group addresses so list-processing code sees
	// realistic input.
	for _, b := range e.bufs {
		pattern := []byte{
			0x01, 0x00, 0x5E, 0x00, 0x00, 0x01,
			0x01, 0x00, 0x5E, 0x7F, 0xFF, 0xFA,
		}
		for i := uint32(0); i < b.n; i++ {
			if int(i) < len(pattern) {
				st.Mem.SetByte(b.addr+i, e.ar.C(uint32(pattern[i]), 8))
			} else {
				st.Mem.SetByte(b.addr+i, e.ar.C(uint32(i*7)&0xFF, 8))
			}
		}
		for _, off := range b.symBytes {
			if uint32(off) < b.n {
				st.Mem.SetByte(b.addr+uint32(off), e.freshSym("buf", 8))
			}
		}
	}
	e.bufs = nil

	// Push arguments right-to-left, then the completion sentinel.
	sp, _ := st.Regs[isa.SP].IsConst()
	for i := len(args) - 1; i >= 0; i-- {
		sp -= 4
		var v *expr.Expr
		if args[i].symbolic != "" {
			v = e.freshSym(args[i].symbolic, 32)
		} else {
			v = e.ar.C(args[i].concrete, 32)
		}
		st.Mem.Write(sp, 4, v)
	}
	sp -= 4
	st.Mem.Write(sp, 4, e.ar.C(vm.MagicReturn, 32))
	st.Regs[isa.SP] = e.ar.C(sp, 32)
	st.PC = entry
	st.localCount = map[uint32]int{}
	// The kernel's invocation is the root frame: parameter reads at
	// [sp+4+4i] are the entry point's own arguments.
	st.Frames = []frame{{target: entry, entrySP: sp}}

	bdg := phaseBudgets{
		blocks:     int64(e.cfg.PhaseBudget),
		stagnation: int64(e.cfg.StagnationBudget),
		successes:  e.cfg.CompleteTarget,
		maxStates:  e.cfg.MaxStates,
	}
	spreadTo := 0
	if e.cfg.Shards > 1 {
		spreadTo = e.cfg.fanoutTarget()
	}
	completed, live, used, err := e.exploreSet([]*State{st}, name, bdg, success, spreadTo)
	if err != nil {
		return nil, err
	}
	if len(live) == 0 {
		// The phase drained (or hit its budget) before fanning out: a
		// parallelism collapse — the whole phase ran serially even
		// though Shards asked for fan-out. Count it instead of hiding
		// it (Result.ShardCollapses, surfaced on /metrics by revnicd).
		if spreadTo > 0 {
			e.shardCollapses++
		}
		return completed, nil
	}
	bdg.blocks -= used
	forked, err := e.exploreShards(live, name, successName, bdg, success)
	if err != nil {
		return nil, err
	}
	return append(completed, forked...), nil
}

// exploreSet runs the state-selection loop over live until the set
// drains, the budgets expire, enough successful completions
// accumulate, or — when spreadTo > 0 — the live set has grown to
// spreadTo states (the fan-out point of the fork-join mode, in which
// case the still-live remainder is returned). The spread also fans
// out early, with whatever width it reached, once at least Shards
// live states exist and the live set has stopped growing for
// spreadStallBlocks executed blocks: waiting for a fan-out width the
// driver cannot sustain would only burn serial time. Both exits are
// pure functions of the deterministic serial spread. Path selection
// is delegated to a fresh Searcher built from Config.Searcher, so
// each explored state group owns its searcher state. used reports
// the translation blocks consumed against bdg.blocks.
func (e *Engine) exploreSet(live []*State, name string, bdg phaseBudgets, success successFn, spreadTo int) (completed, remaining []*State, used int64, err error) {
	successes := 0
	startExec := e.exec
	lastCovExec := e.exec
	lastCov := e.col.CoveredBlocks()
	peakLive := len(live)
	lastGrowExec := e.exec
	sr := e.cfg.Searcher(e.col)
	sr.Update(live, nil)

	// pos tracks each live state's slice index so removing the
	// searcher's selection is O(1); with the priority-queue coverage
	// searcher the whole scheduling decision is then O(log n) instead
	// of two O(n) scans per executed block.
	pos := make(map[*State]int, len(live))
	for i, st := range live {
		pos[st] = i
	}
	push := func(st *State) {
		pos[st] = len(live)
		live = append(live, st)
	}
	remove := func(st *State) {
		i := pos[st]
		last := len(live) - 1
		live[i] = live[last]
		pos[live[i]] = i
		live = live[:last]
		delete(pos, st)
	}

	for len(live) > 0 {
		if r := e.stopReason(); r != TermRunning {
			// Cooperative stop: discard the live set with the stop
			// reason and return what completed — the partial result
			// keeps every path that finished before the stop.
			for _, s := range live {
				s.Reason = r
			}
			break
		}
		if spreadTo > 0 {
			if len(live) > peakLive {
				peakLive = len(live)
				lastGrowExec = e.exec
			}
			if len(live) >= spreadTo {
				return completed, live, e.exec - startExec, nil
			}
			if len(live) >= e.cfg.Shards && e.exec-lastGrowExec > spreadStallBlocks {
				// Stalled spread: the base fan-out width is available
				// but the finer target is out of reach; fan out now
				// with the width the driver sustains.
				return completed, live, e.exec - startExec, nil
			}
		}
		if e.exec-startExec > bdg.blocks ||
			e.exec-lastCovExec > bdg.stagnation {
			for _, s := range live {
				s.Reason = TermBudget
			}
			break
		}
		s := sr.Select(live)
		remove(s)

		out, err := e.stepBlock(s)
		if err != nil {
			return nil, nil, e.exec - startExec, fmt.Errorf("symexec: phase %s: %w", name, err)
		}
		for _, o := range out {
			push(o)
		}
		sr.Update(out, []*State{s})

		if c := e.col.CoveredBlocks(); c != lastCov {
			lastCov = c
			lastCovExec = e.exec
		}

		if s.Reason == TermCompleted {
			completed = append(completed, s)
			if success(e, s) {
				successes++
				if successes >= bdg.successes {
					// Discard all remaining paths of this entry point
					// (§3.2), freeing memory and moving on.
					for _, l := range live {
						l.Reason = TermKilledDiscard
					}
					sr.Update(nil, live)
					live = nil
					clear(pos)
				}
			}
		}
		// State-cap pressure: discard the states deepest into
		// re-executed code (they are the least likely to find new
		// blocks).
		if len(live) > bdg.maxStates {
			var killed []*State
			live, killed = e.shedStates(live, bdg.maxStates)
			sr.Update(nil, killed)
			clear(pos)
			for i, st := range live {
				pos[st] = i
			}
		}
	}
	return completed, nil, e.exec - startExec, nil
}

// spreadStallBlocks is the stall window of the adaptive spread: with
// the base fan-out width reached and no net live-set growth for this
// many executed blocks, the phase fans out rather than keep chasing
// the finer Shards × ShardFactor target serially. Well below the
// default stagnation budget, so a stalling spread fans out before the
// stagnation rule would kill the phase.
const spreadStallBlocks = 4096

// shedStates drops the most loop-bound half of an oversized state
// set, emulating the memory-pressure discards of §3.4, returning the
// survivors and the killed states (so the searcher can be told).
// maxStates is the cap of the calling exploration (per shard in
// fork-join mode).
func (e *Engine) shedStates(live []*State, maxStates int) (kept, killed []*State) {
	kept = make([]*State, 0, len(live))
	// Keep states whose current block is cold; kill the hottest.
	for _, s := range live {
		if e.col.BlockCount(s.PC) < 4*int64(e.cfg.PollThreshold) || len(kept) < maxStates/2 {
			kept = append(kept, s)
		} else {
			s.Reason = TermKilledLoop
			e.killed++
			killed = append(killed, s)
		}
	}
	if len(kept) > maxStates {
		for _, s := range kept[maxStates:] {
			s.Reason = TermKilledLoop
			e.killed++
			killed = append(killed, s)
		}
		kept = kept[:maxStates]
	}
	return kept, killed
}
