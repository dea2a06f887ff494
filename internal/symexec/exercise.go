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
// execution it runs against the shard's engine, so it must only use
// the engine's solver and counters and the state itself.
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
	return e.mayHold(s, e.ar.Eq(s.Result, e.ar.C(guestos.StatusSuccess, 32)))
}

func nonZero(e *Engine, s *State) bool {
	return e.mayHold(s, e.ar.Not(e.ar.Eq(s.Result, e.ar.C(0, 32))))
}

// mayHold reports whether c can hold under the state's path
// condition, trying the witness before the solver.
func (e *Engine) mayHold(s *State, c *expr.Expr) bool {
	if v, ok := c.IsConst(); ok {
		return v != 0
	}
	if expr.Eval(c, s.witness) != 0 {
		e.modelHits++
		return true
	}
	_, ok := e.sol.MayBeTrue(s.Constraints, c)
	return ok
}

func anyResult(e *Engine, s *State) bool { return true }

// Explore runs the full exercise script symbolically: load, init,
// IOCTLs (query/set with symbolic OIDs and buffers), send with
// symbolic packet data and length, interrupt handling under symbolic
// hardware, the timer, and unload — mirroring §3.2's user-mode
// script, with interrupt injection after entry points return.
func (e *Engine) Explore() (*Result, error) {
	// The solver's counters outlive Close; its session goes back to
	// the free list for the next exploration.
	defer e.sol.Close()
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
				v := e.concretizeU32(next, wordOf(next.Result))
				if v == 0 {
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
	search := e.sol.Search()
	search.Add(e.shardSearch)
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
		SolverQueries:    queries + e.shardQueries,
		SolverCacheHits:  hits + e.shardHits,
		SolverModelHits:  e.modelHits,
		SolverSearch:     search,
		TranslatedBlocks: e.image.Misses(),
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

// pickSeed chooses the successful completed state with the lowest ID.
// The entry-point completion heuristic continues from "one successful
// one chosen at random" (§3.2); which one it is has never changed a
// trace, a counter or a line of synthesized code, so the choice is
// canonical and needs no random stream. Every completed state with a
// result is tested, so the success checks' solver work does not depend
// on the pick.
func (e *Engine) pickSeed(completed []*State, ok successFn) *State {
	var best *State
	for _, s := range completed {
		if s.Result != nil && ok(e, s) && (best == nil || s.ID < best.ID) {
			best = s
		}
	}
	return best
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
	e.enterPhase(st, entry, args)

	bdg := ShardBudget{
		Blocks:     int64(e.cfg.PhaseBudget),
		Stagnation: int64(e.cfg.StagnationBudget),
		Successes:  e.cfg.CompleteTarget,
		MaxStates:  e.cfg.MaxStates,
	}
	spreadTo := 0
	if e.cfg.Shards > 1 {
		spreadTo = e.cfg.Shards
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
	bdg.Blocks -= used
	forked, err := e.exploreShards(live, name, successName, bdg)
	if err != nil {
		return nil, err
	}
	return append(completed, forked...), nil
}

// enterPhase prepares st to call an entry point: it fills the buffers
// reserved by symBuffer, pushes the arguments and the completion
// sentinel, and resets the per-phase bookkeeping.
func (e *Engine) enterPhase(st *State, entry uint32, args []argSpec) {
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
				st.Mem.setByte(b.addr+i, pattern[i], nil)
			} else {
				st.Mem.setByte(b.addr+i, byte(i*7), nil)
			}
		}
		for _, off := range b.symBytes {
			if uint32(off) < b.n {
				st.Mem.setByte(b.addr+uint32(off), 0, e.freshSym("buf", 8))
			}
		}
	}
	e.bufs = nil

	// Push arguments right-to-left, then the completion sentinel.
	sp, _ := st.regs[isa.SP].concrete()
	for i := len(args) - 1; i >= 0; i-- {
		sp -= 4
		v := word{v: args[i].concrete}
		if args[i].symbolic != "" {
			v = word{e: e.freshSym(args[i].symbolic, 32)}
		}
		st.Mem.write(sp, 4, v)
	}
	sp -= 4
	st.Mem.write(sp, 4, word{v: vm.MagicReturn})
	st.regs[isa.SP] = word{v: sp}
	st.PC = entry
	st.localCount = map[uint32]int{}
	// The kernel's invocation is the root frame: parameter reads at
	// [sp+4+4i] are the entry point's own arguments.
	st.Frames = []frame{{target: entry, entrySP: sp}}
}

// exploreSet runs the state-selection loop over live until the set
// drains, the budgets expire, enough successful completions
// accumulate, or — when spreadTo > 0 — the live set has grown to
// spreadTo states (the fan-out point of the fork-join mode, in which
// case the still-live remainder is returned). That exit is a pure
// function of the deterministic serial spread. Path selection
// is delegated to a fresh Searcher built from Config.Searcher, so
// each explored state group owns its searcher state. used reports
// the translation blocks consumed against bdg.Blocks.
func (e *Engine) exploreSet(live []*State, name string, bdg ShardBudget, success successFn, spreadTo int) (completed, remaining []*State, used int64, err error) {
	successes := 0
	startExec := e.exec
	lastCovExec := e.exec
	lastCov := e.col.CoveredBlocks()
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

	// stepped is the removed list of each step's Update, reused: the
	// searcher may read it only during the call.
	stepped := make([]*State, 1)
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
		if spreadTo > 0 && len(live) >= spreadTo {
			return completed, live, e.exec - startExec, nil
		}
		if e.exec-startExec > bdg.Blocks ||
			e.exec-lastCovExec > bdg.Stagnation {
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
		stepped[0] = s
		sr.Update(out, stepped)

		if c := e.col.CoveredBlocks(); c != lastCov {
			lastCov = c
			lastCovExec = e.exec
		}

		if s.Reason == TermCompleted {
			completed = append(completed, s)
			if success(e, s) {
				successes++
				if successes >= bdg.Successes {
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
		if len(live) > bdg.MaxStates {
			var killed []*State
			live, killed = e.shedStates(live, bdg.MaxStates)
			sr.Update(nil, killed)
			clear(pos)
			for i, st := range live {
				pos[st] = i
			}
		}
	}
	return completed, nil, e.exec - startExec, nil
}

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
