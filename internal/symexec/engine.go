package symexec

import (
	"fmt"
	"math/rand"
	"time"

	"revnic/internal/expr"
	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/isa"
	"revnic/internal/solver"
	"revnic/internal/trace"
	"revnic/internal/vm"
)

// Config parameterizes an exploration run. Zero values select the
// defaults the paper's prototype effectively uses.
type Config struct {
	// Shell is the PCI descriptor of the shell device: "the vendor
	// and product identifier of the device whose driver is being
	// reverse engineered, the I/O memory ranges, and the interrupt
	// line. The developer obtains these parameters from the Windows
	// device manager" (§3.4).
	Shell hw.PCIConfig
	// Searcher builds the path-selection searcher for each explored
	// state group (the root engine and every fork-join worker child
	// construct their own through it, so searcher state is never
	// shared between goroutines). nil selects NewCoverageGuided, the
	// paper's min-count heuristic; NewDFS and NewBFS are the ablation
	// baselines, and SearcherByName resolves command-line names.
	Searcher SearcherFactory
	// Arena is the expression arena the engine (and its solvers and
	// fork-join worker children) builds every expression in. nil
	// selects the process-global default arena — the CLI
	// configuration. A long-lived service gives each job its own
	// arena so the job's interned expressions are reclaimed wholesale
	// when the job's results are dropped. The arena choice never
	// affects exploration results: canonicalization is structural, so
	// traces, coverage and synthesized code are bit-identical across
	// arenas.
	Arena *expr.Arena
	// DisableIncrementalSolver turns off the solver's shared
	// incremental SAT session for branch queries (ablation). Query
	// answers — and therefore exploration results — are identical
	// either way.
	DisableIncrementalSolver bool
	// PollThreshold is the per-state repeat count after which the
	// polling-loop killer discards the staying path.
	PollThreshold int
	// CompleteTarget is the number of successful entry-point
	// completions after which remaining paths are discarded.
	CompleteTarget int
	// MaxStates bounds the live state set.
	MaxStates int
	// PhaseBudget bounds translation blocks executed per entry point.
	PhaseBudget int
	// StagnationBudget ends a phase after this many blocks without
	// new coverage.
	StagnationBudget int
	// DisableLoopKill turns off the polling-loop heuristic (ablation).
	DisableLoopKill bool
	// ConcreteHardware replaces symbolic hardware reads with a fixed
	// concrete value (ablation: what a real, passive device would
	// return on most reads).
	ConcreteHardware bool
	// Seed drives the random successful-path choice.
	Seed int64
	// Workers is the number of goroutines that execute exploration
	// shards concurrently within each exercise phase. It sets
	// concurrency only: for a fixed Seed (and Shards) the explored
	// paths, traces and coverage are bit-identical for every Workers
	// value. 0 and 1 both run the shards serially.
	Workers int
	// Stop, when non-nil, is a cooperative cancellation signal with
	// context.Context.Done semantics: once the channel is closed, the
	// exploration loops (and any SAT solve in flight) wind down and
	// Explore returns a partial but well-formed Result — the traces,
	// coverage and statistics of everything completed so far, with
	// Result.Stopped set to TermCancelled. A Stop channel that never
	// fires leaves the run bit-identical to Stop == nil.
	Stop <-chan struct{}
	// Deadline, when non-zero, is the wall-clock instant after which
	// exploration winds down exactly like a cancellation, with
	// Result.Stopped set to TermDeadline. A deadline that never
	// arrives leaves results unchanged.
	Deadline time.Time
	// Shards is the fan-out width of the fork-join exploration: each
	// phase first spreads serially until this many independent live
	// states exist, then explores each group to completion with
	// worker-local collectors that are merged back in seed order.
	// Unlike Workers, Shards is part of the deterministic schedule
	// (it decides where path groups stop seeing each other's block
	// counts), so changing it changes the explored paths. 0 selects
	// the default; 1 disables fan-out entirely (the original fully
	// serial schedule).
	Shards int
	// ShardFactor multiplies the fan-out granularity: each phase aims
	// for Shards × ShardFactor shard groups, so pull-based schedulers
	// (the in-process worker pool and the cluster work queue) have
	// finer units to balance and one heavy group no longer sets the
	// phase's wall clock. Like Shards it is part of the deterministic
	// schedule — for a fixed factor the results are bit-identical
	// across Workers, runners and scheduling — and 1 reproduces the
	// exact Shards-group schedule of earlier versions. 0 selects auto:
	// the spread targets Shards × 4 groups but fans out early when the
	// live set stops growing, so the granularity adapts to how many
	// independent states the driver can actually sustain.
	ShardFactor int
	// ShardRunner, when non-nil, executes the fork-join shard groups
	// through an external dispatcher (the cluster layer's
	// fault-tolerant work queue) instead of in-process worker
	// children. The runner receives each phase's groups as
	// self-contained ShardTasks plus a local-execution closure;
	// because task execution is deterministic and idempotent, the
	// merged results are bit-identical to a nil-runner run no matter
	// how the dispatcher mixes remote execution, retries, stealing
	// and local fallback.
	ShardRunner ShardRunner
}

func (c *Config) defaults() {
	if c.Searcher == nil {
		c.Searcher = NewCoverageGuided
	}
	if c.Arena == nil {
		c.Arena = expr.Default()
	}
	if c.PollThreshold == 0 {
		c.PollThreshold = 48
	}
	if c.CompleteTarget == 0 {
		// High enough that shallow handler paths (quick OID
		// successes) do not starve deep ones (re-initialization)
		// before they complete.
		c.CompleteTarget = 32
	}
	if c.MaxStates == 0 {
		c.MaxStates = 512
	}
	if c.PhaseBudget == 0 {
		c.PhaseBudget = 120000
	}
	if c.StagnationBudget == 0 {
		c.StagnationBudget = 20000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.ShardFactor < 0 {
		c.ShardFactor = 0
	}
}

// autoShardFactor is the granularity multiplier the auto setting
// (ShardFactor == 0) aims for; the stall rule in exploreSet fans out
// earlier when the driver cannot sustain that many live states.
const autoShardFactor = 4

// fanoutTarget is the number of shard groups a phase's serial spread
// aims for: Shards × ShardFactor.
func (c *Config) fanoutTarget() int {
	if c.Shards <= 1 {
		return c.Shards
	}
	f := c.ShardFactor
	if f <= 0 {
		f = autoShardFactor
	}
	return c.Shards * f
}

// CoveragePoint samples coverage growth for Figure 8.
type CoveragePoint struct {
	ExecutedBlocks int64
	CoveredBlocks  int
}

// Result is the outcome of reverse-engineering exploration.
type Result struct {
	Collector *trace.Collector
	Entries   guestos.EntryPoints
	// Coverage is the growth curve sampled during exploration.
	Coverage []CoveragePoint
	// ExecutedBlocks is the total number of translation blocks run.
	ExecutedBlocks int64
	// ForkCount is the number of state forks.
	ForkCount int64
	// InitFailed is set when MiniportInitialize never produced a
	// usable adapter context, so later entry points could not be
	// exercised (happens under the concrete-hardware ablation: the
	// driver correctly refuses to load without a responding device).
	InitFailed bool
	// KilledLoops counts polling-loop discards.
	KilledLoops int64
	// DMARegions are the shared-memory regions the driver registered.
	DMARegions [][2]uint32
	// Strategy names the searcher that drove this exploration.
	Strategy string
	// SolverQueries and SolverCacheHits aggregate the constraint
	// solver's work across the root engine and all fork-join worker
	// children; SolverModelHits counts queries answered by
	// re-evaluating a cached model instead of solving.
	SolverQueries   int64
	SolverCacheHits int64
	SolverModelHits int64
	// SolverSearch sums the SAT-level work (decisions, conflicts and
	// incremental session reuse) over the same solvers.
	SolverSearch solver.SearchStats
	// TranslatedBlocks is the number of distinct translation-cache
	// entries built (ir.Cache misses).
	TranslatedBlocks int64
	// ShardsEffective is the narrowest fan-out width any phase
	// achieved: the smallest shard-group count among phases that
	// reached their fan-out point (0 when no phase fanned out at all).
	// A value below Shards × ShardFactor means the live set could not
	// sustain the configured granularity.
	ShardsEffective int
	// ShardCollapses counts phases that were configured to fan out
	// (Shards > 1) but drained or exhausted their budget during the
	// serial spread — running entirely serially. Before this counter
	// existed the collapse was silent.
	ShardCollapses int64
	// Stopped records an early wind-down: TermCancelled (Config.Stop
	// fired) or TermDeadline (Config.Deadline passed). TermRunning
	// means the exercise script ran to completion. A stopped result is
	// partial but well-formed: every phase that completed before the
	// stop contributed its full traces and coverage.
	Stopped TermReason
}

// Engine drives selective symbolic execution of one driver binary.
type Engine struct {
	cfg   Config
	prog  *isa.Program
	cache *ir.Cache
	col   *trace.Collector
	sol   *solver.Solver
	ar    *expr.Arena
	rng   *rand.Rand

	baseRAM []byte
	entries guestos.EntryPoints
	timer   uint32
	dma     hw.DMARegistry

	symCount int
	stateID  int
	exec     int64
	forks    int64
	killed   int64
	coverage []CoveragePoint
	lastCov  int

	// childQueries/childHits/childModelHits/childSearch accumulate the
	// solver statistics of merged worker children (each child has its
	// own solver; the join folds its counters here).
	childQueries   int64
	childHits      int64
	childModelHits int64
	childSearch    solver.SearchStats

	// symPrefix namespaces fresh symbols minted by a worker child so
	// they can never collide with symbols already present in the seed
	// state's constraints (empty on the root engine).
	symPrefix string
	// jobSeq numbers worker children across all phases of this
	// engine, keeping their symbol namespaces globally unique.
	jobSeq int
	// discov logs the first execution of each translation block with
	// its local exec stamp; the fork-join merge replays worker logs
	// in seed order to rebuild one global coverage curve.
	discov []covDiscovery

	// shardsEff is the narrowest fan-out width achieved so far (0
	// until the first fan-out); shardCollapses counts phases that
	// should have fanned out but ran serially. Both are root-engine
	// observations — children never fan out.
	shardsEff      int
	shardCollapses int64

	nextBuf uint32
	bufs    []bufSpec

	// stopHit latches the first observed stop reason (TermRunning
	// while none); stopPoll amortizes the time.Now deadline check.
	stopHit  TermReason
	stopPoll int
}

// covDiscovery is one first-execution event in an engine's local
// exploration, used to merge worker coverage curves deterministically.
type covDiscovery struct {
	addr uint32
	exec int64
}

type imageReader struct{ ram []byte }

func (r imageReader) FetchInstr(addr uint32) (isa.Instr, error) {
	if int(addr)+isa.InstrSize > len(r.ram) {
		return isa.Instr{}, fmt.Errorf("symexec: fetch outside RAM at %#x", addr)
	}
	return isa.Decode(r.ram[addr:])
}

// New prepares an engine for the given driver binary. Only the
// binary image is consumed — no symbols, exactly like the real tool.
func New(prog *isa.Program, cfg Config) *Engine {
	cfg.defaults()
	ram := make([]byte, hw.RAMSize)
	copy(ram[prog.Base:], prog.Code)
	e := &Engine{
		cfg:     cfg,
		prog:    prog,
		col:     trace.NewCollector(),
		sol:     newSolver(cfg),
		ar:      cfg.Arena,
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		baseRAM: ram,
	}
	e.cache = ir.NewCache(imageReader{ram})
	return e
}

// newSolver builds a constraint solver configured per the engine: it
// shares the engine's expression arena, the ablation switches and the
// cooperative stop signal (so a cancellation also aborts a SAT solve
// already in flight instead of waiting for it).
func newSolver(cfg Config) *solver.Solver {
	return solver.NewWith(solver.Config{
		Arena:              cfg.Arena,
		DisableIncremental: cfg.DisableIncrementalSolver,
		Interrupt:          stopFunc(cfg),
	})
}

// stopFunc converts the config's stop signal and deadline into the
// solver-level interrupt predicate; nil when neither is set, so the
// common case pays nothing.
func stopFunc(cfg Config) func() bool {
	if cfg.Stop == nil && cfg.Deadline.IsZero() {
		return nil
	}
	return func() bool {
		if cfg.Stop != nil {
			select {
			case <-cfg.Stop:
				return true
			default:
			}
		}
		return !cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline)
	}
}

// stopReason reports whether the run should wind down: TermCancelled
// once Config.Stop fires, TermDeadline once Config.Deadline passes,
// TermRunning otherwise. The first hit latches — every later call
// returns the same reason. The deadline clock is polled only every
// 64th call; with block execution in the microsecond range the
// detection latency stays far under the 2-second wind-down target.
func (e *Engine) stopReason() TermReason {
	if e.stopHit != TermRunning {
		return e.stopHit
	}
	if e.cfg.Stop != nil {
		select {
		case <-e.cfg.Stop:
			e.stopHit = TermCancelled
			return e.stopHit
		default:
		}
	}
	if !e.cfg.Deadline.IsZero() {
		e.stopPoll++
		if e.stopPoll&63 == 0 && time.Now().After(e.cfg.Deadline) {
			e.stopHit = TermDeadline
			return e.stopHit
		}
	}
	return TermRunning
}

// freshSym mints a new hardware/input symbol.
func (e *Engine) freshSym(prefix string, w uint8) *expr.Expr {
	e.symCount++
	return e.ar.S(fmt.Sprintf("%s%s_%d", e.symPrefix, prefix, e.symCount), w)
}

// jobIDSpan reserves a state-ID range per worker child so IDs stay
// unique (and deterministic) across the fork-join.
const jobIDSpan = 1 << 20

// child builds the execution context of one exploration worker: it
// shares the immutable inputs (program image, translation cache,
// configuration) with the parent but gets its own collector, solver,
// counters and a snapshot of the mutable registries, so a group of
// states can be explored without touching the parent. The join
// (mergeChild) folds everything back in seed order.
func (e *Engine) child(idx int) *Engine {
	e.jobSeq++
	return &Engine{
		cfg:       e.cfg,
		prog:      e.prog,
		cache:     e.cache,
		col:       trace.NewCollector(),
		sol:       newSolver(e.cfg),
		ar:        e.ar,
		rng:       rand.New(rand.NewSource(e.cfg.Seed + int64(e.jobSeq))),
		baseRAM:   e.baseRAM,
		entries:   e.entries,
		timer:     e.timer,
		dma:       e.dma.Clone(),
		symPrefix: fmt.Sprintf("j%d.", e.jobSeq),
		stateID:   e.stateID + (idx+1)*jobIDSpan,
	}
}

func (e *Engine) newState() *State {
	e.stateID++
	s := &State{
		ID:         e.stateID,
		Mem:        NewMemoryArena(e.baseRAM, e.ar),
		heapNext:   0x00080000,
		localCount: map[uint32]int{},
	}
	for i := range s.Regs {
		s.Regs[i] = e.ar.C(0, 32)
	}
	s.Regs[isa.SP] = e.ar.C(hw.StackTop, 32)
	return s
}

func (e *Engine) fork(s *State) *State {
	e.stateID++
	e.forks++
	return s.Fork(e.stateID)
}

// inDriver reports whether addr is inside the driver image.
func (e *Engine) inDriver(addr uint32) bool {
	return addr >= e.prog.Base && addr < e.prog.Base+uint32(len(e.prog.Code))
}

// concretizeU32 returns a concrete value for v under the state's path
// constraints, additionally constraining v to that value.
func (e *Engine) concretizeU32(s *State, v *expr.Expr) (uint32, bool) {
	if c, ok := v.IsConst(); ok {
		return c, true
	}
	val, ok := e.sol.Concretize(s.Constraints, v)
	if !ok {
		return 0, false
	}
	s.Constrain(e.ar.Eq(v, e.ar.C(val, v.Width)))
	return val, true
}

// sampleCoverage appends a coverage point when coverage changed.
func (e *Engine) sampleCoverage(blockAddr uint32) {
	if c := e.col.CoveredBlocks(); c != e.lastCov {
		e.lastCov = c
		e.coverage = append(e.coverage, CoveragePoint{e.exec, c})
		e.discov = append(e.discov, covDiscovery{blockAddr, e.exec})
	}
}

// --- hardware and OS models -------------------------------------------------

// hwRead models symbolic hardware (§3.1/§3.4): every read from the
// device returns an unconstrained symbolic value.
func (e *Engine) hwRead(s *State, bi *trace.BlockInfo, instrAddr, addr uint32, size int, class trace.Class) *expr.Expr {
	e.col.IO(bi, trace.Access{
		InstrAddr: instrAddr, Addr: addr, Size: size, Class: class, Symbolic: true,
	})
	if e.cfg.ConcreteHardware {
		// Ablation: a passive concrete device. Status registers read
		// as zero, which is what idle hardware mostly returns.
		return e.ar.C(0, 32)
	}
	return e.ar.Zext(e.freshSym("hw", uint8(size*8)), 32)
}

func (e *Engine) hwWrite(s *State, bi *trace.BlockInfo, instrAddr, addr uint32, size int, v *expr.Expr) {
	e.col.IO(bi, trace.Access{
		InstrAddr: instrAddr, Addr: addr, Size: size, Write: true,
		Class: classOf(addr, true, &e.dma), Value: expr.Eval(v, nil),
		Symbolic: v.Kind != expr.KConst,
	})
}

func classOf(addr uint32, mmioSpace bool, dma *hw.DMARegistry) trace.Class {
	if hw.IsMMIO(addr) {
		return trace.ClassMMIO
	}
	if dma.Contains(addr) {
		return trace.ClassDMA
	}
	return trace.ClassRegular
}

// apiModel emulates the concrete OS side of selective symbolic
// execution at the API boundary. The driver's view matches package
// guestos exactly; symbolic arguments crossing into the OS are
// concretized, "keeping the OS unaware of symbolic execution" (§3.4).
func (e *Engine) apiModel(s *State, bi *trace.BlockInfo, callSite uint32, index uint32) error {
	if index >= guestos.NumAPIs {
		return fmt.Errorf("symexec: unknown API %d", index)
	}
	d := guestos.Table[index]
	sp, _ := s.Regs[isa.SP].IsConst()
	args := make([]uint32, d.NArgs)
	for i := range args {
		v, ok := e.concretizeU32(s, s.Mem.Read(sp+uint32(4*i), 4))
		if !ok {
			return fmt.Errorf("symexec: unsatisfiable API argument")
		}
		args[i] = v
	}
	ret := uint32(guestos.StatusSuccess)
	switch index {
	case guestos.APIRegisterMiniport:
		p := args[0]
		get := func(off uint32) uint32 {
			v, _ := s.Mem.Read(p+off, 4).IsConst()
			return v
		}
		e.entries = guestos.EntryPoints{
			Init:  get(guestos.CharInit),
			Send:  get(guestos.CharSend),
			ISR:   get(guestos.CharISR),
			Query: get(guestos.CharQuery),
			Set:   get(guestos.CharSet),
			Halt:  get(guestos.CharHalt),
		}
	case guestos.APIAllocateMemory, guestos.APIAllocateSharedMemory:
		n := (args[0] + 7) &^ 7
		ret = s.heapNext
		s.heapNext += n
		if index == guestos.APIAllocateSharedMemory {
			// Track DMA regions and report them to the shell device
			// (§3.4): reads from them return symbolic values.
			e.dma.Register(ret, args[0])
		}
	case guestos.APIReadPCIConfig:
		switch args[0] {
		case guestos.PCICfgID:
			ret = uint32(e.cfg.Shell.VendorID) | uint32(e.cfg.Shell.DeviceID)<<16
		case guestos.PCICfgIOBase:
			ret = e.cfg.Shell.IOBase
		case guestos.PCICfgIRQ:
			ret = uint32(e.cfg.Shell.IRQLine)
		default:
			ret = 0
		}
	case guestos.APIInitializeTimer:
		e.timer = args[0]
	case guestos.APIGetSystemUpTime:
		ret = 1000
	}
	e.col.API(bi, trace.APICallRecord{CallSite: callSite, Index: index, Name: d.Name, Args: args})
	// stdcall: the callee (here, the OS) pops the arguments. The call
	// instruction has not pushed a return address in this model; the
	// caller resumes at the instruction after the call.
	s.Regs[isa.SP] = e.ar.C(sp+uint32(4*d.NArgs), 32)
	s.Regs[isa.R0] = e.ar.C(ret, 32)
	return nil
}

// --- instruction execution --------------------------------------------------

// stepBlock executes one translation block on the state, returning
// the follow-on states (usually just s; two on a fork; none if the
// state terminated).
func (e *Engine) stepBlock(s *State) ([]*State, error) {
	b, err := e.cache.Get(s.PC)
	if err != nil {
		// Fetch outside mapped code: an error path (§3.2) — kill it.
		s.Reason = TermError
		return nil, nil
	}
	// Register snapshots are sampled on a block's first execution
	// only (the wiretap keeps one sample pair); evaluating witness
	// values for every repeat execution of hot blocks would dominate
	// exploration time on deep paths.
	isNew := e.col.BlockCount(b.Addr) == 0
	var regsIn [8]uint32
	if isNew {
		regsIn = s.ConcreteRegs()
	}
	bi := e.col.Block(b, regsIn, regsIn)
	s.lastBlock = b.Addr
	s.hasLast = true
	if e.inDriver(b.Addr) {
		e.exec++
		s.Depth++
		s.localCount[b.Addr]++
		e.sampleCoverage(b.Addr)
	}

	out, err := e.execInstrs(s, b, bi)
	if isNew {
		bi.RegsOutSample = s.ConcreteRegs()
	}
	return out, err
}

func (e *Engine) src2(s *State, in isa.Instr) *expr.Expr {
	if in.HasImmOperand() {
		return e.ar.C(in.Imm, 32)
	}
	return s.Regs[in.Rs2]
}

// condExpr builds the boolean for a branch condition.
func (e *Engine) condExpr(c isa.Cond, a, b *expr.Expr) *expr.Expr {
	switch c {
	case isa.EQ:
		return e.ar.Eq(a, b)
	case isa.NE:
		return e.ar.Not(e.ar.Eq(a, b))
	case isa.LT:
		return e.ar.Slt(a, b)
	case isa.GE:
		return e.ar.Not(e.ar.Slt(a, b))
	case isa.LTU:
		return e.ar.Ult(a, b)
	case isa.GEU:
		return e.ar.Not(e.ar.Ult(a, b))
	}
	panic("symexec: bad cond")
}

// readsR0 reports whether the instruction consumes r0 as a source.
func readsR0(in isa.Instr) bool {
	switch in.Op {
	case isa.MOV, isa.LD8, isa.LD16, isa.LD32, isa.IN8, isa.IN16, isa.IN32,
		isa.PUSH, isa.JR, isa.CALLR, isa.BRI:
		return in.Rs1 == isa.R0
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.MUL, isa.BR:
		return in.Rs1 == isa.R0 || (!in.HasImmOperand() && in.Rs2 == isa.R0)
	case isa.ST8, isa.ST16, isa.ST32, isa.OUT8, isa.OUT16, isa.OUT32:
		return in.Rs1 == isa.R0 || in.Rs2 == isa.R0
	}
	return false
}

// writesR0 reports whether the instruction defines r0.
func writesR0(in isa.Instr) bool {
	switch in.Op {
	case isa.MOVI, isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SAR, isa.MUL,
		isa.LD8, isa.LD16, isa.LD32, isa.IN8, isa.IN16, isa.IN32, isa.POP:
		return in.Rd == isa.R0
	}
	return false
}

// execInstrs runs the instructions of b on s. It returns follow-on
// states; a terminated state returns nil with s.Reason set.
func (e *Engine) execInstrs(s *State, b *ir.Block, bi *trace.BlockInfo) ([]*State, error) {
	for i, in := range b.Instrs {
		addr := b.InstrAddr(i)
		nextPC := addr + isa.InstrSize
		// Return-value liveness (§4.1): a read of r0 after a return,
		// before any redefinition, proves the callee has a return
		// value.
		if s.pendingRet != 0 {
			if readsR0(in) {
				e.col.Returns(s.pendingRet)
				s.pendingRet = 0
			} else if writesR0(in) {
				s.pendingRet = 0
			}
		}
		switch in.Op {
		case isa.NOP:
		case isa.MOVI:
			s.Regs[in.Rd] = e.ar.C(in.Imm, 32)
		case isa.MOV:
			s.Regs[in.Rd] = s.Regs[in.Rs1]
		case isa.ADD:
			s.Regs[in.Rd] = e.ar.Add(s.Regs[in.Rs1], e.src2(s, in))
		case isa.SUB:
			s.Regs[in.Rd] = e.ar.Sub(s.Regs[in.Rs1], e.src2(s, in))
		case isa.AND:
			s.Regs[in.Rd] = e.ar.And(s.Regs[in.Rs1], e.src2(s, in))
		case isa.OR:
			s.Regs[in.Rd] = e.ar.Or(s.Regs[in.Rs1], e.src2(s, in))
		case isa.XOR:
			s.Regs[in.Rd] = e.ar.Xor(s.Regs[in.Rs1], e.src2(s, in))
		case isa.SHL:
			s.Regs[in.Rd] = e.ar.Shl(s.Regs[in.Rs1], e.src2(s, in))
		case isa.SHR:
			s.Regs[in.Rd] = e.ar.Lshr(s.Regs[in.Rs1], e.src2(s, in))
		case isa.SAR:
			s.Regs[in.Rd] = e.ar.Ashr(s.Regs[in.Rs1], e.src2(s, in))
		case isa.MUL:
			s.Regs[in.Rd] = e.ar.Mul(s.Regs[in.Rs1], e.src2(s, in))

		case isa.LD8, isa.LD16, isa.LD32:
			v, err := e.load(s, bi, addr, e.ar.Add(s.Regs[in.Rs1], e.ar.C(in.Imm, 32)), in.Op.AccessSize())
			if err != nil {
				s.Reason = TermError
				return nil, nil
			}
			s.Regs[in.Rd] = v
		case isa.ST8, isa.ST16, isa.ST32:
			if err := e.store(s, bi, addr, e.ar.Add(s.Regs[in.Rs1], e.ar.C(in.Imm, 32)), in.Op.AccessSize(), s.Regs[in.Rs2]); err != nil {
				s.Reason = TermError
				return nil, nil
			}
		case isa.IN8, isa.IN16, isa.IN32:
			port, ok := e.concretizeU32(s, e.ar.Add(s.Regs[in.Rs1], e.ar.C(in.Imm, 32)))
			if !ok {
				s.Reason = TermError
				return nil, nil
			}
			s.Regs[in.Rd] = e.hwRead(s, bi, addr, port, in.Op.AccessSize(), trace.ClassPortIO)
		case isa.OUT8, isa.OUT16, isa.OUT32:
			port, ok := e.concretizeU32(s, e.ar.Add(s.Regs[in.Rs1], e.ar.C(in.Imm, 32)))
			if !ok {
				s.Reason = TermError
				return nil, nil
			}
			sz := in.Op.AccessSize()
			v := e.ar.Trunc(s.Regs[in.Rs2], uint8(sz*8))
			e.col.IO(bi, trace.Access{
				InstrAddr: addr, Addr: port, Size: sz, Write: true,
				Class: trace.ClassPortIO, Value: expr.Eval(v, nil),
				Symbolic: v.Kind != expr.KConst,
			})
		case isa.PUSH:
			sp := e.ar.Sub(s.Regs[isa.SP], e.ar.C(4, 32))
			s.Regs[isa.SP] = sp
			if err := e.store(s, bi, addr, sp, 4, s.Regs[in.Rs1]); err != nil {
				s.Reason = TermError
				return nil, nil
			}
		case isa.POP:
			v, err := e.load(s, bi, addr, s.Regs[isa.SP], 4)
			if err != nil {
				s.Reason = TermError
				return nil, nil
			}
			s.Regs[in.Rd] = v
			s.Regs[isa.SP] = e.ar.Add(s.Regs[isa.SP], e.ar.C(4, 32))

		case isa.JMP:
			e.col.Edge(addr, in.Imm, trace.EdgeBranch)
			s.PC = in.Imm
			return []*State{s}, nil
		case isa.JR:
			return e.indirectJump(s, bi, addr, s.Regs[in.Rs1], false)
		case isa.BR, isa.BRI:
			var rhs *expr.Expr
			if in.Op == isa.BRI {
				rhs = e.ar.C(uint32(uint8(in.Rs2)), 32)
			} else {
				rhs = s.Regs[in.Rs2]
			}
			return e.branch(s, bi, addr, e.condExpr(in.Cond(), s.Regs[in.Rs1], rhs), in.Imm, b.EndAddr())
		case isa.CALL, isa.CALLR:
			targetE := e.ar.C(in.Imm, 32)
			if in.Op == isa.CALLR {
				targetE = s.Regs[in.Rs1]
			}
			target, ok := e.concretizeU32(s, targetE)
			if !ok {
				s.Reason = TermError
				return nil, nil
			}
			if hw.IsAPIGate(target) {
				if err := e.apiModel(s, bi, addr, hw.APIIndex(target)); err != nil {
					s.Reason = TermError
					return nil, nil
				}
				s.PC = nextPC
				continue // API call does not end the path
			}
			sp := e.ar.Sub(s.Regs[isa.SP], e.ar.C(4, 32))
			s.Regs[isa.SP] = sp
			if err := e.store(s, bi, addr, sp, 4, e.ar.C(nextPC, 32)); err != nil {
				s.Reason = TermError
				return nil, nil
			}
			spV, _ := sp.IsConst()
			s.Frames = append(s.Frames, frame{callSite: addr, target: target, retAddr: nextPC, entrySP: spV})
			e.col.Call(addr, target)
			e.col.Edge(addr, target, trace.EdgeCall)
			s.PC = target
			return []*State{s}, nil
		case isa.RET:
			ra, err := e.load(s, bi, addr, s.Regs[isa.SP], 4)
			if err != nil {
				s.Reason = TermError
				return nil, nil
			}
			raV, ok := e.concretizeU32(s, ra)
			if !ok {
				s.Reason = TermError
				return nil, nil
			}
			s.Regs[isa.SP] = e.ar.Add(s.Regs[isa.SP], e.ar.C(4+in.Imm, 32))
			if len(s.Frames) > 0 {
				s.pendingRet = s.Frames[len(s.Frames)-1].target
				s.Frames = s.Frames[:len(s.Frames)-1]
			}
			if raV == vm.MagicReturn {
				s.Reason = TermCompleted
				s.Result = s.Regs[isa.R0]
				return nil, nil
			}
			e.col.Edge(addr, raV, trace.EdgeReturn)
			s.PC = raV
			return []*State{s}, nil
		case isa.IRET, isa.HLT:
			s.Reason = TermCompleted
			s.Result = s.Regs[isa.R0]
			return nil, nil
		default:
			return nil, fmt.Errorf("symexec: unimplemented op %v", in.Op)
		}
		s.PC = nextPC
	}
	// Block ended without terminator (MaxBlockInstrs hit): continue.
	return []*State{s}, nil
}

// load routes a memory read: device windows and DMA regions are
// symbolic hardware; everything else is symbolic RAM. Symbolic
// addresses are concretized (§3.4).
func (e *Engine) load(s *State, bi *trace.BlockInfo, instrAddr uint32, addrE *expr.Expr, size int) (*expr.Expr, error) {
	addr, ok := e.concretizeU32(s, addrE)
	if !ok {
		return nil, fmt.Errorf("unsat address")
	}
	if hw.IsMMIO(addr) {
		return e.hwRead(s, bi, instrAddr, addr, size, trace.ClassMMIO), nil
	}
	if e.dma.Contains(addr) {
		// DMA memory is written by the device, so its contents are
		// symbolic hardware input too (§3.4).
		e.col.IO(bi, trace.Access{InstrAddr: instrAddr, Addr: addr, Size: size, Class: trace.ClassDMA, Symbolic: true})
		return e.ar.Zext(e.freshSym("dma", uint8(size*8)), 32), nil
	}
	if int(addr)+size > len(e.baseRAM) {
		return nil, fmt.Errorf("read outside RAM")
	}
	// Parameter-recovery evidence (§4.1): a read above the current
	// frame's entry SP reaches into the parent's stack frame.
	if n := len(s.Frames); n > 0 {
		f := s.Frames[n-1]
		if f.entrySP != 0 && addr >= f.entrySP+4 && addr < f.entrySP+4+16*4 {
			e.col.Param(f.target, int(addr-f.entrySP-4)/4)
		}
	}
	return s.Mem.Read(addr, size), nil
}

func (e *Engine) store(s *State, bi *trace.BlockInfo, instrAddr uint32, addrE *expr.Expr, size int, v *expr.Expr) error {
	addr, ok := e.concretizeU32(s, addrE)
	if !ok {
		return fmt.Errorf("unsat address")
	}
	if hw.IsMMIO(addr) {
		e.hwWrite(s, bi, instrAddr, addr, size, v)
		return nil
	}
	if e.dma.Contains(addr) {
		e.col.IO(bi, trace.Access{
			InstrAddr: instrAddr, Addr: addr, Size: size, Write: true,
			Class: trace.ClassDMA, Value: expr.Eval(v, nil),
			Symbolic: v.Kind != expr.KConst,
		})
		// DMA writes also land in RAM so the driver can read back
		// its own descriptors.
	}
	if int(addr)+size > len(e.baseRAM) {
		return fmt.Errorf("write outside RAM")
	}
	s.Mem.Write(addr, size, e.ar.Trunc(v, uint8(size*8)))
	return nil
}

// branch resolves a conditional: concrete conditions follow directly;
// symbolic ones fork when both sides are feasible. The polling-loop
// killer prunes the side that stays in an already-hot block.
func (e *Engine) branch(s *State, bi *trace.BlockInfo, instrAddr uint32, cond *expr.Expr, taken, fallthrough_ uint32) ([]*State, error) {
	if cond.IsTrue() {
		e.col.Edge(instrAddr, taken, trace.EdgeBranch)
		s.PC = taken
		return []*State{s}, nil
	}
	if cond.IsFalse() {
		e.col.Edge(instrAddr, fallthrough_, trace.EdgeFallthrough)
		s.PC = fallthrough_
		return []*State{s}, nil
	}
	mayTake := e.sol.MayBeTrue(s.Constraints, cond)
	mayFall := e.sol.MayBeTrue(s.Constraints, e.ar.Not(cond))
	switch {
	case mayTake && !mayFall:
		s.Constrain(cond)
		e.col.Edge(instrAddr, taken, trace.EdgeBranch)
		s.PC = taken
		return []*State{s}, nil
	case !mayTake && mayFall:
		s.Constrain(e.ar.Not(cond))
		e.col.Edge(instrAddr, fallthrough_, trace.EdgeFallthrough)
		s.PC = fallthrough_
		return []*State{s}, nil
	case !mayTake && !mayFall:
		s.Reason = TermError
		return nil, nil
	}
	// Both feasible: fork. Polling-loop heuristic: if one target has
	// re-executed beyond the threshold in this state, keep only the
	// path that steps out of the loop (§3.2).
	if !e.cfg.DisableLoopKill {
		if s.localCount[taken] >= e.cfg.PollThreshold && s.localCount[fallthrough_] < e.cfg.PollThreshold {
			e.killed++
			s.Constrain(e.ar.Not(cond))
			e.col.Edge(instrAddr, fallthrough_, trace.EdgeFallthrough)
			s.PC = fallthrough_
			return []*State{s}, nil
		}
		if s.localCount[fallthrough_] >= e.cfg.PollThreshold && s.localCount[taken] < e.cfg.PollThreshold {
			e.killed++
			s.Constrain(cond)
			e.col.Edge(instrAddr, taken, trace.EdgeBranch)
			s.PC = taken
			return []*State{s}, nil
		}
	}
	c := e.fork(s)
	s.Constrain(cond)
	s.PC = taken
	e.col.Edge(instrAddr, taken, trace.EdgeBranch)
	c.Constrain(e.ar.Not(cond))
	c.PC = fallthrough_
	e.col.Edge(instrAddr, fallthrough_, trace.EdgeFallthrough)
	return []*State{s, c}, nil
}

// indirectJump enumerates the feasible targets of a symbolic jump
// (jump tables from switch statements, §3.4) and forks one state per
// concrete target.
func (e *Engine) indirectJump(s *State, bi *trace.BlockInfo, instrAddr uint32, target *expr.Expr, isCall bool) ([]*State, error) {
	if v, ok := target.IsConst(); ok {
		e.col.Edge(instrAddr, v, trace.EdgeBranch)
		s.PC = v
		return []*State{s}, nil
	}
	values := e.sol.Values(s.Constraints, target, 16)
	var out []*State
	for i, v := range values {
		if !e.inDriver(v) {
			continue // wild target: error path, drop
		}
		var st *State
		if i == len(values)-1 {
			st = s
		} else {
			st = e.fork(s)
		}
		st.Constrain(e.ar.Eq(target, e.ar.C(v, target.Width)))
		st.PC = v
		e.col.Edge(instrAddr, v, trace.EdgeBranch)
		out = append(out, st)
	}
	if len(out) == 0 {
		s.Reason = TermError
		return nil, nil
	}
	return out, nil
}
