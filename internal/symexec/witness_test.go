package symexec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/vm"
)

// stateLog records every state the searchers built through its
// factory were handed, across worker goroutines.
type stateLog struct {
	mu     sync.Mutex
	states map[*State]bool
}

// loggingSearcher forwards to a real searcher and logs the states it
// is told about. Every state an exploration creates is added to some
// searcher, so the log ends up holding all of them, whatever ended
// them.
type loggingSearcher struct {
	Searcher
	log *stateLog
}

func (l *stateLog) factory(inner SearcherFactory) SearcherFactory {
	return func(c BlockCounts) Searcher { return &loggingSearcher{Searcher: inner(c), log: l} }
}

func (s *loggingSearcher) Update(added, removed []*State) {
	s.log.mu.Lock()
	for _, st := range added {
		s.log.states[st] = true
	}
	s.log.mu.Unlock()
	s.Searcher.Update(added, removed)
}

// checkWitnesses fails on any logged state whose witness falsifies a
// constraint of its path condition, and returns the states per
// termination reason.
func (l *stateLog) checkWitnesses(t *testing.T, label string) map[TermReason]int {
	t.Helper()
	reasons := map[TermReason]int{}
	for s := range l.states {
		reasons[s.Reason]++
		ev := expr.NewEvaluator(s.witness)
		for i, c := range s.Constraints {
			if ev.Eval(c) == 0 {
				t.Fatalf("%s: state %d (%v): witness %v violates constraint %d: %s",
					label, s.ID, s.Reason, s.witness, i, c)
			}
		}
	}
	return reasons
}

// TestWitnessSatisfiesPathCondition explores every corpus driver, in
// process and with every shard group shipped through the wire codec,
// and checks that each state the exploration created — completed,
// error, discarded, loop-killed or cut off by the budget — ends with a
// witness satisfying its whole path condition. Model hits must be
// counted: they are the witness's answers.
func TestWitnessSatisfiesPathCondition(t *testing.T) {
	total := map[TermReason]int{}
	for _, info := range drivers.Corpus() {
		shell := hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
			IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
		for _, wire := range []bool{false, true} {
			log := &stateLog{states: map[*State]bool{}}
			cfg := Config{Shell: shell, Searcher: log.factory(NewCoverageGuided)}
			label := info.Name
			if wire {
				label += "/wire"
				cfg.ShardRunner = &wireRunner{prog: info.Program, cfg: cfg}
			}
			res, err := New(info.Program, cfg).Explore()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.SolverModelHits == 0 {
				t.Errorf("%s: no model hits counted", label)
			}
			for r, n := range log.checkWitnesses(t, label) {
				total[r] += n
			}
		}
	}
	for r, n := range exploreWitnessProbe(t) {
		total[r] += n
	}
	t.Logf("states checked by end reason: %v", total)
	for _, r := range []TermReason{TermCompleted, TermError, TermKilledDiscard, TermKilledLoop} {
		if total[r] == 0 {
			t.Errorf("no %v state was checked", r)
		}
	}
}

// witnessProbe polls a device status byte, jumps out of RAM when it
// reads 1 and through an eight-entry jump table when it reads below 8:
// a program whose exploration ends states with errors, loop kills and
// state-cap sheds, which the corpus drivers never produce.
const witnessProbe = `
.org 0x10000
.func main
	movi r1, #0xC000
poll:
	in8  r2, (r1+0)
	beq  r2, #0, poll
	beq  r2, #1, wild
	bltu r2, #8, dispatch
	ret
wild:
	movi r3, #0x900000
	jr   r3
dispatch:
	shl  r4, r2, #3
	movi r5, table
	add  r4, r4, r5
	jr   r4
table:
	jmp  done
	jmp  done
	jmp  done
	jmp  done
	jmp  done
	jmp  done
	jmp  done
	jmp  done
done:
	ret
`

// exploreWitnessProbe explores witnessProbe under a small state cap and
// checks the witnesses of every state it created.
func exploreWitnessProbe(t *testing.T) map[TermReason]int {
	t.Helper()
	prog, err := isa.Assemble(witnessProbe)
	if err != nil {
		t.Fatal(err)
	}
	log := &stateLog{states: map[*State]bool{}}
	e := New(prog, Config{Searcher: log.factory(NewCoverageGuided), PollThreshold: 8})
	st := e.newState()
	sp := uint32(hw.StackTop) - 4
	st.Mem.write(sp, 4, word{v: vm.MagicReturn})
	st.regs[isa.SP] = word{v: sp}
	st.PC = prog.Base
	bdg := ShardBudget{Blocks: 2000, Stagnation: 2000, Successes: 1000, MaxStates: 4}
	if _, _, _, err := e.exploreSet([]*State{st}, "probe", bdg, anyResult, 0); err != nil {
		t.Fatal(err)
	}
	if e.modelHits == 0 {
		t.Error("probe: no model hits counted")
	}
	return log.checkWitnesses(t, "probe")
}

// TestDecodeStateGroupRejectsBadWitness pins the decoder's witness
// rules: bindings must be sorted without duplicates, bind only
// symbols the state's constraints mention, and satisfy every
// constraint.
func TestDecodeStateGroupRejectsBadWitness(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	e := New(info.Program, Config{})
	s := e.newState()
	x, y := e.ar.S("x", 32), e.ar.S("y", 32)
	s.Constrain(e.ar.Eq(x, e.ar.C(5, 32)), map[string]uint32{"x": 5})
	s.Constrain(e.ar.Ult(y, e.ar.C(9, 32)), map[string]uint32{"y": 2})
	good := encodeStateGroup([]*State{s})
	if got := good.States[0].Witness; len(got) != 2 || got[0] != (WireBinding{"x", 5}) || got[1] != (WireBinding{"y", 2}) {
		t.Fatalf("encoded witness %v, want x=5, y=2", got)
	}
	if _, err := decodeStateGroup(good, e.baseRAM, expr.NewArena()); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	for name, w := range map[string][]WireBinding{
		"unmentioned symbol": {{"x", 5}, {"y", 2}, {"z", 1}},
		"duplicate name":     {{"x", 5}, {"x", 5}, {"y", 2}},
		"out of order":       {{"y", 2}, {"x", 5}},
		"violated":           {{"x", 5}, {"y", 9}},
		"missing binding":    {{"y", 2}},
	} {
		g := *good
		g.States = []WireState{good.States[0]}
		g.States[0].Witness = w
		if _, err := decodeStateGroup(&g, e.baseRAM, expr.NewArena()); err == nil {
			t.Errorf("%s: decode accepted witness %v", name, w)
		}
	}
}

// TestFuzzCorpusCarriesWitnesses decodes the committed state-group
// seeds: each is a real fan-out group whose witnesses must pass the
// decoder's checks.
func TestFuzzCorpusCarriesWitnesses(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	base := New(info.Program, Config{}).baseRAM
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeStateGroup/rtl8029-*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus seeds: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(b), "\n", 2)[1], "[]byte("), ")\n")
		body, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var g WireStateGroup
		if err := json.Unmarshal([]byte(body), &g); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		bound := 0
		for _, ws := range g.States {
			bound += len(ws.Witness)
		}
		if bound == 0 {
			t.Errorf("%s: no state carries a witness binding", f)
		}
		if _, err := decodeStateGroup(&g, base, expr.NewArena()); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
