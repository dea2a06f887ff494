// Package difffuzz is the differential fuzzing subsystem: it drives
// the synthesized driver and the original binary side by side on
// randomized — but fully reproducible — schedules of register, DMA
// and interrupt activity, through the step oracle (core.Oracle) that
// also runs the §5.2 equivalence check. Where that check runs one
// committed schedule (core.EquivalenceWorkload), the fuzzer explores
// the workload space: schedules that reach new hardware-access
// patterns seed further mutation, and any divergence is minimized to
// a shortest reproducer.
//
// Determinism is load-bearing, as everywhere in this repo: the same
// seed produces the same schedules, the same coverage, and the same
// divergence report for any worker count, so a CI failure replays
// exactly on a laptop.
package difffuzz

import (
	"fmt"
	"slices"

	"revnic/internal/core"
	"revnic/internal/guestos"
)

// Step is one operation in a fuzz schedule (see core.Step).
type Step = core.Step

// Schedule is one reproducible workload: a sequence of steps applied
// identically to the original and the synthesized driver.
type Schedule struct {
	ID    uint64 `json:"id"`
	Steps []Step `json:"steps"`
}

func (s Schedule) String() string {
	return fmt.Sprintf("schedule %#x (%d steps)", s.ID, len(s.Steps))
}

// MaxScheduleSteps bounds schedule length. Schedules from outside
// the process (seed files, peer shard payloads) are checked against it
// and the step caps (core.MaxFrameSize, core.MaxQueryLen,
// core.MaxSetData) by Validate before anything runs; every generated
// schedule is within them.
const MaxScheduleSteps = 64

// Validate checks a schedule against the caps: a known op in every
// step, 0 <= Size <= MaxFrameSize, a query Val of at most MaxQueryLen,
// at most MaxSetData bytes of Data and at most MaxScheduleSteps steps.
// Both drivers allocate what a step asks for, so an unchecked step
// could demand gigabytes.
func (s Schedule) Validate() error {
	if len(s.Steps) > MaxScheduleSteps {
		return fmt.Errorf("difffuzz: schedule %#x: %d steps, max %d", s.ID, len(s.Steps), MaxScheduleSteps)
	}
	for i, st := range s.Steps {
		switch {
		case !slices.Contains(stepOps, st.Op):
			return fmt.Errorf("difffuzz: schedule %#x step %d: unknown op %q", s.ID, i, st.Op)
		case st.Size < 0 || st.Size > core.MaxFrameSize:
			return fmt.Errorf("difffuzz: schedule %#x step %d: size %d out of range [0, %d]", s.ID, i, st.Size, core.MaxFrameSize)
		case st.Op == "query" && st.Val > core.MaxQueryLen:
			return fmt.Errorf("difffuzz: schedule %#x step %d: query length %d exceeds %d", s.ID, i, st.Val, core.MaxQueryLen)
		case len(st.Data) > core.MaxSetData:
			return fmt.Errorf("difffuzz: schedule %#x step %d: %d data bytes exceed %d", s.ID, i, len(st.Data), core.MaxSetData)
		}
	}
	return nil
}

// prng is splitmix64: tiny, fast, and — unlike math/rand — guaranteed
// stable across Go releases. Every consumer receives its own
// explicitly-seeded instance; there is no global randomness anywhere
// in the fuzzer.
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng { return &prng{state: seed} }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(p.next() % uint64(n))
}

// oidPool is the OID vocabulary for query/set steps: every OID the
// guest kernel shim knows, plus one the drivers have never seen — the
// failure path must also match across sides.
var oidPool = []uint32{
	guestos.OIDMACAddress,
	guestos.OIDLinkSpeed,
	guestos.OIDMediaStatus,
	guestos.OIDPacketFilter,
	guestos.OIDMulticastList,
	guestos.OIDEnableWOL,
	guestos.OIDFullDuplex,
	guestos.OIDLEDControl,
	0x0000DEAD,
}

// frameSizes biases send/recv lengths toward the interesting
// boundaries: minimum, maximum, off-by-one on either side, and a few
// mid-range values. Invalid lengths are deliberately included — both
// drivers must reject them identically.
var frameSizes = []int{0, 13, 14, 15, 60, 64, 96, 256, 512, 1024, 1500, 1514, 1515, core.MaxFrameSize}

var stepOps = []string{"send", "recv", "query", "set", "timer", "pump"}

// opWeights biases generation toward the data path (send/recv carry
// most of the protocol) while keeping control-plane ops in the mix.
var opWeights = map[string]int{
	"send": 4, "recv": 4, "query": 2, "set": 2, "timer": 1, "pump": 2,
}

func randomStep(rng *prng) Step {
	total := 0
	for _, op := range stepOps {
		total += opWeights[op]
	}
	pick := rng.intn(total)
	var op string
	for _, o := range stepOps {
		if pick < opWeights[o] {
			op = o
			break
		}
		pick -= opWeights[o]
	}
	st := Step{Op: op}
	switch op {
	case "send", "recv":
		st.Size = frameSizes[rng.intn(len(frameSizes))]
		st.Fill = byte(rng.next())
		st.Bcast = rng.intn(2) == 0
	case "query":
		st.OID = oidPool[rng.intn(len(oidPool))]
		st.Val = uint32(2 + rng.intn(14)) // requested buffer size
	case "set":
		st.OID = oidPool[rng.intn(len(oidPool))]
		st.Val = uint32(rng.next())
	}
	return st
}

// generate builds the n-th schedule of a round, either fresh or by
// mutating a corpus entry. The result depends only on (seed, round,
// index) and the corpus content at the start of the round — never on
// execution order — which is what makes the fuzzer worker-count
// independent.
func generate(seed uint64, round, index int, maxSteps int, corpus []Schedule) Schedule {
	id := scheduleID(seed, round, index)
	rng := newPRNG(id)
	var steps []Step
	if len(corpus) > 0 && rng.intn(3) > 0 { // 2/3 mutate, 1/3 fresh
		parent := corpus[rng.intn(len(corpus))]
		steps = mutate(rng, parent.Steps, maxSteps)
	} else {
		n := 1 + rng.intn(maxSteps)
		steps = make([]Step, 0, n)
		for i := 0; i < n; i++ {
			steps = append(steps, randomStep(rng))
		}
	}
	return Schedule{ID: id, Steps: steps}
}

// scheduleID derives a stable 64-bit identity for the (seed, round,
// index) cell; it doubles as the PRNG seed for the schedule's content.
func scheduleID(seed uint64, round, index int) uint64 {
	h := newPRNG(seed)
	h.state ^= uint64(round)*0x100000001B3 + uint64(index)
	return h.next()
}

// mutate derives a child schedule from parent steps: a small number
// of point edits — replace, insert, delete, duplicate-tail.
func mutate(rng *prng, parent []Step, maxSteps int) []Step {
	steps := append([]Step(nil), parent...)
	edits := 1 + rng.intn(3)
	for e := 0; e < edits; e++ {
		switch rng.intn(4) {
		case 0: // replace one step
			if len(steps) > 0 {
				steps[rng.intn(len(steps))] = randomStep(rng)
			}
		case 1: // insert a step
			if len(steps) < maxSteps {
				at := rng.intn(len(steps) + 1)
				steps = append(steps[:at], append([]Step{randomStep(rng)}, steps[at:]...)...)
			}
		case 2: // delete a step
			if len(steps) > 1 {
				at := rng.intn(len(steps))
				steps = append(steps[:at], steps[at+1:]...)
			}
		case 3: // duplicate a step in place (retry loops, double-pumps)
			if len(steps) > 0 && len(steps) < maxSteps {
				at := rng.intn(len(steps))
				steps = append(steps[:at], append([]Step{steps[at]}, steps[at:]...)...)
			}
		}
	}
	if len(steps) > maxSteps {
		steps = steps[:maxSteps]
	}
	return steps
}
