package difffuzz

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"revnic/internal/cfg"
	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/ir"
	"revnic/internal/isa"
	"revnic/internal/synthdrv"
	"revnic/internal/template"
)

// PlantKinds lists the supported synthetic-bug kinds for -plant /
// FuzzSpec.Plant. An empty kind means "no bug".
var PlantKinds = []string{"send-port"}

// ValidPlant reports whether kind is a known planted-bug kind.
func ValidPlant(kind string) bool {
	if kind == "" {
		return true
	}
	for _, k := range PlantKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Harness holds one reverse-engineered driver ready for differential
// execution: the original binary image and the recovered graph the
// synthesized driver runs. Exploration runs once per harness
// (with a fixed engine seed, so the recovered graph is canonical), and
// so does translation of the original binary and indexing of the
// graph: every original rig shares the harness's ir.Image, every
// synthesized rig its synthdrv.Code. Every schedule then executes on
// fresh rigs whose guest memory is recycled from the process-wide
// pool, zeroed, and whose device models are recycled from the
// harness's pool, reset to power-on state, so schedules are fully
// independent and order does not matter.
type Harness struct {
	Info   *drivers.Info
	Rev    *core.Reversed
	OS     template.OS
	mac    [6]byte
	img    *ir.Image
	code   *synthdrv.Code
	models core.ModelPool
}

// NewHarness reverse engineers the named corpus driver and, if plant
// is non-empty, injects a synthetic synthesis bug of that kind into
// the recovered graph (the original binary is untouched — the fuzzer
// must find the discrepancy).
func NewHarness(device string, osKind template.OS, plant string) (*Harness, error) {
	info, err := drivers.ByName(device)
	if err != nil {
		return nil, err
	}
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell:      core.ShellConfig(info),
		DriverName: info.Name,
	})
	if err != nil {
		return nil, fmt.Errorf("difffuzz: reverse %s: %w", device, err)
	}
	if plant != "" {
		if err := PlantBug(rev.Graph, plant); err != nil {
			return nil, err
		}
	}
	return &Harness{
		Info: info,
		Rev:  rev,
		OS:   osKind,
		mac:  [6]byte{0x02, 0x5E, 0x44, 0x33, 0x22, 0x11},
		img:  ir.NewImage(info.Program),
		code: synthdrv.NewCode(rev.Graph),
	}, nil
}

// PlantBug injects a known synthesis defect into a recovered graph,
// used to validate that the fuzzer actually catches divergences.
//
//	send-port: the first port write in the send-role function is
//	shifted to an adjacent register — the classic off-by-one a buggy
//	lifter produces, invisible to any check that does not execute
//	the code.
func PlantBug(g *cfg.Graph, kind string) error {
	switch kind {
	case "send-port":
		var send *cfg.Function
		for _, f := range g.SortedFuncs() {
			if f.Role == "send" {
				send = f
				break
			}
		}
		if send == nil {
			return errors.New("difffuzz: plant send-port: no send-role function recovered")
		}
		for _, b := range send.SortedBlocks() {
			for i, ins := range b.Instrs {
				switch ins.Op {
				case isa.OUT8, isa.OUT16, isa.OUT32:
					// Blocks are shared with g.Blocks, so the
					// synthesized driver's machine runs the
					// mutation; the original binary does not.
					b.Instrs[i].Imm ^= 1
					return nil
				}
			}
		}
		return errors.New("difffuzz: plant send-port: send function performs no port writes")
	}
	return fmt.Errorf("difffuzz: unknown plant kind %q", kind)
}

// Outcome is the result of running one schedule differentially. It is
// JSON-serializable so cluster shards can return batches of outcomes
// to the coordinator.
type Outcome struct {
	ScheduleID uint64 `json:"schedule_id"`
	Steps      int    `json:"steps"`
	// CovKeys are the schedule's coverage keys in ascending order:
	// the recovered-block edges the synthesized side took and the
	// access pairs of the original side (see coverageKeys). The
	// coordinator merges them into the global map.
	CovKeys CovKeys `json:"cov_keys,omitempty"`
	// Unexplored means the synthesized driver hit a branch the
	// exploration never reached. That is an incompleteness warning
	// (§4.1), not a divergence: the synthesized code matched the
	// original on everything it executed.
	Unexplored bool `json:"unexplored,omitempty"`
	// Err records a harness-level failure (including a recovered
	// panic in either driver) — reported, never fatal to the run.
	Err string `json:"err,omitempty"`
	// Divergence is non-nil when observable behavior differed.
	Divergence *Divergence `json:"divergence,omitempty"`
}

// Divergence describes one observable behavioral difference between
// the original and the synthesized driver: the oracle's Mismatch, on
// one device, with the schedule that reproduces it.
type Divergence struct {
	Device string `json:"device"`
	core.Mismatch
	// Schedule reproduces the divergence from a fresh harness.
	Schedule Schedule `json:"schedule"`
	// Minimized is the shortest reproducer found by ddmin, when
	// minimization ran.
	Minimized *Schedule `json:"minimized,omitempty"`
	// MinimizeTrials counts schedule executions minimization spent.
	MinimizeTrials int `json:"minimize_trials,omitempty"`
}

func (d *Divergence) String() string {
	s := d.Device + ": " + d.Mismatch.String()
	if d.Minimized != nil {
		s += fmt.Sprintf(" [minimized to %d steps in %d trials]", len(d.Minimized.Steps), d.MinimizeTrials)
	}
	return s
}

// RunSchedule executes one schedule through the core.Oracle on a
// fresh original rig and a fresh synthesized rig, and closes both rigs
// once their traces and edges are read. A panic in either driver is
// recovered into Outcome.Err — one bad schedule must never take down a
// fuzzing run or a job runner — and its rigs are left to the garbage
// collector rather than recycled.
func (h *Harness) RunSchedule(s Schedule) (out Outcome) {
	out = Outcome{ScheduleID: s.ID, Steps: len(s.Steps)}
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			out.Err = fmt.Sprintf("panic executing %s: %v\n%s", s, r, buf)
		}
	}()

	o, err := core.NewOracle(h.Info, h.img, h.code, h.OS, h.mac, &h.models)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	ok := o.Init()
	for i := 0; ok && i < len(s.Steps); i++ {
		ok = o.Step(i, s.Steps[i])
	}
	o.Halt(len(s.Steps))
	out.Unexplored, out.Err = o.Unexplored, o.Err
	if o.Mismatch != nil {
		out.Divergence = &Divergence{Device: h.Info.Name, Mismatch: *o.Mismatch, Schedule: s}
	}
	out.CovKeys = coverageKeys(o.Orig.Trace(), o.Synth.Drv)
	o.Close()
	return out
}

// accessPairBit marks a coverage key as a pair of consecutive
// hardware accesses; block-edge keys never set it (see
// synthdrv.Driver.Edges).
const accessPairBit = 1 << 63

// coverageKeys returns a schedule's coverage keys in ascending order:
// first the recovered-block edges the synthesized driver took, then
// the distinct pairs of consecutive hardware accesses in the original
// side's trace. An access is its (port-space, direction, address,
// width); values are left out so payload bytes do not explode the key
// space, and a pair key hashes its two accesses and nothing earlier.
// So a run's keys are bounded by the graph's edges and the distinct
// access pairs the driver can make, not by trace length.
func coverageKeys(tr []core.IOEvent, d *synthdrv.Driver) []uint64 {
	edges := d.Edges()
	keys := append(make([]uint64, 0, len(edges)+128), edges...)
	// recent is a direct-mapped filter of the pair keys already
	// appended, so a register polled a thousand times adds one key,
	// not a thousand, before the sort below dedups exactly.
	var recent [256]uint64
	prev := uint64(0) // the trace start; no access encodes to 0
	for _, ev := range tr {
		a := uint64(ev.Addr)<<8 | uint64(ev.Size)<<2
		if ev.Port {
			a |= 1
		}
		if ev.Write {
			a |= 2
		}
		k := accessPairBit | newPRNG(prev*0x9E3779B97F4A7C15^a).next()>>1
		prev = a
		if slot := &recent[k&255]; *slot != k {
			*slot = k
			keys = append(keys, k)
		}
	}
	slices.Sort(keys[len(edges):])
	return slices.Compact(keys)
}

// maxCovKeys caps the coverage keys of one decoded outcome, in the
// style of the exploration wire caps: an outcome's keys are its
// distinct block edges and access pairs, which the corpus keeps
// under 200, so a peer's or a journal's outcome past the cap is
// hostile or corrupt.
const maxCovKeys = 4096

// CovKeys is an outcome's coverage keys. Decoding rejects more than
// maxCovKeys keys, before allocating any, and keys that are not
// strictly increasing, so an outcome from outside the process cannot
// blow up the coordinator's merge.
type CovKeys []uint64

// UnmarshalJSON implements json.Unmarshaler.
func (k *CovKeys) UnmarshalJSON(b []byte) error {
	// json.Unmarshal has validated b, so in a list of numbers every
	// comma separates two keys.
	if n := bytes.Count(b, []byte{','}) + 1; n > maxCovKeys {
		return fmt.Errorf("difffuzz: outcome with %d coverage keys exceeds the cap of %d", n, maxCovKeys)
	}
	var keys []uint64
	if err := json.Unmarshal(b, &keys); err != nil {
		return err
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("difffuzz: coverage keys not strictly increasing at %d", i)
		}
	}
	*k = keys
	return nil
}
