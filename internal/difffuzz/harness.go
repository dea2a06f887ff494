package difffuzz

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

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
// the original and the synthesized driver.
type Divergence struct {
	Device string `json:"device"`
	// Kind classifies the difference:
	//
	//	trace     — hardware I/O traces differ op-for-op
	//	length    — one side performed extra hardware ops
	//	status    — an operation returned different NDIS status
	//	query-out — a query returned different bytes
	//	op-error  — one side failed an operation the other completed
	//	rx-accept — the device accepted a frame for one side only
	//	rx-data   — frames indicated up the stack differ
	//	tx-data   — transmitted frames differ
	Kind string `json:"kind"`
	// Step is the index of the schedule step that exposed the
	// difference; -1 means initialization, len(Steps) means halt.
	Step   int    `json:"step"`
	StepOp string `json:"step_op,omitempty"`
	Detail string `json:"detail"`
	// Schedule reproduces the divergence from a fresh harness.
	Schedule Schedule `json:"schedule"`
	// Minimized is the shortest reproducer found by ddmin, when
	// minimization ran.
	Minimized *Schedule `json:"minimized,omitempty"`
	// MinimizeTrials counts schedule executions minimization spent.
	MinimizeTrials int `json:"minimize_trials,omitempty"`
}

func (d *Divergence) String() string {
	s := fmt.Sprintf("%s: %s at step %d (%s): %s", d.Device, d.Kind, d.Step, d.StepOp, d.Detail)
	if d.Minimized != nil {
		s += fmt.Sprintf(" [minimized to %d steps in %d trials]", len(d.Minimized.Steps), d.MinimizeTrials)
	}
	return s
}

// RunSchedule executes one schedule on a fresh original rig and a
// fresh synthesized rig, comparing observable behavior step by step,
// and closes both rigs once their traces and edges are read. A panic
// in either driver is recovered into Outcome.Err — one bad schedule
// must never take down a fuzzing run or a job runner — and its rigs
// are left to the garbage collector rather than recycled.
func (h *Harness) RunSchedule(s Schedule) (out Outcome) {
	out = Outcome{ScheduleID: s.ID, Steps: len(s.Steps)}
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			out.Err = fmt.Sprintf("panic executing %s: %v\n%s", s, r, buf)
		}
	}()

	orig, err := core.NewOriginalRig(h.Info, h.img, h.mac, &h.models)
	if err != nil {
		out.Err = fmt.Sprintf("original rig: %v", err)
		return out
	}
	synth, err := core.NewSynthRig(h.code, h.Info, h.OS, h.mac, &h.models)
	if err != nil {
		orig.Close()
		out.Err = fmt.Sprintf("synth rig: %v", err)
		return out
	}

	frame := frames.Get().(*[]byte)
	ex := &execution{h: h, orig: orig, synth: synth, out: &out, frame: *frame}

	if ex.both(-1, "init", func(s core.Side) (uint32, []byte, error) {
		return 0, nil, s.Initialize()
	}) {
		for i, st := range s.Steps {
			if !ex.step(i, st) {
				break
			}
		}
		if ex.out.Divergence == nil && !ex.out.Unexplored && ex.out.Err == "" {
			ex.both(len(s.Steps), "halt", func(s core.Side) (uint32, []byte, error) {
				return 0, nil, s.Halt()
			})
			ex.compareStatus(len(s.Steps))
		}
	}
	// Final full-trace comparison catches trailing extra ops.
	if ex.out.Divergence == nil && ex.out.Err == "" && !ex.out.Unexplored {
		if detail, ok := core.CompareTraces(orig.Trace(), synth.Trace()); !ok {
			ex.diverge(len(s.Steps), "halt", "length", detail)
		}
	}
	out.CovKeys = coverageKeys(orig.Trace(), synth.Drv)
	orig.Close()
	synth.Close()
	*frame = ex.frame
	frames.Put(frame)
	if out.Divergence != nil {
		out.Divergence.Schedule = s
	}
	return out
}

// execution carries the per-schedule comparison state.
type execution struct {
	h      *Harness
	orig   *core.Rig
	synth  *core.Rig
	out    *Outcome
	cursor int // ops of the traces already compared
	// frame is the scratch buffer send and recv steps build their
	// frames in. Every consumer copies a frame before the step ends
	// (guest memory through WriteMem, the device's receive memory or
	// queue), so the next step may overwrite it.
	frame []byte
}

// frames recycles the frame buffers of finished executions.
var frames = sync.Pool{New: func() any { return new([]byte) }}

func (ex *execution) diverge(step int, op, kind, detail string) {
	if ex.out.Divergence == nil {
		ex.out.Divergence = &Divergence{
			Device: ex.h.Info.Name, Kind: kind, Step: step, StepOp: op, Detail: detail,
		}
	}
}

// both applies one operation to the two sides and compares status,
// output bytes, errors, and the hardware traces the op produced.
// It returns false when the schedule should stop (divergence found,
// unexplored code hit, or matching failures on both sides).
func (ex *execution) both(step int, op string, f func(core.Side) (uint32, []byte, error)) bool {
	oSt, oOut, oErr := f(ex.orig.Side)
	sSt, sOut, sErr := f(ex.synth.Side)

	var unexp *synthdrv.ErrUnexplored
	if errors.As(sErr, &unexp) {
		// Prefix check first: an unexplored hit after the traces
		// already diverged is still a divergence.
		if !ex.comparePrefix(step, op) {
			return false
		}
		ex.out.Unexplored = true
		return false
	}
	if (oErr == nil) != (sErr == nil) {
		ex.diverge(step, op, "op-error",
			fmt.Sprintf("orig err=%v, synth err=%v", oErr, sErr))
		return false
	}
	if oErr != nil {
		// Both sides failed identically (e.g. a stuck interrupt
		// line): stop the schedule, no divergence.
		return false
	}
	if oSt != sSt {
		ex.diverge(step, op, "status",
			fmt.Sprintf("orig status %#x, synth status %#x", oSt, sSt))
		return false
	}
	if !bytes.Equal(oOut, sOut) {
		ex.diverge(step, op, "query-out",
			fmt.Sprintf("orig % x, synth % x", oOut, sOut))
		return false
	}
	return ex.comparePrefix(step, op)
}

// comparePrefix diffs the not-yet-compared region of the two traces.
// The synthesized trace may legitimately be shorter mid-schedule only
// when the driver stopped at unexplored code, which both() handles
// before calling here; a value mismatch in the common prefix is
// always a real divergence.
func (ex *execution) comparePrefix(step int, op string) bool {
	ot, st := ex.orig.Trace(), ex.synth.Trace()
	n := len(ot)
	if len(st) < n {
		n = len(st)
	}
	for i := ex.cursor; i < n; i++ {
		if ot[i] != st[i] {
			ex.diverge(step, op, "trace",
				fmt.Sprintf("op %d: orig %+v vs synth %+v", i, ot[i], st[i]))
			return false
		}
	}
	ex.cursor = n
	return true
}

func (ex *execution) compareStatus(step int) {
	if ex.out.Divergence != nil {
		return
	}
	o, s := ex.orig.Dev.StatusReport(), ex.synth.Dev.StatusReport()
	if o != s {
		ex.diverge(step, "halt", "status",
			fmt.Sprintf("device status orig %+v, synth %+v", o, s))
	}
}

// step applies one schedule step to both sides.
func (ex *execution) step(i int, st Step) bool {
	switch st.Op {
	case "send":
		ex.frame = ex.h.buildFrame(ex.frame, st)
		if !ex.both(i, "send", func(s core.Side) (uint32, []byte, error) {
			stat, err := s.Send(ex.frame)
			return stat, nil, err
		}) {
			return false
		}
		return ex.pump(i, "send") &&
			ex.compareFrames(i, "send", "tx-data", "transmitted", ex.orig.Dev.TxFrames(), ex.synth.Dev.TxFrames())
	case "recv":
		ex.frame = ex.h.buildFrame(ex.frame, st)
		oAcc := ex.orig.Dev.InjectRX(ex.frame)
		sAcc := ex.synth.Dev.InjectRX(ex.frame)
		if oAcc != sAcc {
			ex.diverge(i, "recv", "rx-accept",
				fmt.Sprintf("orig accepted=%v, synth accepted=%v (len %d)", oAcc, sAcc, len(ex.frame)))
			return false
		}
		if !oAcc {
			return true // both dropped; nothing to pump
		}
		return ex.pump(i, "recv") && ex.compareReceived(i, "recv")
	case "query":
		return ex.both(i, "query", func(s core.Side) (uint32, []byte, error) {
			return s.Query(st.OID, st.Val)
		})
	case "set":
		var in [4]byte
		binary.LittleEndian.PutUint32(in[:], st.Val)
		return ex.both(i, "set", func(s core.Side) (uint32, []byte, error) {
			stat, err := s.Set(st.OID, in[:])
			return stat, nil, err
		})
	case "timer":
		return ex.both(i, "timer", func(s core.Side) (uint32, []byte, error) {
			return 0, nil, s.FireTimer()
		})
	case "pump":
		return ex.pump(i, "pump") && ex.compareReceived(i, "pump")
	default:
		ex.out.Err = fmt.Sprintf("unknown step op %q", st.Op)
		return false
	}
}

func (ex *execution) pump(i int, op string) bool {
	return ex.both(i, op, func(s core.Side) (uint32, []byte, error) {
		n, err := s.PumpInterrupts(16)
		return uint32(n), nil, err
	})
}

// compareReceived diffs the frames each side has indicated up the
// stack so far.
func (ex *execution) compareReceived(i int, op string) bool {
	return ex.compareFrames(i, op, "rx-data", "indicated", ex.orig.OS.Received, ex.synth.RT.Received)
}

// compareFrames diffs two frame lists, byte for byte, as a divergence
// of the given kind ("tx-data" or "rx-data"); verb names what the
// sides did with the frames.
func (ex *execution) compareFrames(i int, op, kind, verb string, o, s [][]byte) bool {
	if len(o) != len(s) {
		ex.diverge(i, op, kind, fmt.Sprintf("orig %s %d frames, synth %d", verb, len(o), len(s)))
		return false
	}
	for j := range o {
		if !bytes.Equal(o[j], s[j]) {
			ex.diverge(i, op, kind,
				fmt.Sprintf("%s frame %d differs: orig %d bytes, synth %d bytes", kind[:2], j, len(o[j]), len(s[j])))
			return false
		}
	}
	return true
}

// buildFrame constructs the deterministic frame for a send/recv step
// in buf and returns the frame. A buf too short for it is replaced by
// one that holds any frame up to MaxFrameSize, so a recycled buffer
// is not grown again.
func (h *Harness) buildFrame(buf []byte, st Step) []byte {
	if cap(buf) < st.Size {
		buf = make([]byte, max(st.Size, MaxFrameSize))
	}
	f := buf[:st.Size]
	clear(f)
	dst := h.mac
	if st.Bcast {
		dst = [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	}
	copy(f, dst[:])
	if st.Size > 6 {
		copy(f[6:], h.mac[:])
	}
	if st.Size > 13 {
		f[12], f[13] = 0x08, 0x00
	}
	for i := 14; i < st.Size; i++ {
		f[i] = st.Fill + byte(i*7)
	}
	return f
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
