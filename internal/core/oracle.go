package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"revnic/internal/drivers"
	"revnic/internal/ir"
	"revnic/internal/synthdrv"
	"revnic/internal/template"
)

// Step is one operation of a workload schedule, applied identically to
// the original and the synthesized driver. Op selects the operation;
// the remaining fields parameterize it and are ignored by ops that do
// not use them.
type Step struct {
	// Op is one of "send", "recv", "query", "set", "timer", "pump".
	Op string `json:"op"`
	// Size is the frame length for send/recv.
	Size int `json:"size,omitempty"`
	// Fill seeds the frame payload pattern for send/recv.
	Fill byte `json:"fill,omitempty"`
	// Bcast addresses the frame to ff:ff:ff:ff:ff:ff instead of the
	// device's own station address.
	Bcast bool `json:"bcast,omitempty"`
	// OID is the object identifier for query/set.
	OID uint32 `json:"oid,omitempty"`
	// Val is the 32-bit little-endian payload of a set without Data,
	// and the requested buffer size for query.
	Val uint32 `json:"val,omitempty"`
	// Data, when not empty, is the payload of a set, such as a
	// multicast address list.
	Data []byte `json:"data,omitempty"`
}

// Caps on step content. Steps from outside the process (seed files,
// peer shard payloads) are checked against them before anything runs
// (difffuzz.Schedule.Validate); generated and committed steps are
// within them.
const (
	// MaxFrameSize bounds the frame of a send/recv step. It sits past
	// the largest legal Ethernet frame so the drivers' over-length
	// rejection paths still get fuzzed.
	MaxFrameSize = 1600
	// MaxQueryLen bounds the buffer size a query step requests.
	MaxQueryLen = 4096
	// MaxSetData bounds the Data of a step: 32 six-byte multicast
	// addresses.
	MaxSetData = 192
)

// Frame builds the deterministic frame of a send/recv step for a
// device with station address mac in buf, and returns it. A buf too
// short for it is replaced by one that holds any frame up to
// MaxFrameSize, so a recycled buffer is not grown again.
func (st Step) Frame(buf []byte, mac [6]byte) []byte {
	if cap(buf) < st.Size {
		buf = make([]byte, max(st.Size, MaxFrameSize))
	}
	f := buf[:st.Size]
	clear(f)
	dst := mac
	if st.Bcast {
		dst = [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	}
	copy(f, dst[:])
	if st.Size > 6 {
		copy(f[6:], mac[:])
	}
	if st.Size > 13 {
		f[12], f[13] = 0x08, 0x00
	}
	for i := 14; i < st.Size; i++ {
		f[i] = st.Fill + byte(i*7)
	}
	return f
}

// Mismatch describes the first observable difference between the
// original and the synthesized driver under one workload.
type Mismatch struct {
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
	// Step is the index of the workload step that exposed the
	// difference; -1 means initialization, the step count means halt.
	Step   int    `json:"step"`
	StepOp string `json:"step_op,omitempty"`
	Detail string `json:"detail"`
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("%s at step %d (%s): %s", m.Kind, m.Step, m.StepOp, m.Detail)
}

// Oracle runs one workload on an original rig and a synthesized rig
// of the same driver in lockstep, and after every operation compares
// what the two sides observably did: status, query output, errors,
// the hardware I/O traces, the frames transmitted and the frames
// indicated up the stack, and at halt the device status. The
// differential fuzzer runs every schedule through it, and
// CheckEquivalence runs the §5.2 workload.
//
// Call Init, then Step while they report true, then Halt.
type Oracle struct {
	Orig, Synth *Rig
	// Mismatch is the first observable difference, nil while there
	// is none.
	Mismatch *Mismatch
	// Unexplored means the synthesized driver hit a branch the
	// exploration never reached: an incompleteness warning (§4.1),
	// not a difference, since the two sides matched on everything
	// the synthesized code executed.
	Unexplored bool
	// OrigErr and SynthErr are what the operation that stopped the
	// workload returned on each side, named with its op and step, when
	// it failed on that side.
	OrigErr, SynthErr error
	// Err is set when the workload names an unknown step op.
	Err string

	mac    [6]byte
	inited bool
	cursor int // ops of the traces already compared
	// frame is the scratch buffer send and recv steps build their
	// frames in. Every consumer copies a frame before the step ends
	// (guest memory through WriteMem, the device's receive memory or
	// queue), so the next step may overwrite it.
	frame *[]byte
}

// frames recycles the frame buffers of closed oracles.
var frames = sync.Pool{New: func() any { return new([]byte) }}

// NewOracle builds an original rig of info, translated through img,
// and a synthesized rig of code under the osKind template runtime,
// both with station address mac and drawing their device models from
// models when it is not nil.
func NewOracle(info *drivers.Info, img *ir.Image, code *synthdrv.Code, osKind template.OS, mac [6]byte, models *ModelPool) (*Oracle, error) {
	orig, err := NewOriginalRig(info, img, mac, models)
	if err != nil {
		return nil, fmt.Errorf("original rig: %w", err)
	}
	synth, err := NewSynthRig(code, info, osKind, mac, models)
	if err != nil {
		orig.Close()
		return nil, fmt.Errorf("synth rig: %w", err)
	}
	return &Oracle{Orig: orig, Synth: synth, mac: mac, frame: frames.Get().(*[]byte)}, nil
}

// Close closes both rigs and recycles the frame buffer. Traces are
// invalid afterwards (see Rig.Close).
func (o *Oracle) Close() {
	o.Orig.Close()
	o.Synth.Close()
	frames.Put(o.frame)
}

// stopped reports whether a difference, unexplored code or an invalid
// step has ended the workload.
func (o *Oracle) stopped() bool {
	return o.Mismatch != nil || o.Unexplored || o.Err != ""
}

func (o *Oracle) diverge(step int, op, kind, detail string) {
	if o.Mismatch == nil {
		o.Mismatch = &Mismatch{Kind: kind, Step: step, StepOp: op, Detail: detail}
	}
}

// Init initializes both drivers and reports whether the workload may
// go on.
func (o *Oracle) Init() bool {
	o.inited = o.both(-1, "init", func(s Side) (uint32, []byte, error) {
		return 0, nil, s.Initialize()
	})
	return o.inited
}

// Halt ends the workload; step is its number, the step count. If Init
// succeeded and no difference, unexplored code or invalid step has
// stopped the workload, it halts both drivers and compares the device
// status. Then, if still none has, it compares the traces past what
// the steps compared, and their lengths: that catches trailing extra
// ops and the ops of an operation that failed on both sides.
func (o *Oracle) Halt(step int) {
	if o.inited && !o.stopped() {
		o.both(step, "halt", func(s Side) (uint32, []byte, error) {
			return 0, nil, s.Halt()
		})
		if o.Mismatch == nil {
			if a, b := o.Orig.Dev.StatusReport(), o.Synth.Dev.StatusReport(); a != b {
				o.diverge(step, "halt", "status", fmt.Sprintf("device status orig %+v, synth %+v", a, b))
			}
		}
	}
	if !o.stopped() && o.comparePrefix(step, "halt", "length") {
		if a, b := len(o.Orig.Trace()), len(o.Synth.Trace()); a != b {
			o.diverge(step, "halt", "length", fmt.Sprintf("length: orig %d vs synth %d", a, b))
		}
	}
}

// both applies one operation to the two sides and compares status,
// output bytes, errors, and the hardware traces the op produced.
// It returns false when the workload should stop (difference found,
// unexplored code hit, or a failure on either side).
func (o *Oracle) both(step int, op string, f func(Side) (uint32, []byte, error)) bool {
	oSt, oOut, oErr := f(o.Orig.Side)
	sSt, sOut, sErr := f(o.Synth.Side)
	if oErr != nil {
		o.OrigErr = fmt.Errorf("%s (step %d): %w", op, step, oErr)
	}
	if sErr != nil {
		o.SynthErr = fmt.Errorf("%s (step %d): %w", op, step, sErr)
	}

	var unexp *synthdrv.ErrUnexplored
	if errors.As(sErr, &unexp) {
		// Prefix check first: an unexplored hit after the traces
		// already diverged is still a divergence.
		if o.comparePrefix(step, op, "trace") {
			o.Unexplored = true
		}
		return false
	}
	if (oErr == nil) != (sErr == nil) {
		o.diverge(step, op, "op-error", fmt.Sprintf("orig err=%v, synth err=%v", oErr, sErr))
		return false
	}
	if oErr != nil {
		// Both sides failed identically (e.g. a stuck interrupt
		// line): stop the workload, no divergence.
		return false
	}
	if oSt != sSt {
		o.diverge(step, op, "status", fmt.Sprintf("orig status %#x, synth status %#x", oSt, sSt))
		return false
	}
	if !bytes.Equal(oOut, sOut) {
		o.diverge(step, op, "query-out", fmt.Sprintf("orig % x, synth % x", oOut, sOut))
		return false
	}
	return o.comparePrefix(step, op, "trace")
}

// comparePrefix diffs the not-yet-compared region of the two traces,
// reporting a value mismatch as kind. The synthesized trace may
// legitimately be shorter mid-workload only when the driver stopped
// at unexplored code, which both handles before calling here; a value
// mismatch in the common prefix is always a real divergence.
func (o *Oracle) comparePrefix(step int, op, kind string) bool {
	ot, st := o.Orig.Trace(), o.Synth.Trace()
	n := min(len(ot), len(st))
	for i := o.cursor; i < n; i++ {
		if ot[i] != st[i] {
			o.diverge(step, op, kind, fmt.Sprintf("op %d: orig %+v vs synth %+v", i, ot[i], st[i]))
			return false
		}
	}
	o.cursor = n
	return true
}

// Step applies workload step number i to both sides and reports
// whether the workload may go on.
func (o *Oracle) Step(i int, st Step) bool {
	switch st.Op {
	case "send":
		f := st.Frame(*o.frame, o.mac)
		*o.frame = f
		if !o.both(i, "send", func(s Side) (uint32, []byte, error) {
			stat, err := s.Send(f)
			return stat, nil, err
		}) {
			return false
		}
		return o.pump(i, "send") &&
			o.compareFrames(i, "send", "tx-data", "transmitted", o.Orig.Dev.TxFrames(), o.Synth.Dev.TxFrames())
	case "recv":
		f := st.Frame(*o.frame, o.mac)
		*o.frame = f
		oAcc := o.Orig.Dev.InjectRX(f)
		sAcc := o.Synth.Dev.InjectRX(f)
		if oAcc != sAcc {
			o.diverge(i, "recv", "rx-accept",
				fmt.Sprintf("orig accepted=%v, synth accepted=%v (len %d)", oAcc, sAcc, len(f)))
			return false
		}
		if !oAcc {
			return true // both dropped; nothing to pump
		}
		return o.pump(i, "recv") && o.compareReceived(i, "recv")
	case "query":
		return o.both(i, "query", func(s Side) (uint32, []byte, error) {
			return s.Query(st.OID, st.Val)
		})
	case "set":
		in := st.Data
		if len(in) == 0 {
			var val [4]byte
			binary.LittleEndian.PutUint32(val[:], st.Val)
			in = val[:]
		}
		return o.both(i, "set", func(s Side) (uint32, []byte, error) {
			stat, err := s.Set(st.OID, in)
			return stat, nil, err
		})
	case "timer":
		return o.both(i, "timer", func(s Side) (uint32, []byte, error) {
			return 0, nil, s.FireTimer()
		})
	case "pump":
		return o.pump(i, "pump") && o.compareReceived(i, "pump")
	default:
		o.Err = fmt.Sprintf("unknown step op %q", st.Op)
		return false
	}
}

func (o *Oracle) pump(i int, op string) bool {
	return o.both(i, op, func(s Side) (uint32, []byte, error) {
		n, err := s.PumpInterrupts(16)
		return uint32(n), nil, err
	})
}

// compareReceived diffs the frames each side has indicated up the
// stack so far.
func (o *Oracle) compareReceived(i int, op string) bool {
	return o.compareFrames(i, op, "rx-data", "indicated", o.Orig.OS.Received, o.Synth.RT.Received)
}

// compareFrames diffs two frame lists, byte for byte, as a divergence
// of the given kind ("tx-data" or "rx-data"); verb names what the
// sides did with the frames.
func (o *Oracle) compareFrames(i int, op, kind, verb string, a, b [][]byte) bool {
	if len(a) != len(b) {
		o.diverge(i, op, kind, fmt.Sprintf("orig %s %d frames, synth %d", verb, len(a), len(b)))
		return false
	}
	for j := range a {
		if !bytes.Equal(a[j], b[j]) {
			o.diverge(i, op, kind,
				fmt.Sprintf("%s frame %d differs: orig %d bytes, synth %d bytes", kind[:2], j, len(a[j]), len(b[j])))
			return false
		}
	}
	return true
}
