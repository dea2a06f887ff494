package jobsvc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"revnic/internal/drivers"
	"revnic/internal/isa"
)

// runProgram validates an uploaded-program spec and runs it with small
// budgets, turning a pipeline panic into an error the caller can
// report instead of a crashed test binary.
func runProgram(base uint32, code []byte) (res *JobResult, err error) {
	spec := JobSpec{
		Program:     &ProgramSpec{Base: base, Code: code},
		Shards:      2,
		MaxStates:   16,
		PhaseBudget: 400, StagnationBudget: 200, CompleteTarget: 2,
	}
	if err := validate(spec); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return runSpec(spec, nil, time.Now().Add(5*time.Second), nil)
}

// TestUndecodableProgramFailsCleanly pins the uploaded-image decoder
// fix: instructions whose register or condition fields are out of
// range end their path as an error state, so the job fails with an
// error instead of a panic inside the engine. The first image is 3
// bytes, a br whose rs1 is 0x30 (the fetch zero-pads the rest), which
// used to panic with "index out of range [48]".
func TestUndecodableProgramFailsCleanly(t *testing.T) {
	for name, code := range map[string][]byte{
		"register past the file": []byte("\x1c00"),
		"br with unknown cond":   isa.Instr{Op: isa.BR, Rd: 6, Rs1: isa.R0, Rs2: isa.R1, Imm: 0x10000}.Encode(nil),
		"bri with unknown cond":  isa.Instr{Op: isa.BRI, Rd: 200, Rs1: isa.R0, Rs2: 3, Imm: 0x10000}.Encode(nil),
	} {
		_, err := runProgram(0x10000, code)
		if err == nil || strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: want a clean error, got %v", name, err)
		}
	}
}

// FuzzProgramSpec runs arbitrary uploaded images through validate and
// the whole pipeline with small budgets: a result or an error, never
// a panic.
func FuzzProgramSpec(f *testing.F) {
	f.Add(uint32(0x10000), []byte("\x1c00"))
	f.Add(uint32(0x10000), isa.Instr{Op: isa.BR, Rd: 6, Rs1: isa.R0, Rs2: isa.R1}.Encode(nil))
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(info.Program.Base, info.Program.Code)
	f.Fuzz(func(t *testing.T, base uint32, code []byte) {
		if _, err := runProgram(base, code); err != nil && strings.HasPrefix(err.Error(), "panic") {
			t.Fatal(err)
		}
	})
}
