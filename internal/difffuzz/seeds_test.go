package difffuzz

import (
	"encoding/base64"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revnic/internal/core"
)

const seedDir = "../../examples/fuzz"

// TestGeneratedSchedulesValidate pins that the generator never leaves
// the caps untrusted schedules are held to: fresh and mutated
// schedules across seeds, rounds and the largest max_steps a job may
// ask for all pass Validate.
func TestGeneratedSchedulesValidate(t *testing.T) {
	for _, maxSteps := range []int{1, 12, MaxScheduleSteps} {
		for seed := uint64(1); seed <= 8; seed++ {
			var corpus []Schedule
			for round := 0; round < 8; round++ {
				for i := 0; i < 16; i++ {
					s := generate(seed, round, i, maxSteps, corpus)
					if err := s.Validate(); err != nil {
						t.Fatalf("max_steps %d seed %d round %d index %d: %v", maxSteps, seed, round, i, err)
					}
					if i%3 == 0 {
						corpus = append(corpus, s)
					}
				}
			}
		}
	}
}

// TestValidateRejectsOverCapSteps covers each cap and its boundary.
func TestValidateRejectsOverCapSteps(t *testing.T) {
	long := make([]Step, MaxScheduleSteps+1)
	for i := range long {
		long[i] = Step{Op: "pump"}
	}
	bad := map[string]Schedule{
		"unknown op":     {Steps: []Step{{Op: "reboot"}}},
		"negative size":  {Steps: []Step{{Op: "send", Size: -1}}},
		"oversized send": {Steps: []Step{{Op: "recv", Size: core.MaxFrameSize + 1}}},
		"huge query":     {Steps: []Step{{Op: "query", Val: 4000000000}}},
		"oversized data": {Steps: []Step{{Op: "set", Data: make([]byte, core.MaxSetData+1)}}},
		"too many steps": {Steps: long},
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	atCaps := append(append([]Step(nil), long[:MaxScheduleSteps-4]...),
		Step{Op: "send", Size: core.MaxFrameSize}, Step{Op: "query", Val: core.MaxQueryLen},
		Step{Op: "set", Val: 4000000000}, Step{Op: "set", Data: make([]byte, core.MaxSetData)})
	if err := (Schedule{Steps: atCaps}).Validate(); err != nil {
		t.Errorf("schedule at the caps rejected: %v", err)
	}
}

// TestLoadSeedFileCaps loads the committed seed files and rejects
// files whose schedules break a cap.
func TestLoadSeedFileCaps(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(seedDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed seed files (%v)", err)
	}
	for _, p := range paths {
		if _, err := LoadSeedFile(p); err != nil {
			t.Errorf("committed seed file rejected: %v", err)
		}
	}
	dir := t.TempDir()
	for name, steps := range map[string]string{
		"huge-query": `{"op":"query","oid":1,"val":4000000000}`,
		"neg-size":   `{"op":"send","size":-1}`,
		"bogus-op":   `{"op":"reboot"}`,
		"big-data":   `{"op":"set","oid":1,"data":"` + base64.StdEncoding.EncodeToString(make([]byte, core.MaxSetData+1)) + `"}`,
		"long":       strings.Repeat(`{"op":"pump"},`, MaxScheduleSteps) + `{"op":"pump"}`,
	} {
		p := filepath.Join(dir, name+".json")
		body := `{"device":"SBLK100","schedules":[{"id":1,"steps":[` + steps + `]}]}`
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSeedFile(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzLoadSeedFile feeds arbitrary bytes to the seed-file decoder. It
// must return an error or schedules within the caps — never panic —
// and every frame a loaded schedule asks for must build within
// core.MaxFrameSize.
func FuzzLoadSeedFile(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(seedDir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A multicast-list set, the one step with a byte payload.
	f.Add([]byte(`{"device":"RTL8029","schedules":[{"id":1,"steps":[{"op":"set","oid":16843011,"data":"AQBeAAABAQBef//6"}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := parseSeedFile("fuzz.json", data)
		if err != nil {
			return
		}
		for _, s := range sf.Schedules {
			if err := s.Validate(); err != nil {
				t.Fatalf("loaded schedule breaks a cap: %v", err)
			}
			for _, st := range s.Steps {
				if n := len(st.Frame(nil, [6]byte{})); n > core.MaxFrameSize {
					t.Fatalf("%d-byte frame built", n)
				}
			}
		}
	})
}
