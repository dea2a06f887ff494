package difffuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SeedFile is the on-disk schedule format (examples/fuzz/*.json): a
// device name, a template OS, and a list of hand-written schedules.
// The same format is emitted for minimized reproducers, so any
// divergence report can be replayed with `revfuzz -replay`.
type SeedFile struct {
	Device    string     `json:"device"`
	OS        string     `json:"os,omitempty"`
	Schedules []Schedule `json:"schedules"`
}

// LoadSeedFile parses one schedule file. Every schedule must pass
// Validate.
func LoadSeedFile(path string) (*SeedFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSeedFile(path, data)
}

func parseSeedFile(path string, data []byte) (*SeedFile, error) {
	var sf SeedFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("difffuzz: %s: %w", path, err)
	}
	if sf.Device == "" {
		return nil, fmt.Errorf("difffuzz: %s: missing device", path)
	}
	for i, s := range sf.Schedules {
		if len(s.Steps) == 0 {
			return nil, fmt.Errorf("difffuzz: %s: schedule %d has no steps", path, i)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return &sf, nil
}

// LoadSeedDir collects the schedules for one device from every .json
// file in dir, in sorted filename order (determinism again).
func LoadSeedDir(dir, device string) ([]Schedule, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []Schedule
	for _, p := range paths {
		sf, err := LoadSeedFile(p)
		if err != nil {
			return nil, err
		}
		if sf.Device == device {
			out = append(out, sf.Schedules...)
		}
	}
	return out, nil
}
