package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// summary is one metric over repeated runs. The shares are relative
// to the median: iqr_share is the spread a bound must cover.
type summary struct {
	Unit       string  `json:"unit"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
}

// runRepeat runs the workload n times, seeds seed..seed+n-1, each in
// its own process so peak RSS is per run, and prints per-metric
// medians, quartiles and spreads. It returns the exit code.
func runRepeat(n int, name string, seed int64, seconds, traced int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "revnicbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	ok := true
	for k := range n {
		s := seed + int64(k)
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
			fmt.Fprintf(os.Stderr, "revnicbench: run with seed %d: %v (exit: %v)\n", s, jerr, err)
			return 1
		}
		ok = ok && err == nil && r.Correct
		for m, v := range r.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
	}
	sums := map[string]summary{}
	fmt.Printf("%s, %d runs, seeds %d..%d:\n", name, n, seed, seed+int64(n)-1)
	fmt.Printf("  %-26s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, m := range slices.Sorted(maps.Keys(values)) {
		xs := values[m]
		q1, med, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		s := summary{Unit: units[m], Median: med, Q1: q1, Q3: q3, Min: lo, Max: hi}
		if med != 0 {
			s.IQRShare, s.RangeShare = (q3-q1)/med, (hi-lo)/med
		}
		sums[m] = s
		fmt.Printf("  %-26s %12.4g %12.4g %12.4g %8.1f%% %8.1f%%\n", m, med, q1, q3, 100*s.IQRShare, 100*s.RangeShare)
	}
	out, err := json.Marshal(map[string]any{"workload": name, "runs": n, "correct": ok, "metrics": sums})
	if err != nil {
		fmt.Fprintf(os.Stderr, "revnicbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !ok {
		return 1
	}
	return 0
}
