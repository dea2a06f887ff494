package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"revnic/internal/drivers"
)

// smokeConfig runs one op of a workload on a one-driver corpus with a
// single set-up: enough to catch a broken workload in a second or so.
func smokeConfig(t *testing.T, name string) runConfig {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{
		workload: name, def: workloads[name], seed: 1, corpus: []*drivers.Info{info},
		setupReps: 1, minOps: 1, maxOps: 1, dataDir: t.TempDir(),
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := runUntraced(smokeConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("metric %s = %+v, %v", m.name, v, ok)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	cfg := smokeConfig(t, "re-serial")
	path := filepath.Join(t.TempDir(), "spans.json")
	res, err := runTraced(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("result %+v", res)
	}
	if res.Metrics["symexec.explore_ms"].Value <= 0 || res.Metrics["solver.queries"].Value <= 0 {
		t.Errorf("explore time or solver counters missing: %+v", res.Metrics)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("spans file: %d spans, %v", len(spans), err)
	}
}

// BENCHMARK.json at the repository root describes this program; the
// two must name the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g != (metric{w.name, w.unit, w.better, w.bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
