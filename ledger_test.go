package revnic_test

// The determinism ledger: one golden entry per corpus driver ×
// searcher × Shards × emission style, holding the sha256 of the
// synthesized code and every deterministic exploration and solver
// counter. Every entry must repeat exactly at workers 1 and 2. A
// change that moves a counter regenerates the ledger, so its diff
// shows which counters moved and that no code hash did:
//
//	go test -run Ledger -update .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"revnic/internal/cfg"
	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/symexec"
	"revnic/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the determinism ledger")

const ledgerPath = "testdata/ledger.json"

// ledgerShards are the fan-out widths the ledger pins: fully serial,
// the default, and a width past the default.
var ledgerShards = []int{1, 4, 8}

// ledgerSearchers are the distinct searchers ("mincount" is an alias
// of "coverage").
var ledgerSearchers = []string{"coverage", "dfs", "bfs"}

// ledgerEntry is one row of the ledger. Every field is a pure function
// of the driver, searcher, Shards and style.
type ledgerEntry struct {
	Key              string `json:"key"`
	CodeSHA256       string `json:"code_sha256"`
	CoveredBlocks    int    `json:"covered_blocks"`
	ExecutedBlocks   int64  `json:"executed_blocks"`
	TranslatedBlocks int64  `json:"translated_blocks"`
	Forks            int64  `json:"forks"`
	KilledLoops      int64  `json:"killed_loops"`
	Queries          int64  `json:"queries"`
	CacheHits        int64  `json:"cache_hits"`
	ModelHits        int64  `json:"model_hits"`
	Decisions        int64  `json:"sat_decisions"`
	Conflicts        int64  `json:"sat_conflicts"`
	SessionsExtended int64  `json:"sessions_extended"`
	SessionsCreated  int64  `json:"sessions_created"`
}

// ledgerRun explores every driver × searcher × Shards configuration at
// the given worker count and returns the ledger rows in a fixed order.
func ledgerRun(t *testing.T, workers int) []ledgerEntry {
	t.Helper()
	var out []ledgerEntry
	for _, info := range drivers.Corpus() {
		for _, name := range ledgerSearchers {
			searcher, err := symexec.SearcherByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range ledgerShards {
				ecfg := symexec.Config{Seed: 1, Searcher: searcher, Shards: shards, Workers: workers}
				ecfg.Shell = core.ShellConfig(info)
				res, err := symexec.New(info.Program, ecfg).Explore()
				if err != nil {
					t.Fatalf("%s/%s/shards=%d: %v", info.Name, name, shards, err)
				}
				g := cfg.Build(res.Collector)
				for _, style := range synth.StyleNames() {
					code := synth.Generate(g, synth.Options{DriverName: info.Name, Style: style}).Code
					sum := sha256.Sum256([]byte(code))
					out = append(out, ledgerEntry{
						Key:              fmt.Sprintf("%s/%s/shards=%d/%s", info.Name, name, shards, style),
						CodeSHA256:       hex.EncodeToString(sum[:]),
						CoveredBlocks:    res.Collector.CoveredBlocks(),
						ExecutedBlocks:   res.ExecutedBlocks,
						TranslatedBlocks: res.TranslatedBlocks,
						Forks:            res.ForkCount,
						KilledLoops:      res.KilledLoops,
						Queries:          res.SolverQueries,
						CacheHits:        res.SolverCacheHits,
						ModelHits:        res.SolverModelHits,
						Decisions:        res.SolverSearch.Decisions,
						Conflicts:        res.SolverSearch.Conflicts,
						SessionsExtended: res.SolverSearch.SessionsExtended,
						SessionsCreated:  res.SolverSearch.SessionsRebuilt,
					})
				}
			}
		}
	}
	return out
}

// TestDeterminismLedger checks the ledger at workers 1 and 2.
func TestDeterminismLedger(t *testing.T) {
	got := ledgerRun(t, 1)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []ledgerEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	compareLedger(t, "workers=1", want, got)
	compareLedger(t, "workers=2", want, ledgerRun(t, 2))
}

func compareLedger(t *testing.T, label string, want, got []ledgerEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: ledger has %d entries, run produced %d (regenerate with -update)", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: ledger entry differs\n want %+v\n got  %+v", label, want[i], got[i])
		}
	}
}
