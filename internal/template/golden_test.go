package template_test

// Golden-output tests for the synthesis templates: every corpus
// device is reverse-engineered once, emitted in both code styles
// (goto and switch dispatch), instantiated for the Windows target,
// and compared byte-for-byte against committed golden files. The
// companion assertions pin the central property: the style changes
// only the emitted-code shape — function metadata, warnings and the
// executable driver's behavior are identical.
//
// Regenerate after an intentional emitter change with:
//
//	go test ./internal/template -run Golden -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/symexec"
	"revnic/internal/synth"
	"revnic/internal/template"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReversed caches one exploration per device; synthesis styles
// reuse the same recovered graph, exactly as a developer would emit
// both shapes from one RevNIC run.
var goldenReversed = map[string]*core.Reversed{}

func reverseFor(t *testing.T, info *drivers.Info) *core.Reversed {
	t.Helper()
	if r, ok := goldenReversed[info.Name]; ok {
		return r
	}
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell:      core.ShellConfig(info),
		DriverName: info.Name,
		Engine:     symexec.Config{Seed: 7},
	})
	if err != nil {
		t.Fatalf("%s: %v", info.Name, err)
	}
	goldenReversed[info.Name] = rev
	return rev
}

func slug(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "_")
}

func TestGoldenTemplates(t *testing.T) {
	for _, info := range drivers.Corpus() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			rev := reverseFor(t, info)
			outs := map[string]*synth.Output{}
			for _, style := range synth.StyleNames() {
				outs[style] = synth.Generate(rev.Graph, synth.Options{
					DriverName: info.Name, Style: style,
				})
			}

			// The style must not change anything but the code text.
			g, s := outs[synth.StyleGoto], outs[synth.StyleSwitch]
			if len(g.Funcs) != len(s.Funcs) {
				t.Fatalf("func count differs across styles: %d vs %d", len(g.Funcs), len(s.Funcs))
			}
			for i := range g.Funcs {
				if g.Funcs[i] != s.Funcs[i] {
					t.Errorf("func metadata differs across styles:\n goto   %+v\n switch %+v",
						g.Funcs[i], s.Funcs[i])
				}
			}
			if strings.Join(g.Warnings, "\n") != strings.Join(s.Warnings, "\n") {
				t.Errorf("warnings differ across styles:\n goto   %v\n switch %v",
					g.Warnings, s.Warnings)
			}
			if g.Code == s.Code {
				t.Error("styles emitted identical code; the switch emitter is not wired")
			}

			for _, style := range synth.StyleNames() {
				path := filepath.Join("testdata", "golden",
					slug(info.Name)+"_"+style+".c")
				got := template.Instantiate(template.Windows, info.Name, outs[style])
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (regenerate with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s: emitted source differs from golden file %s "+
						"(intentional emitter changes: regenerate with -update)",
						style, path)
				}
			}
		})
	}
}

// TestStyleDoesNotChangeBehavior executes the synthesized driver
// built from a switch-style synthesis result against the original
// binary: the I/O traces must still match, because the executable
// driver runs the recovered graph — the emitted C shape plays no part
// in behavior.
func TestStyleDoesNotChangeBehavior(t *testing.T) {
	info, err := drivers.ByName("SBLK100")
	if err != nil {
		t.Fatal(err)
	}
	rev := reverseFor(t, info)
	swRev := *rev
	swRev.Synth = synth.Generate(rev.Graph, synth.Options{
		DriverName: info.Name, Style: synth.StyleSwitch,
	})
	rep, err := core.CheckEquivalence(info, &swRev, template.Windows)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IOTraceEqual {
		t.Errorf("switch-style driver diverged from the original: %s", rep.FirstDivergence)
	}
}
