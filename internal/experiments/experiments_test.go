package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"revnic/internal/platform"
)

var (
	ctxOnce sync.Once
	ctx     *Context
	ctxErr  error
)

func sharedCtx(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() { ctx, ctxErr = NewContext(ContextConfig{}) })
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctx
}

func TestTable1Static(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatal("want 4 rows")
	}
	for _, r := range rows {
		if r.DriverSizeKB <= 1 || r.CodeSegKB <= 1 || r.CodeSegKB > r.DriverSizeKB+0.1 {
			t.Errorf("%s: size %.1f code %.1f implausible", r.Driver, r.DriverSizeKB, r.CodeSegKB)
		}
		if r.ImportedOSFuncs < 4 {
			t.Errorf("%s: only %d imports", r.Driver, r.ImportedOSFuncs)
		}
		if r.DriverFuncs < 8 {
			t.Errorf("%s: only %d functions", r.Driver, r.DriverFuncs)
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "pcntpci5.sys") {
		t.Error("render missing file name")
	}
}

func TestTable2AllFeaturesPass(t *testing.T) {
	c := sharedCtx(t)
	reps, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatal("want 4 drivers")
	}
	for _, r := range reps {
		if !r.IOTraceEqual {
			t.Errorf("%s: traces diverge: %s", r.Driver, r.FirstDivergence)
		}
		if !r.InitShutdown || !r.SendReceive || !r.Multicast || !r.Promiscuous || !r.FullDuplex {
			t.Errorf("%s: feature regression: %+v", r.Driver, r)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, reps)
	out := buf.String()
	if strings.Contains(out, "FAIL") {
		t.Errorf("Table 2 contains FAIL:\n%s", out)
	}
	// The N/A entries of the paper must be preserved.
	if !strings.Contains(out, "N/A") {
		t.Error("expected N/A rows for chips without DMA/WOL")
	}
}

func TestTables3And4(t *testing.T) {
	var buf bytes.Buffer
	RenderTable3(&buf, Table3())
	RenderTable4(&buf, Table4())
	for _, want := range []string{"kitos", "0", "RTL8139", "4 years", "1 week"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

// TestFigureShapes verifies the qualitative claims of §5.3 on the
// regenerated figures — the acceptance criteria from DESIGN.md.
func TestFigureShapes(t *testing.T) {
	c := sharedCtx(t)

	t.Run("fig2", func(t *testing.T) {
		f, err := c.Fig2()
		if err != nil {
			t.Fatal(err)
		}
		series := map[string][]platform.Point{}
		for _, s := range f.Series {
			series[s.Label] = s.Points
		}
		last := len(platform.DefaultPayloads) - 1
		// KitOS is the fastest curve.
		for name, pts := range series {
			if name == "Windows->KitOS" {
				continue
			}
			if pts[0].ThroughputMbps > series["Windows->KitOS"][0].ThroughputMbps+0.01 {
				t.Errorf("%s beats KitOS at small packets", name)
			}
		}
		// The original Windows driver drops above 1 KB; the
		// synthesized Windows driver does not.
		origAt1472 := series["Windows Original"][last].ThroughputMbps
		origAt896 := series["Windows Original"][8].ThroughputMbps // payload 1024
		synAt1472 := series["Windows->Windows"][last].ThroughputMbps
		if origAt1472 >= origAt896 {
			t.Error("Windows original quirk drop missing")
		}
		if synAt1472 <= origAt1472 {
			t.Error("synthesized driver inherited the quirk")
		}
		// Below the quirk threshold the synthesized Windows driver
		// matches the original within 5%.
		for i := 0; i < 8; i++ {
			o := series["Windows Original"][i].ThroughputMbps
			s := series["Windows->Windows"][i].ThroughputMbps
			if diff := (o - s) / o; diff > 0.05 || diff < -0.05 {
				t.Errorf("payload %d: synth deviates %.1f%%", platform.DefaultPayloads[i], 100*diff)
			}
		}
		// Ported-to-Linux ≈ native Linux ("on par").
		for i := range platform.DefaultPayloads {
			n := series["Linux Original"][i].ThroughputMbps
			s := series["Windows->Linux"][i].ThroughputMbps
			if d := (n - s) / n; d > 0.05 || d < -0.05 {
				t.Errorf("Linux port deviates %.1f%% at %d", 100*d, platform.DefaultPayloads[i])
			}
		}
	})

	t.Run("fig4", func(t *testing.T) {
		f, err := c.Fig4()
		if err != nil {
			t.Fatal(err)
		}
		last := len(platform.DefaultPayloads) - 1
		orig := f.Series[0].Points[last].ThroughputMbps
		port := f.Series[1].Points[last].ThroughputMbps
		gap := (orig - port) / orig
		// "Throughput is within 10% of the original driver."
		if gap < 0.02 || gap > 0.12 {
			t.Errorf("FPGA gap %.1f%% outside the paper's ~10%% claim", 100*gap)
		}
	})

	t.Run("fig5", func(t *testing.T) {
		f, err := c.Fig5()
		if err != nil {
			t.Fatal(err)
		}
		// "ranging roughly from 20% to 30% for both" at realistic
		// sizes (>= 512B payload).
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.PayloadBytes < 512 {
					continue
				}
				if p.CPUPercent < 10 || p.CPUPercent > 40 {
					t.Errorf("%s: driver fraction %.1f%% at %d outside band",
						s.Label, p.CPUPercent, p.PayloadBytes)
				}
			}
		}
	})

	t.Run("fig6", func(t *testing.T) {
		f, err := c.Fig6()
		if err != nil {
			t.Fatal(err)
		}
		series := map[string][]platform.Point{}
		for _, s := range f.Series {
			series[s.Label] = s.Points
		}
		last := len(platform.DefaultPayloads) - 1
		kit := series["Windows->KitOS"][last].ThroughputMbps
		win := series["Windows Original"][last].ThroughputMbps
		lin := series["Linux Original"][last].ThroughputMbps
		if !(kit > lin && lin > win) {
			t.Errorf("QEMU ordering wrong: kitos %.0f linux %.0f windows %.0f", kit, win, lin)
		}
		// Win->Win on par with Windows original.
		ww := series["Windows->Windows"][last].ThroughputMbps
		if d := (ww - win) / win; d > 0.05 || d < -0.05 {
			t.Errorf("Win->Win deviates %.1f%% from original", 100*d)
		}
	})

	t.Run("fig7", func(t *testing.T) {
		f, err := c.Fig7()
		if err != nil {
			t.Fatal(err)
		}
		series := map[string][]platform.Point{}
		for _, s := range f.Series {
			series[s.Label] = s.Points
		}
		last := len(platform.DefaultPayloads) - 1
		kit := series["Windows->KitOS"][last].ThroughputMbps
		win := series["Windows Original"][last].ThroughputMbps
		lin := series["Linux Original"][last].ThroughputMbps
		// "Performance on KitOS is lower, but same as that of the
		// original Windows driver."
		if d := (kit - win) / win; d > 0.08 || d < -0.08 {
			t.Errorf("KitOS %.0f should match Windows original %.0f", kit, win)
		}
		if lin <= win {
			t.Error("Linux should outperform Windows on VMware")
		}
	})
}

func TestFig8CoverageEnvelope(t *testing.T) {
	c := sharedCtx(t)
	series := c.Fig8()
	if len(series) != 4 {
		t.Fatal("want 4 drivers")
	}
	for _, s := range series {
		final := coverageAt(s, 20)
		// "Most tested drivers reach over 80% basic block coverage
		// in less than twenty minutes."
		if final < 80 {
			t.Errorf("%s: %.1f%% at 20 min", s.Driver, final)
		}
		if coverageAt(s, 0.05) >= final {
			t.Errorf("%s: no coverage growth visible", s.Driver)
		}
	}
	var buf bytes.Buffer
	RenderFig8(&buf, series)
	if !strings.Contains(buf.String(), "%") {
		t.Error("render broken")
	}
}

func TestFig9Breakdown(t *testing.T) {
	c := sharedCtx(t)
	rows := c.Fig9()
	total, auto := 0, 0
	for _, r := range rows {
		if r.Automated+r.Manual != r.TotalFuncs {
			t.Errorf("%s: partition broken", r.Driver)
		}
		total += r.TotalFuncs
		auto += r.Automated
	}
	// "Overall, about 70% of the functions are fully synthesized."
	pct := 100 * float64(auto) / float64(total)
	if pct < 55 || pct > 85 {
		t.Errorf("overall automated %.0f%% outside plausible band", pct)
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := sharedCtx(t)
	var buf bytes.Buffer
	for _, id := range List() {
		if err := c.Run(id, &buf); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if c.Run("nonsense", &buf) == nil {
		t.Error("unknown id should error")
	}
	if buf.Len() < 2000 {
		t.Error("suspiciously little output")
	}
}
