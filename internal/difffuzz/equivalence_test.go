package difffuzz

import (
	"fmt"
	"strings"
	"testing"

	"revnic/internal/core"
)

// TestEquivalenceSeesPlantedBug shows that the §5.2 check can fail: a
// send-port bug planted in the recovered graph must make
// CheckEquivalence report unequal traces, diverging at the workload's
// first send step. (PCNet sends with no port write, and on the SMSC
// 91C111 the planted send runs into code the exploration never
// reached, which CheckEquivalence reports as an error.)
func TestEquivalenceSeesPlantedBug(t *testing.T) {
	send := -1
	for i, st := range core.EquivalenceWorkload() {
		if st.Op == "send" {
			send = i
			break
		}
	}
	want := fmt.Sprintf("trace at step %d (send): ", send)
	for _, device := range []string{"RTL8029", "RTL8139", "SBLK100"} {
		h := harnessFor(t, device, "send-port")
		rep, err := core.CheckEquivalence(h.Info, h.Rev, h.OS)
		if err != nil {
			t.Fatalf("%s: %v", device, err)
		}
		if rep.IOTraceEqual || !strings.HasPrefix(rep.FirstDivergence, want) {
			t.Errorf("%s: IOTraceEqual=%v, FirstDivergence %q, want a divergence starting %q",
				device, rep.IOTraceEqual, rep.FirstDivergence, want)
		}
	}
}

// TestEquivalenceWorkloadValidates pins that the committed §5.2
// workload is within the caps untrusted schedules are held to.
func TestEquivalenceWorkloadValidates(t *testing.T) {
	s := Schedule{Steps: core.EquivalenceWorkload()}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
