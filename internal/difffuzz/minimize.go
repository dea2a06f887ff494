package difffuzz

// Minimize shrinks a divergence-producing schedule to a shortest
// reproducer using delta debugging (ddmin): repeatedly drop chunks of
// steps, keeping any reduction that still diverges, halving chunk
// size until single steps. Every trial re-executes the candidate on
// fresh rigs (their guest memory recycled, zeroed), so the minimized
// schedule is a standalone reproducer.
// Minimization is deterministic: trial order depends only on the
// input schedule. maxTrials bounds the work (200 is plenty for
// MaxSteps-sized schedules).
func Minimize(h *Harness, s Schedule, maxTrials int) (Schedule, int) {
	trials := 0
	diverges := func(steps []Step) bool {
		if trials >= maxTrials {
			return false
		}
		trials++
		out := h.RunSchedule(Schedule{ID: s.ID, Steps: steps})
		return out.Divergence != nil
	}

	steps := s.Steps
	chunk := (len(steps) + 1) / 2
	for trials < maxTrials && len(steps) > 1 {
		reduced := false
		for start := 0; start < len(steps) && len(steps) > 1; {
			end := start + chunk
			if end > len(steps) {
				end = len(steps)
			}
			cand := make([]Step, 0, len(steps)-(end-start))
			cand = append(cand, steps[:start]...)
			cand = append(cand, steps[end:]...)
			if len(cand) > 0 && diverges(cand) {
				steps = cand
				// Re-test the same position: the next chunk shifted
				// into this slot.
				reduced = true
			} else {
				start = end
			}
		}
		if chunk == 1 {
			if !reduced {
				break
			}
			continue // another single-step pass until stable
		}
		chunk = (chunk + 1) / 2
	}
	return Schedule{ID: s.ID, Steps: steps}, trials
}
