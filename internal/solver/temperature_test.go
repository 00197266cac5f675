package solver_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"seal"
	"seal/internal/solver"
)

// budgetedRun is what a step-budgeted detection decided: its reports,
// quarantined and degraded units, and every unit's outcome and steps.
func budgetedRun(t *testing.T, workers int, maxSteps int64) string {
	t.Helper()
	rec := seal.NewRecorder()
	rec.StartRun("detect")
	res, _, err := seal.DetectFiles(context.Background(), coldBatchFiles, coldBatchSpecs,
		seal.DetectRunOptions{Workers: workers, Limits: seal.Limits{MaxSteps: maxSteps}, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range res.Recs {
		fmt.Fprintln(&sb, r)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(&sb, "quarantined %s %s %s\n", f.Unit, f.Reason, f.Detail)
	}
	for _, d := range res.Degraded {
		fmt.Fprintln(&sb, d)
	}
	for _, u := range rec.BuildManifest("detect", workers, nil, 0).Units {
		fmt.Fprintf(&sb, "unit %s %s %s steps=%d\n", u.ID, u.Outcome, u.Reason, u.Steps)
	}
	return sb.String()
}

// TestMemoTemperatureKeepsDegradation runs one step-budgeted detection
// twice in a process, from a cold solver memo and then from the memo the
// first run warmed, at 1, 2 and 4 workers: reports, quarantined and
// degraded units, and per-unit steps must be identical, because a memo
// hit charges the budget exactly what computing the check would have.
func TestMemoTemperatureKeepsDegradation(t *testing.T) {
	oracleCorpora(t)
	defer solver.ResetMemo()
	for _, maxSteps := range []int64{60, 150, 300} {
		for _, workers := range []int{1, 2, 4} {
			solver.ResetMemo()
			cold := budgetedRun(t, workers, maxSteps)
			warm := budgetedRun(t, workers, maxSteps)
			if cold != warm {
				t.Fatalf("max-steps %d, %d workers: warm-memo run differs from the cold one:\ncold:\n%s\nwarm:\n%s",
					maxSteps, workers, cold, warm)
			}
			if degraded := strings.Count(cold, "degraded:"); degraded == 0 || !strings.Contains(cold, " ok ") {
				t.Fatalf("max-steps %d degraded %d units; want some but not all, or the comparison is vacuous", maxSteps, degraded)
			}
		}
	}
}
