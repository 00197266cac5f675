package detect_test

import (
	"strings"
	"testing"

	"seal/internal/detect"
	"seal/internal/eval"
	"seal/internal/kernelgen"
)

// dumpFull renders bugs with their complete witness traces (function
// names, statement spellings, line numbers) — the sharpest oracle for the
// canonical-shape path translation: a single mistranslated statement
// changes a trace line.
func dumpFull(bugs []*detect.Bug) string {
	var sb strings.Builder
	for _, b := range bugs {
		sb.WriteString(b.String())
		sb.WriteByte('\n')
		if b.Trace != nil {
			sb.WriteString(b.Trace.String())
			sb.WriteByte('\n')
		}
		if b.Trace2 != nil {
			sb.WriteString(b.Trace2.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestCanonReuseMatchesRecompute pins the soundness contract of the
// canonical-shape path cache (canon.go): over the whole synthetic corpus
// — which is deliberately rich in renamed sibling drivers — detection
// with cross-region translation enabled must produce byte-identical
// reports, traces included, to detection that recomputes every
// enumeration from scratch.
func TestCanonReuseMatchesRecompute(t *testing.T) {
	r, err := eval.NewRun(kernelgen.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	memo := detect.NewShared(r.Prog).Detector()
	withReuse := dumpFull(memo.Detect(r.Specs))

	raw := detect.New(r.Prog)
	raw.DisableMemo = true
	recomputed := dumpFull(raw.Detect(r.Specs))

	if withReuse != recomputed {
		t.Fatalf("canonical reuse changed detection results:\n--- with reuse ---\n%s\n--- recomputed ---\n%s",
			withReuse, recomputed)
	}
	if st := memo.Work(); st.PathCacheHits == 0 {
		t.Fatal("oracle ran without exercising the path cache")
	}
}

// benchPathCacheHitRateFloor is the checked-in floor for the in-run
// path-cache hit rate on the bench corpus at one worker. The seed
// substrate measured 34.5% (exact (source, region) repeats only);
// canonical-shape reuse across renamed sibling regions lifts it to
// ~69.8%. The floor sits below the measured value but far above the
// seed, so a regression that silently disables cross-region reuse fails
// here rather than showing up only as lost wall-clock.
const benchPathCacheHitRateFloor = 0.60

func TestPathCacheHitRateFloor(t *testing.T) {
	r, err := eval.NewRun(kernelgen.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := detect.NewShared(r.Prog).Detector()
	d.Detect(r.Specs)
	st := d.Work()
	total := st.PathCacheHits + st.PathCacheMisses
	if total == 0 {
		t.Fatal("no path-cache lookups on the bench corpus")
	}
	if rate := st.PathHitRate(); rate < benchPathCacheHitRateFloor {
		t.Fatalf("bench-corpus path-cache hit rate = %.1f%% (%d/%d), below the %.0f%% floor",
			rate*100, st.PathCacheHits, total, benchPathCacheHitRateFloor*100)
	}
}
