package difftest

import (
	"testing"

	"seal/internal/randprog"
)

// serveBatchSize is the number of generated cases the serve-mode oracle
// covers in full mode. Each case runs the whole serving lifecycle (infer,
// two detects, two edits with batch reruns), so the batch is smaller than
// the in-process differential batch.
const serveBatchSize = 12

// TestServeDifferentialBatch is the serve-mode oracle: for each generated
// case, every daemon response over the full lifecycle — infer+publish,
// cold detect, resident re-detect, detect after a one-file edit, detect
// after an edit that adds a function — must be byte-identical to a batch run of the
// same request (reports, normalized records, redacted manifests, redacted
// metrics).
func TestServeDifferentialBatch(t *testing.T) {
	n := serveBatchSize
	if testing.Short() {
		n = 3
	}
	for seed := int64(0); seed < int64(n); seed++ {
		c := randprog.GenPatchCase(seed)
		divs, err := RunServeCase(c)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, c.Kind, err)
		}
		for _, d := range divs {
			t.Errorf("seed %d (%s): %s", seed, c.Kind, d.String())
		}
	}
}
