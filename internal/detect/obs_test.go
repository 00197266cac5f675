package detect

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"seal/internal/budget"
	"seal/internal/obs"
	"seal/internal/spec"
)

// groupedByScope mirrors the scheduler's unit formation: specs bucketed by
// detection scope in first-appearance order.
func groupedByScope(specs []*spec.Spec) [][]*spec.Spec {
	idx := make(map[string]int)
	var out [][]*spec.Spec
	for _, s := range specs {
		sc := s.Scope()
		i, ok := idx[sc]
		if !ok {
			i = len(out)
			idx[sc] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// TestManifestSharedVsPrivateSubstrate pins the arrangement-independence
// contract: one budgeted run over the shared substrate and one run that
// gives every region group a private graph must produce the same manifest
// after RedactSubstrate — identical unit universe, outcomes, and result
// counts, with only the cache/spend bookkeeping (which genuinely differs
// between the arrangements) removed.
func TestManifestSharedVsPrivateSubstrate(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)

	sharedRec := obs.New()
	if _, err := runAll(context.Background(), NewShared(prog), specs, 4, budget.Limits{}, sharedRec); err != nil {
		t.Fatal(err)
	}
	sharedM := sharedRec.BuildManifest("detect", 4, nil, 0)

	privateRec := obs.New()
	for _, group := range groupedByScope(specs) {
		if _, err := runAll(context.Background(), NewShared(prog), group, 1, budget.Limits{}, privateRec); err != nil {
			t.Fatal(err)
		}
	}
	privateM := privateRec.BuildManifest("detect", 1, nil, 0)

	a, err := sharedM.RedactSubstrate().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := privateM.RedactSubstrate().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("substrate-redacted manifests differ between shared and private-graph runs:\nshared:\n%s\nprivate:\n%s", a, b)
	}
	if len(sharedM.Units) == 0 {
		t.Fatal("shared run recorded no units")
	}
}

// TestRecorderConcurrentWorkers exercises span and counter recording from
// many detection workers at once, with a reader polling run progress in
// parallel — the shapes -race must hold for.
func TestRecorderConcurrentWorkers(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	rec := obs.New()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec.Progress()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	rec.SetUnitsTotal(len(ScopeGroups(specs)))
	res, err := runAll(context.Background(), NewShared(prog), specs, 8, budget.Limits{}, rec)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("clean run quarantined %d units", len(res.Failures))
	}

	m := rec.BuildManifest("detect", 8, nil, 5)
	done, total, degraded, quarantined := rec.Progress()
	if done != total || total != int64(len(m.Units)) || degraded != 0 || quarantined != 0 {
		t.Fatalf("progress %d/%d (deg=%d quar=%d) vs %d units", done, total, degraded, quarantined, len(m.Units))
	}
	for _, u := range m.Units {
		if u.Stage != "detect" || u.Outcome != obs.OutcomeOK {
			t.Fatalf("unit %+v", u)
		}
		if len(u.Stages) != 2 || u.Stages[0].Name != "slice" || u.Stages[1].Name != "solve" {
			t.Fatalf("unit %s stages = %+v", u.ID, u.Stages)
		}
	}
}
