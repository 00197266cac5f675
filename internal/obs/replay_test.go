package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestReplayUnitReproducesRedactedManifest is the merge-fidelity contract:
// replaying a run's unit manifests into a fresh recorder (what the
// coordinator does with each shard's response) must produce a manifest
// indistinguishable from the original after substrate redaction — same
// identities, outcomes, reasons, counts, attempts, annotations.
func TestReplayUnitReproducesRedactedManifest(t *testing.T) {
	orig := buildSample(t, 4)

	r := New()
	r.StartRun("detect")
	r.SetUnitsTotal(len(orig.Units))
	for _, u := range orig.Units {
		r.ReplayUnit(u)
	}
	replayed := r.BuildManifest("detect", 4, map[string]string{"target": "/tmp/tree"}, 2)

	want, err := orig.RedactSubstrate().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.RedactSubstrate().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("replayed manifest diverges after substrate redaction.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Spot-check the load-bearing fields survive replay directly, not just
	// via redacted equality.
	if replayed.Outcomes != orig.Outcomes {
		t.Fatalf("outcomes = %+v, want %+v", replayed.Outcomes, orig.Outcomes)
	}
	for i, u := range replayed.Units {
		o := orig.Units[i]
		if u.ID != o.ID || u.Outcome != o.Outcome || u.Reason != o.Reason ||
			u.Attempts != o.Attempts || u.Specs != o.Specs || u.Bugs != o.Bugs {
			t.Fatalf("unit %d = %+v, want %+v", i, u, o)
		}
		if len(u.Annots) != len(o.Annots) {
			t.Fatalf("unit %d annotations = %+v, want %+v", i, u.Annots, o.Annots)
		}
	}
}

// TestReplayUnitNilRecorder checks replay is a safe no-op when
// observability is disabled.
func TestReplayUnitNilRecorder(t *testing.T) {
	var r *Recorder
	r.ReplayUnit(UnitManifest{ID: "api:x", Stage: "detect"}) // must not panic
}

// TestManifestShardsRedaction pins the placement rule for shard
// provenance: it serializes in the raw manifest (operators see which
// worker ran what) and is dropped by Redact (byte-identity comparisons
// span arrangements).
func TestManifestShardsRedaction(t *testing.T) {
	m := buildSample(t, 2)
	m.Shards = []ShardManifest{
		{Shard: 0, Addr: "http://127.0.0.1:1", Groups: 3, Specs: 5, Outcome: "ok", Attempts: 1, WallMS: 12.5, Bugs: 2},
		{Shard: 1, Addr: "http://127.0.0.1:2", Groups: 1, Specs: 2, Outcome: "lost", Reason: "connection refused", Attempts: 2},
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"shards"`) || !strings.Contains(string(raw), "connection refused") {
		t.Fatalf("raw manifest does not serialize shard provenance: %s", raw)
	}
	if red := m.Redact(); red.Shards != nil {
		t.Fatalf("Redact kept shards: %+v", red.Shards)
	}
	if red := m.RedactSubstrate(); red.Shards != nil {
		t.Fatalf("RedactSubstrate kept shards: %+v", red.Shards)
	}
	// Round trip: a worker-side manifest decoded by the coordinator keeps
	// the shard section intact.
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Shards) != 2 || back.Shards[1].Reason != "connection refused" {
		t.Fatalf("shards did not round-trip: %+v", back.Shards)
	}
}

// TestRedactTimingsZeroesSubstrateCounters checks the metrics counterpart
// of Manifest.RedactSubstrate: PDG arrangement-dependent counters are
// zeroed (line structure preserved), while arrangement-invariant counters
// keep their values.
func TestRedactTimingsZeroesSubstrateCounters(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("seal_pdg_ensure_calls_total", "").Add(9)
	reg.Counter("seal_pdg_builds_total", "").Add(3)
	reg.Counter("seal_detect_bugs_total", "").Add(7)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	red := RedactTimings(sb.String())
	for _, want := range []string{"seal_pdg_ensure_calls_total 0", "seal_pdg_builds_total 0", "seal_detect_bugs_total 7"} {
		if !strings.Contains(red, want) {
			t.Fatalf("redaction missing %q:\n%s", want, red)
		}
	}
	for _, name := range []string{"seal_pdg_ensure_calls_total", "seal_pdg_builds_total"} {
		if !VolatileMetric(name) {
			t.Fatalf("VolatileMetric(%q) = false", name)
		}
	}
	if VolatileMetric("seal_detect_bugs_total") {
		t.Fatal(`VolatileMetric("seal_detect_bugs_total") = true`)
	}
}
