package obs

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildSample records a small run with every outcome class and returns
// the manifest.
func buildSample(t *testing.T, workers int) *Manifest {
	t.Helper()
	clk := newFakeClock(time.Millisecond)
	r := NewWithClock(clk.Now)
	r.StartRun("detect")
	r.SetUnitsTotal(4)

	ok := r.Unit("detect", "iface:ops.prepare")
	ok.StartStage("slice").End()
	ok.AddStage("solve", 3*time.Millisecond, 7)
	ok.SetCounts(2, 1)
	ok.EndWithSpend(100, 4096)

	deg := r.Unit("detect", "api:kfree")
	deg.SetOutcome(OutcomeDegraded, "step-budget")
	deg.Annotate("degraded", "budget exhausted: step-budget (10 of 10)")
	deg.SetCounts(1, 0)
	deg.EndWithSpend(10, 0)

	quar := r.Unit("detect", "iface:ops.finish")
	quar.SetOutcome(OutcomeQuarantined, "panic")
	quar.SetAttempts(2)
	quar.End()

	skip := r.Unit("detect", "api:memcpy")
	skip.SetOutcome(OutcomeSkipped, "aborted")
	skip.End()

	r.Registry().Counter("seal_solver_sat_checks_total", "").Add(12)
	r.Registry().Gauge("seal_pdg_build_seconds_total", "").Set(0.25)
	r.Registry().Counter("seal_pdg_builds_total", "").Add(3)
	r.Registry().Counter("seal_path_cache_hits_total", "").Add(5)
	r.Registry().Counter("seal_pcache_read_bytes_total", "").Add(4096)

	return r.BuildManifest("detect", workers, map[string]string{"target": "/tmp/tree"}, 2)
}

func TestBuildManifestShape(t *testing.T) {
	m := buildSample(t, 4)
	if m.Tool != "seal" || m.Command != "detect" || m.Workers != 4 {
		t.Fatalf("header = %+v", m)
	}
	if m.WallMS <= 0 || m.StartedAt == "" {
		t.Fatalf("wall/start not recorded: %v %q", m.WallMS, m.StartedAt)
	}
	if m.Outcomes != (OutcomeCounts{OK: 1, Degraded: 1, Quarantined: 1, Skipped: 1}) {
		t.Fatalf("outcomes = %+v", m.Outcomes)
	}
	// Units sorted by (stage, id).
	var ids []string
	for _, u := range m.Units {
		ids = append(ids, u.ID)
	}
	want := []string{"api:kfree", "api:memcpy", "iface:ops.finish", "iface:ops.prepare"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("unit order = %v, want %v", ids, want)
	}
	// The ok unit carries its stages, counts, and spend.
	u := m.Units[3]
	if len(u.Stages) != 2 || u.Stages[0].Name != "slice" || u.Stages[1].Name != "solve" {
		t.Fatalf("stages = %+v", u.Stages)
	}
	if u.Stages[1].Steps != 7 || u.Steps != 100 || u.MemBytes != 4096 || u.Specs != 2 || u.Bugs != 1 {
		t.Fatalf("unit detail = %+v", u)
	}
	// The quarantined unit records its retry count and reason.
	q := m.Units[2]
	if q.Attempts != 2 || q.Reason != "panic" || q.Outcome != OutcomeQuarantined {
		t.Fatalf("quarantined unit = %+v", q)
	}
	if len(m.Slowest) != 2 {
		t.Fatalf("slowest = %+v", m.Slowest)
	}
	if m.Counters["seal_solver_sat_checks_total"] != 12 {
		t.Fatalf("counters = %v", m.Counters)
	}
}

func TestRedactNormalizesTimingAndSpend(t *testing.T) {
	// Different worker counts must redact to identical manifests.
	a := buildSample(t, 1)
	b := buildSample(t, 4)
	// The fake clock gives both builds identical durations, so force a
	// divergence to prove Redact removes it.
	a.WallMS = 123
	a.StartedAt = "2026-01-01T00:00:00Z"
	a.Units[0].DurMS = 99
	a.Units[3].Stages[0].DurMS = 42
	a.Units[3].Steps = 31337 // scheduling-dependent spend attribution
	a.Units[3].Annots = append(a.Units[3].Annots, Annot{Key: "truncated", Value: "2 path enumerations cut short"})
	a.Slowest = append(a.Slowest, SlowUnit{ID: "x"})
	a.Counters["seal_pdg_build_seconds_total"] = 9.9

	ra, err := a.Redact().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Redact().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatalf("redacted manifests differ:\n%s\nvs\n%s", ra, rb)
	}
	red := a.Redact()
	if red.StartedAt != "" || red.WallMS != 0 || red.Workers != 0 || red.Slowest != nil {
		t.Fatalf("redact left wall-clock fields: %+v", red)
	}
	for _, an := range red.Units[3].Annots {
		if an.Key == "truncated" {
			t.Fatal("redact kept a truncated annotation")
		}
	}
	if len(red.Units[0].Annots) != 1 || red.Units[0].Annots[0].Key != "degraded" {
		t.Fatalf("redact dropped semantic annotations: %+v", red.Units[0].Annots)
	}
	if red.Counters["seal_pdg_build_seconds_total"] != 0 {
		t.Fatal("redact left a _seconds counter")
	}
	if red.Counters["seal_solver_sat_checks_total"] != 12 {
		t.Fatal("redact dropped a deterministic counter")
	}
	// Original untouched (deep copy).
	if a.Units[0].DurMS != 99 || a.Units[3].Stages[0].DurMS != 42 {
		t.Fatal("Redact mutated its receiver")
	}
	// The PDG build counter (a resident substrate keeps its subgraphs), the
	// path-cache family (canonical-shape reuse is not single-flight, and a
	// resident substrate keeps its paths across requests) and the
	// persistent-cache counters (cold vs warm) are zeroed.
	if red.Counters["seal_pdg_builds_total"] != 0 {
		t.Fatal("redact left the PDG build counter")
	}
	if red.Counters["seal_path_cache_hits_total"] != 0 || red.Counters["seal_pcache_read_bytes_total"] != 0 {
		t.Fatalf("redact left volatile substrate or cache counters: %v", red.Counters)
	}
	if a.Counters["seal_path_cache_hits_total"] != 5 {
		t.Fatal("Redact mutated its receiver's counters")
	}
}

func TestVolatileMetric(t *testing.T) {
	for name, want := range map[string]bool{
		"seal_unit_duration_seconds_sum":  true,
		"seal_pdg_build_seconds_total":    true,
		"seal_pcache_hits_total":          true,
		"seal_pcache_corrupt_total":       true,
		"seal_pcache_read_bytes_total":    true,
		"seal_pcache_write_bytes_total":   true,
		"seal_solver_sat_memo_hits_total": true,
		"seal_path_cache_hits_total":      true,
		"seal_path_cache_hit_ratio":       true,
		"seal_path_enumerations_total":    true,
		"seal_truncations_total":          true,
		"seal_index_lookups_total":        true,
		"seal_solver_sat_checks_total":    false,
		"seal_pdg_builds_total":           true,
		"seal_pdg_ensure_calls_total":     true,
		"seal_detect_bugs_total":          false,
	} {
		if got := VolatileMetric(name); got != want {
			t.Errorf("VolatileMetric(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestRedactSubstrateDropsArrangementDependentFields(t *testing.T) {
	m := buildSample(t, 4)
	rs := m.RedactSubstrate()
	if rs.Counters != nil {
		t.Fatalf("substrate redact kept counters: %+v", rs)
	}
	for _, u := range rs.Units {
		if u.Steps != 0 || u.MemBytes != 0 || u.Stages != nil {
			t.Fatalf("substrate redact kept per-unit substrate fields: %+v", u)
		}
	}
	// Outcomes and identities must survive.
	if rs.Outcomes != m.Outcomes || len(rs.Units) != len(m.Units) {
		t.Fatal("substrate redact lost outcomes")
	}
	var nilM *Manifest
	if nilM.Redact() != nil || nilM.RedactSubstrate() != nil {
		t.Fatal("nil manifest redact not nil")
	}
}

func TestManifestWriteReadRoundTrip(t *testing.T) {
	m := buildSample(t, 2)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.MarshalIndent()
	b, _ := back.MarshalIndent()
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", a, b)
	}
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("reading a missing manifest succeeded")
	}
}

// lockedBuffer serializes writes so the progress goroutine and the test
// can share it under -race.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestProgressTicker(t *testing.T) {
	r := New()
	r.SetUnitsTotal(2)
	var buf lockedBuffer
	p := StartProgress(&buf, r, "detect", 10*time.Millisecond)
	r.Unit("detect", "a").End()
	d := r.Unit("detect", "b")
	d.SetOutcome(OutcomeDegraded, "step-budget")
	d.End()
	time.Sleep(35 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "seal: detect 2/2 units (1 degraded, 0 quarantined)") {
		t.Fatalf("progress output missing final state:\n%s", out)
	}
	if !strings.Contains(out, "done") {
		t.Fatalf("no final line:\n%s", out)
	}
	// Disabled forms.
	if StartProgress(&buf, nil, "x", time.Second) != nil {
		t.Fatal("nil recorder started a ticker")
	}
	if StartProgress(nil, r, "x", time.Second) != nil {
		t.Fatal("nil writer started a ticker")
	}
	var np *Progress
	np.Stop()
}
