package obs

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Manifest is the deterministic JSON record of one run: what ran, over
// which inputs, and how every unit of work ended. It is the run's
// provenance artifact — when inference or detection is budgeted and
// truncation-prone, the manifest is what makes a result auditable.
//
// Determinism contract: after Redact (which zeroes wall-clock fields and
// drops the duration-ordered sections), the manifest is byte-identical
// across worker counts and substrate arrangements for the same inputs.
type Manifest struct {
	Tool      string             `json:"tool"`
	Command   string             `json:"command"`
	StartedAt string             `json:"started_at,omitempty"` // RFC3339; redacted in goldens
	WallMS    float64            `json:"wall_ms"`              // redacted in goldens
	Workers   int                `json:"workers,omitempty"`
	Inputs    map[string]string  `json:"inputs,omitempty"` // flags and input paths
	Outcomes  OutcomeCounts      `json:"outcomes"`
	Counters  map[string]float64 `json:"counters,omitempty"` // registry snapshot
	Units     []UnitManifest     `json:"units"`              // sorted by (stage, id)
	// Slowest lists the top-K slowest units by duration — the "where did
	// the wall clock go" view. Duration-ordered, so dropped by Redact.
	Slowest []SlowUnit `json:"slowest_units,omitempty"`
	// Shards lists the per-shard spans of a coordinated multi-process run:
	// which worker executed which region groups and how the dispatch
	// ended. Deployment-shaped (addresses, wall clock, shard count), so
	// dropped by Redact — a sharded run's redacted manifest is comparable
	// against a single-process run's.
	Shards []ShardManifest `json:"shards,omitempty"`
}

// ShardManifest is one shard worker's span in a coordinated run.
type ShardManifest struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr,omitempty"`
	// Groups / Specs are the region groups and specs assigned to the shard.
	Groups int `json:"groups"`
	Specs  int `json:"specs"`
	// Outcome is "ok", "lost" (crashed/hung/unreachable after retries), or
	// "recovered" (lost, but every region group was re-executed on a
	// surviving worker under -reshard-on-loss).
	Outcome string `json:"outcome"`
	Reason  string `json:"reason,omitempty"`
	// Attempts counts dispatch tries (2 after a retry).
	Attempts int     `json:"attempts,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	Bugs     int     `json:"bugs"`
	// AttemptLog records every dispatch attempt with its failure reason —
	// not just the final verdict — so a shard-lost quarantine is
	// debuggable post-hoc.
	AttemptLog []ShardAttempt `json:"attempt_log,omitempty"`
	// Recovery lists this shard's re-shard-on-loss executions on surviving
	// workers, in deterministic (origin, target) order. Each entry's Shard
	// is the surviving slot that executed it, its Outcome "ok" or "lost"
	// (the recovery dispatch itself failed), and its Recovery empty.
	Recovery []ShardManifest `json:"recovery,omitempty"`
}

// ShardAttempt is one dispatch attempt against a worker.
type ShardAttempt struct {
	Attempt int    `json:"attempt"`
	Addr    string `json:"addr,omitempty"`
	// Outcome is "ok" or "failed".
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Probe carries the liveness diagnosis when the prober cut a hung
	// in-flight request.
	Probe string `json:"probe,omitempty"`
	// BackoffMS is the deterministic backoff slept before this attempt.
	BackoffMS float64 `json:"backoff_ms,omitempty"`
	WallMS    float64 `json:"wall_ms"`
}

// OutcomeCounts summarizes unit verdicts.
type OutcomeCounts struct {
	OK          int `json:"ok"`
	Degraded    int `json:"degraded"`
	Quarantined int `json:"quarantined"`
	Skipped     int `json:"skipped"`
}

// UnitManifest is one unit of work's outcome.
type UnitManifest struct {
	ID       string          `json:"id"`
	Stage    string          `json:"stage"`
	Outcome  string          `json:"outcome"`
	Reason   string          `json:"reason,omitempty"`
	DurMS    float64         `json:"dur_ms"` // redacted in goldens
	Steps    int64           `json:"steps,omitempty"`
	MemBytes int64           `json:"mem_bytes,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Specs    int             `json:"specs,omitempty"`
	Bugs     int             `json:"bugs,omitempty"`
	Stages   []StageManifest `json:"stages,omitempty"`
	Annots   []Annot         `json:"annotations,omitempty"`
}

// StageManifest is one pipeline stage inside a unit.
type StageManifest struct {
	Name  string  `json:"name"`
	DurMS float64 `json:"dur_ms"` // redacted in goldens
	Steps int64   `json:"steps,omitempty"`
}

// SlowUnit is one entry of the top-K slowest list.
type SlowUnit struct {
	ID    string  `json:"id"`
	Stage string  `json:"stage"`
	DurMS float64 `json:"dur_ms"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// BuildManifest assembles the manifest from the recorded run tree. topK
// bounds the slowest-units section (0 disables it). Nil recorder returns
// nil.
func (r *Recorder) BuildManifest(command string, workers int, inputs map[string]string, topK int) *Manifest {
	if r == nil {
		return nil
	}
	run := r.Run()
	run.End()
	m := &Manifest{
		Tool:      "seal",
		Command:   command,
		StartedAt: run.start.UTC().Format(time.RFC3339Nano),
		WallMS:    ms(run.Dur),
		Workers:   workers,
		Inputs:    inputs,
		Counters:  r.reg.Snapshot(),
	}
	for _, c := range run.Children() {
		if c.Kind != KindUnit {
			continue
		}
		u := UnitManifest{
			ID:       c.Name,
			Stage:    c.Stage,
			Outcome:  c.Outcome,
			Reason:   c.Reason,
			DurMS:    ms(c.Dur),
			Steps:    c.Steps,
			MemBytes: c.Mem,
			Attempts: c.Attempts,
			Specs:    c.Specs,
			Bugs:     c.Bugs,
			Annots:   c.Annots,
		}
		for _, st := range c.Children() {
			if st.Kind == KindStage {
				u.Stages = append(u.Stages, StageManifest{Name: st.Name, DurMS: ms(st.Dur), Steps: st.Steps})
			}
		}
		switch c.Outcome {
		case OutcomeDegraded:
			m.Outcomes.Degraded++
		case OutcomeQuarantined:
			m.Outcomes.Quarantined++
		case OutcomeSkipped:
			m.Outcomes.Skipped++
		default:
			m.Outcomes.OK++
		}
		m.Units = append(m.Units, u)
	}
	sort.Slice(m.Units, func(i, j int) bool {
		if m.Units[i].Stage != m.Units[j].Stage {
			return m.Units[i].Stage < m.Units[j].Stage
		}
		return m.Units[i].ID < m.Units[j].ID
	})
	if topK > 0 {
		byDur := make([]UnitManifest, len(m.Units))
		copy(byDur, m.Units)
		sort.Slice(byDur, func(i, j int) bool {
			if byDur[i].DurMS != byDur[j].DurMS {
				return byDur[i].DurMS > byDur[j].DurMS
			}
			return byDur[i].ID < byDur[j].ID
		})
		if len(byDur) > topK {
			byDur = byDur[:topK]
		}
		for _, u := range byDur {
			m.Slowest = append(m.Slowest, SlowUnit{ID: u.ID, Stage: u.Stage, DurMS: u.DurMS})
		}
	}
	return m
}

// ReplayUnit re-records one unit span from its manifest form — the
// coordinator's path for folding a shard worker's unit outcomes into the
// merged run manifest, and a warm run's for units replayed from the
// persistent cache. Durations and budget spend are not replayed (they
// are another process's wall clock; redaction zeroes them anyway), while
// identity, verdict, counts, attempts, stage structure, and annotations
// are — exactly the redaction-stable surface, so a merged manifest's units
// are indistinguishable from a single-process run's after Redact.
func (r *Recorder) ReplayUnit(u UnitManifest) {
	span := r.Unit(u.Stage, u.ID)
	if span == nil {
		return
	}
	if u.Attempts > 1 {
		span.SetAttempts(u.Attempts)
	}
	span.SetCounts(u.Specs, u.Bugs)
	for _, st := range u.Stages {
		span.AddStage(st.Name, 0, 0)
	}
	for _, a := range u.Annots {
		span.Annotate(a.Key, a.Value)
	}
	if u.Outcome != "" && u.Outcome != OutcomeOK {
		span.SetOutcome(u.Outcome, u.Reason)
	}
	span.End()
}

// Redact returns a deep copy normalized for golden comparison: the start
// timestamp, the worker count, wall-clock durations, every volatile
// counter (see VolatileMetric), and the per-unit budget spend are zeroed,
// the duration-ordered slowest-units section is dropped, and per-unit
// "truncated" annotations are removed. Spend and truncation attribution
// are normalized because under the shared single-flight caches they follow
// whichever worker computed a shared artifact first — scheduling, not
// semantics; likewise the in-run path-cache counters, which depend on
// scheduling (canonical-shape reuse is not single-flight, so with more
// than one worker two isomorphic regions can both miss) and on a resident
// substrate keeping its regions and paths across requests, the
// persistent-cache counters, which depend on cache temperature (cold vs
// warm), and the index-lookup and PDG counters, which kept substrates and
// replayed groups skip. Everything else — unit identities, outcomes,
// reasons, spec/bug counts, stage structure, solver checks — is preserved,
// which is exactly the set that must be deterministic across worker
// counts AND across cold/warm runs of the same inputs.
func (m *Manifest) Redact() *Manifest {
	if m == nil {
		return nil
	}
	out := *m
	out.StartedAt = ""
	out.WallMS = 0
	out.Workers = 0
	out.Slowest = nil
	out.Shards = nil
	if m.Counters != nil {
		out.Counters = make(map[string]float64, len(m.Counters))
		for k, v := range m.Counters {
			if VolatileMetric(k) {
				v = 0
			}
			out.Counters[k] = v
		}
	}
	out.Units = make([]UnitManifest, len(m.Units))
	for i, u := range m.Units {
		ru := u
		ru.DurMS = 0
		ru.Steps = 0
		ru.MemBytes = 0
		ru.Stages = make([]StageManifest, len(u.Stages))
		for j, st := range u.Stages {
			st.DurMS = 0
			st.Steps = 0
			ru.Stages[j] = st
		}
		ru.Annots = nil
		for _, a := range u.Annots {
			if a.Key != "truncated" {
				ru.Annots = append(ru.Annots, a)
			}
		}
		out.Units[i] = ru
	}
	return &out
}

// RedactSubstrate is Redact without the counters and the per-unit spend
// and stages: PDG build, path-cache and lookup counts depend on how work
// was arranged over substrates (one shared graph vs per-unit private
// graphs), so comparisons across those arrangements drop them. Unit
// outcomes, reasons, and result counts remain.
func (m *Manifest) RedactSubstrate() *Manifest {
	out := m.Redact()
	if out == nil {
		return nil
	}
	out.Counters = nil
	for i := range out.Units {
		out.Units[i].Steps = 0
		out.Units[i].MemBytes = 0
		out.Units[i].Stages = nil
	}
	return out
}

// VolatileMetric reports whether a metric is scheduling- or
// cache-temperature-dependent and therefore zeroed by the determinism
// normalizers (Redact, RedactTimings): wall-clock series ("_seconds"),
// persistent-cache counters (cold vs warm), solver-memo counters
// (cross-worker racing), the in-run path-cache family (canonical-shape
// reuse is not single-flight, so with more than one worker two isomorphic
// regions can both miss, and a resident substrate keeps its paths across
// requests), and index lookups and PDG ensure calls and builds (a resident
// substrate keeps its region closures and subgraphs across requests, and a
// warm run replays groups without either).
func VolatileMetric(name string) bool {
	if containsSeconds(name) {
		return true
	}
	if hasPrefix(name, "seal_pcache_") || hasPrefix(name, "seal_solver_sat_memo_") {
		return true
	}
	switch name {
	case "seal_path_cache_hits_total", "seal_path_cache_misses_total",
		"seal_path_cache_hit_ratio", "seal_path_enumerations_total",
		"seal_index_lookups_total", "seal_truncations_total",
		"seal_pdg_ensure_calls_total", "seal_pdg_builds_total":
		return true
	}
	return false
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

func containsSeconds(name string) bool {
	for i := 0; i+8 <= len(name); i++ {
		if name[i:i+8] == "_seconds" {
			return true
		}
	}
	return false
}

// MarshalIndent renders the manifest as stable, human-diffable JSON.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the manifest JSON to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
