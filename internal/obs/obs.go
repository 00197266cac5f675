// Package obs is the pipeline's observability substrate: hierarchical
// spans (run → patch → stage, run → region-group → stage) with
// monotonic-clock durations and budget-spend deltas, a typed
// counter/gauge/histogram registry exportable as Prometheus text, a JSON
// run manifest recording inputs and per-unit outcomes, a stderr progress
// ticker for long corpus runs, and pprof goroutine-label helpers.
//
// The package is zero-dependency (stdlib only) and every entry point is
// nil-receiver-safe: a nil *Recorder, *Span, *Counter, … is the disabled
// instrument, so call sites on hot paths pay a single pointer check and
// never a clock read when observability is off.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds.
const (
	KindRun   = "run"
	KindUnit  = "unit"
	KindStage = "stage"
)

// Unit outcomes, in manifest vocabulary.
const (
	OutcomeOK          = "ok"
	OutcomeDegraded    = "degraded"
	OutcomeQuarantined = "quarantined"
	OutcomeSkipped     = "skipped"
)

// Recorder is the root of one observed run. Create with New, thread
// through the pipeline, then export with BuildManifest and the Registry's
// WritePrometheus. A nil *Recorder disables everything.
type Recorder struct {
	mu    sync.Mutex
	clock func() time.Time
	reg   *Registry
	run   *Span

	unitsTotal  atomic.Int64
	unitsDone   atomic.Int64
	degraded    atomic.Int64
	quarantined atomic.Int64
}

// New creates a live recorder using the real monotonic clock.
func New() *Recorder { return NewWithClock(time.Now) }

// NewWithClock creates a recorder with an injected clock (tests pin
// durations with a fake clock; production uses New).
func NewWithClock(clock func() time.Time) *Recorder {
	if clock == nil {
		clock = time.Now
	}
	return &Recorder{clock: clock, reg: NewRegistry()}
}

// Enabled reports whether the recorder is live.
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the recorder's metric registry (nil when disabled; a
// nil *Registry hands out nil instruments, which are no-ops).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// StartRun opens the root span. Command names the CLI verb or API entry
// point ("infer", "detect"). Calling StartRun twice replaces the root.
func (r *Recorder) StartRun(command string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, Kind: KindRun, Name: command, start: r.clock()}
	r.mu.Lock()
	r.run = s
	r.mu.Unlock()
	return s
}

// Run returns the current root span, opening an unnamed one on first use
// so library-level instrumentation works without a CLI in front of it.
// The check and the open happen under one lock: concurrent first units
// must all land under the same root.
func (r *Recorder) Run() *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.run == nil {
		r.run = &Span{rec: r, Kind: KindRun, Name: "run", start: r.clock()}
	}
	return r.run
}

// Unit opens a unit span (one patch, one detection region group) under the
// current run. Safe to call from concurrent workers.
func (r *Recorder) Unit(stage, id string) *Span {
	if r == nil {
		return nil
	}
	return r.Run().child(KindUnit, id, stage)
}

// SetUnitsTotal sets the progress denominator.
func (r *Recorder) SetUnitsTotal(n int) {
	if r != nil {
		r.unitsTotal.Store(int64(n))
	}
}

// Progress returns (done, total, degraded, quarantined) for tickers.
func (r *Recorder) Progress() (done, total, degraded, quarantined int64) {
	if r == nil {
		return 0, 0, 0, 0
	}
	return r.unitsDone.Load(), r.unitsTotal.Load(), r.degraded.Load(), r.quarantined.Load()
}

// Annot is one key/value annotation on a span (truncation notes,
// degradation reasons, retry markers).
type Annot struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed node of the run hierarchy. Durations come from the
// recorder's monotonic clock; Steps/Mem are budget-spend deltas the
// instrumentation sites attach. All methods are nil-safe.
type Span struct {
	rec    *Recorder
	parent *Span

	Kind  string // KindRun | KindUnit | KindStage
	Name  string // command, unit id, or stage name
	Stage string // pipeline stage of a unit ("infer", "detect")

	start time.Time
	ended bool
	Dur   time.Duration

	// Steps / Mem are the unit-budget spend deltas attributed to this span.
	Steps int64
	Mem   int64

	// Unit verdict fields (Kind == KindUnit).
	Outcome  string
	Reason   string
	Attempts int
	Specs    int
	Bugs     int

	Annots   []Annot
	children []*Span
}

// child creates and registers a sub-span.
func (s *Span) child(kind, name, stage string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{rec: s.rec, parent: s, Kind: kind, Name: name, Stage: stage, start: s.rec.clock()}
	s.rec.mu.Lock()
	s.children = append(s.children, c)
	s.rec.mu.Unlock()
	return c
}

// StartStage opens a stage span under this span.
func (s *Span) StartStage(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(KindStage, name, "")
}

// End closes the span, fixing its duration. Idempotent; a unit span with
// no outcome yet is marked ok and counted toward run progress.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Dur = s.rec.clock().Sub(s.start)
	if s.Kind == KindUnit {
		if s.Outcome == "" {
			s.Outcome = OutcomeOK
		}
		s.rec.unitsDone.Add(1)
		switch s.Outcome {
		case OutcomeDegraded:
			s.rec.degraded.Add(1)
		case OutcomeQuarantined:
			s.rec.quarantined.Add(1)
		}
	}
}

// EndWithSpend is End plus the unit-budget spend attribution.
func (s *Span) EndWithSpend(steps, mem int64) {
	if s == nil {
		return
	}
	s.Steps, s.Mem = steps, mem
	s.End()
}

// AddStage records an already-measured stage (accumulated clocks such as
// the detector's slice/solve timers) as a closed child span.
func (s *Span) AddStage(name string, d time.Duration, steps int64) {
	if s == nil {
		return
	}
	c := s.child(KindStage, name, "")
	c.ended = true
	c.Dur = d
	c.Steps = steps
}

// SetOutcome sets the unit verdict (ok/degraded/quarantined/skipped) and
// the machine-readable reason.
func (s *Span) SetOutcome(outcome, reason string) {
	if s == nil {
		return
	}
	s.Outcome, s.Reason = outcome, reason
}

// SetCounts attaches the unit's result sizes (specs inferred or checked,
// bugs reported).
func (s *Span) SetCounts(specs, bugs int) {
	if s == nil {
		return
	}
	s.Specs, s.Bugs = specs, bugs
}

// SetAttempts records how many times the unit was tried (2 after a
// halved-budget retry).
func (s *Span) SetAttempts(n int) {
	if s == nil {
		return
	}
	s.Attempts = n
}

// Annotate appends a key/value annotation (truncations, degradations).
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.Annots = append(s.Annots, Annot{Key: key, Value: value})
	s.rec.mu.Unlock()
}

// Children returns the recorded sub-spans (a copy, safe to range while
// workers still record).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.rec.mu.Lock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	s.rec.mu.Unlock()
	return out
}
