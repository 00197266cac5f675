package main

import (
	"time"
)

// Span sources: how a span's interval was obtained.
const (
	// srcBench spans were timed by sealbench around its own call.
	srcBench = "bench"
	// srcManifest spans come from the program's run manifest: the run span
	// at its recorded start, unit spans with their recorded durations laid
	// out one after another per worker (the manifest records no unit start).
	srcManifest = "manifest"
	// srcProbe spans carry the median duration of an in-process probe of
	// the same layer on the same inputs, laid out at the start of the run
	// they estimate; the program has no span of its own there yet.
	srcProbe = "probe"
)

// span is one recorded interval. Spans of one op share Op; Parent is the
// enclosing span's ID (0 for an op's root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the tracer started
	EndMS   float64 `json:"end_ms"`
	Source  string  `json:"source"`
}

// tracer keeps one workload's spans in memory until the run ends. Not safe
// for concurrent use: the traced pass is sequential.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts a new op id.
func (t *tracer) op() int {
	t.ops++
	return t.ops
}

// add records a span and returns its id.
func (t *tracer) add(op, parent int, name, source string, start time.Time, dur time.Duration) int {
	s := span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Source: source,
		StartMS: msSince(t.t0, start),
		EndMS:   msSince(t.t0, start.Add(dur)),
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// measure runs fn inside a bench span and returns its duration in ms.
func (t *tracer) measure(op, parent int, name string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.add(op, parent, name, srcBench, start, d)
	return float64(d.Nanoseconds()) / 1e6, err
}

func msSince(t0, t time.Time) float64 { return float64(t.Sub(t0).Nanoseconds()) / 1e6 }

func msDur(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// addRun records a run manifest under parent: the run span at its recorded
// start, its units laid out per worker lane from at (where the units
// began), and the report render at the run's end.
func (t *tracer) addRun(op, parent int, man *runManifest, at time.Time) {
	run := t.add(op, parent, "seal.run", srcManifest, man.StartedAt, msDur(man.WallMS))
	lanes := make([]time.Time, max(1, man.Workers))
	for i := range lanes {
		lanes[i] = at
	}
	for i, u := range man.Units {
		l := i % len(lanes)
		t.add(op, run, man.Command+".unit:"+u.ID, srcManifest, lanes[l], msDur(u.DurMS))
		lanes[l] = lanes[l].Add(msDur(u.DurMS))
	}
	if r := man.renderMS(); r > 0 {
		end := man.StartedAt.Add(msDur(man.WallMS))
		t.add(op, run, "report.render", srcManifest, end.Add(-msDur(r)), msDur(r))
	}
}
