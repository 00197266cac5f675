package obs

import (
	"context"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// fakeClock yields a monotonically advancing fake time, stepping by step
// on every reading, so span durations are pinned and deterministic.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func TestNilRecorderIsFullyDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Registry() != nil {
		t.Fatal("nil recorder has a registry")
	}
	// Every call below must be a no-op, not a panic.
	run := r.StartRun("infer")
	run.End()
	u := r.Unit("infer", "p1")
	u.StartStage("parse").End()
	u.SetOutcome(OutcomeDegraded, "step-budget")
	u.SetCounts(1, 2)
	u.SetAttempts(2)
	u.Annotate("k", "v")
	u.AddStage("slice", time.Second, 3)
	u.EndWithSpend(10, 20)
	if got := u.Children(); got != nil {
		t.Fatalf("nil span children = %v", got)
	}
	r.SetUnitsTotal(5)
	if d, tot, deg, q := r.Progress(); d+tot+deg+q != 0 {
		t.Fatal("nil recorder has progress")
	}
	if r.BuildManifest("infer", 1, nil, 5) != nil {
		t.Fatal("nil recorder built a manifest")
	}
	if r.Run() != nil {
		t.Fatal("nil recorder returned a run span")
	}
}

func TestSpanHierarchyAndDurations(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	r := NewWithClock(clk.Now)
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	run := r.StartRun("detect")
	u := r.Unit("detect", "iface:ops.prepare")
	st := u.StartStage("slice")
	st.End()
	if st.Dur <= 0 {
		t.Fatalf("stage duration = %v, want > 0", st.Dur)
	}
	u.SetCounts(3, 1)
	u.SetAttempts(2)
	u.Annotate("truncated", "path-cap")
	u.EndWithSpend(42, 1024)
	if u.Outcome != OutcomeOK {
		t.Fatalf("outcome = %q, want ok default", u.Outcome)
	}
	if u.Steps != 42 || u.Mem != 1024 {
		t.Fatalf("spend = %d/%d, want 42/1024", u.Steps, u.Mem)
	}
	run.End()
	kids := run.Children()
	if len(kids) != 1 || kids[0] != u {
		t.Fatalf("run children = %v", kids)
	}
	if got := u.Children(); len(got) != 1 || got[0].Name != "slice" {
		t.Fatalf("unit children = %v", got)
	}
	// End is idempotent: duration must not change.
	d := run.Dur
	run.End()
	if run.Dur != d {
		t.Fatal("second End changed the duration")
	}
}

func TestRunAutoStarts(t *testing.T) {
	r := New()
	run := r.Run()
	if run == nil || run.Name != "run" {
		t.Fatalf("auto run = %+v", run)
	}
	if r.Run() != run {
		t.Fatal("Run is not stable")
	}
	named := r.StartRun("eval")
	if r.Run() != named {
		t.Fatal("StartRun did not replace the root")
	}
}

func TestProgressCounters(t *testing.T) {
	r := New()
	r.SetUnitsTotal(3)
	r.Unit("infer", "a").End()
	b := r.Unit("infer", "b")
	b.SetOutcome(OutcomeDegraded, "step-budget")
	b.End()
	c := r.Unit("infer", "c")
	c.SetOutcome(OutcomeQuarantined, "panic")
	c.End()
	done, total, deg, quar := r.Progress()
	if done != 3 || total != 3 || deg != 1 || quar != 1 {
		t.Fatalf("progress = %d/%d deg=%d quar=%d", done, total, deg, quar)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	// Span/counter recording from many goroutines must be race-free; run
	// under -race in CI.
	r := New()
	r.StartRun("detect")
	reg := r.Registry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u := r.Unit("detect", "unit")
				u.StartStage("slice").End()
				u.Annotate("k", "v")
				u.EndWithSpend(int64(i), 0)
				reg.Counter("seal_test_total", "").Inc()
				reg.Gauge("seal_test_gauge", "").Set(float64(i))
				reg.Histogram("seal_test_seconds", "", nil).Observe(float64(i) / 100)
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("seal_test_total", "").Value(); got != 400 {
		t.Fatalf("counter = %d, want 400", got)
	}
	if got := len(r.Run().Children()); got != 400 {
		t.Fatalf("recorded %d unit spans, want 400", got)
	}
	m := r.BuildManifest("detect", 8, nil, 3)
	if m.Outcomes.OK != 400 {
		t.Fatalf("manifest ok = %d, want 400", m.Outcomes.OK)
	}
	if len(m.Slowest) != 3 {
		t.Fatalf("slowest = %d entries, want 3", len(m.Slowest))
	}
}

func TestWithUnitLabels(t *testing.T) {
	var stage, unit string
	WithUnitLabels(nil, "detect", "iface:ops.prepare", func(ctx context.Context) {
		stage, _ = pprof.Label(ctx, "seal_stage")
		unit, _ = pprof.Label(ctx, "seal_unit")
	})
	if stage != "detect" || unit != "iface:ops.prepare" {
		t.Fatalf("labels = %q/%q", stage, unit)
	}
}

// TestConcurrentFirstUnitsShareOneRun opens the first unit spans of a
// recorder with no run yet from many goroutines at once: every span must
// land under one implicit root, so the manifest counts all of them.
func TestConcurrentFirstUnitsShareOneRun(t *testing.T) {
	const n = 32
	for round := 0; round < 20; round++ {
		rec := New()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				rec.Unit("detect", string(rune('a'+i))).End()
			}(i)
		}
		close(start)
		wg.Wait()
		if m := rec.BuildManifest("detect", 1, nil, 0); len(m.Units) != n {
			t.Fatalf("round %d: manifest holds %d of %d concurrently opened units", round, len(m.Units), n)
		}
	}
}
