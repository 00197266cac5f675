package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seal/internal/kernelgen"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// instances is kernelgen's Instances (subsystem instances per bug
	// family) at full size; every other corpus knob is EvalConfig's.
	instances int
	// storeBacked detection reads a paged spec store (-spec-db) and runs
	// with workers detection workers.
	storeBacked bool
	workers     int
	// setup prepares one fresh instance in the empty directory dir, over
	// the reference corpus.
	setup func(ctx context.Context, b *bench, w *workload, dir string, ref *reference) (session, error)
}

var workloads = []*workload{
	{
		name:      "cold-batch",
		why:       "seal infer then seal detect -specs, no cache: every analysis layer does its full work on every op",
		instances: 10, workers: 1,
		setup: setupBatch(false),
	},
	{
		name:      "warm-batch",
		why:       "the same ops with a filled -cache-dir: analysis is bypassed, cache read, hashing, render and process start remain",
		instances: 10, workers: 1,
		setup: setupBatch(true),
	},
	{
		name:      "serve-mixed",
		why:       "resident seal serve -spec-db, 2 closed-loop clients, 90% POST /detect and 10% one-spec POST /specs edits",
		instances: 10, workers: 1,
		setup: setupServe,
	},
	{
		name:      "store-large",
		why:       "twice the program: seal infer, then seal detect -spec-db -workers 2 on an imported store, the store-backed grouped path",
		instances: 20, storeBacked: true, workers: 2,
		setup: setupStore,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plan sizes one benchmark run.
type plan struct {
	seconds int  // timed-loop length; 0 = no time limit
	maxOps  int  // cap on timed-loop iterations; 0 = none
	setups  int  // fresh set-ups timed for setup_s
	reps    int  // ops per step of the traced pass
	trace   bool // run the traced pass after the timed loop
	small   bool // DefaultConfig-sized corpora, for tests
}

// bench is one benchmark run's shared state.
type bench struct {
	cli  cli
	seed int64
	plan plan
	work string // scratch directory of this run
	tr   *tracer
}

// config is the kernelgen configuration of w's corpus.
func (b *bench) config(w *workload) kernelgen.Config {
	cfg := kernelgen.EvalConfig()
	cfg.Instances = w.instances
	if b.plan.small {
		cfg = kernelgen.DefaultConfig()
		cfg.Instances = w.instances / 10
	}
	cfg.Seed = b.seed
	return cfg
}

// reference is a run's corpus and the cold CLI output every op is checked
// against: `seal infer` and `seal detect -specs -workers 1`, no cache.
// The corpus is written once per run, so set-up times measure seal and
// not the file system's file creation.
type reference struct {
	dir       string // tree/, patches/, groundtruth.json, specs.json
	corpus    *kernelgen.Corpus
	specs     []byte // the specs.json `seal infer` wrote
	report    []byte // `seal detect` stdout
	nSpecs    int
	precision float64
	recall    float64
}

// path is a file of the reference directory, absolute.
func (r *reference) path(name string) string { return filepath.Join(r.dir, name) }

func (b *bench) reference(ctx context.Context, w *workload) (*reference, error) {
	dir, err := filepath.Abs(filepath.Join(b.work, "ref"))
	if err != nil {
		return nil, err
	}
	c := kernelgen.Generate(b.config(w))
	if err := c.WriteTo(dir); err != nil {
		return nil, err
	}
	if r := b.cli.run(ctx, dir, "infer", "-patches", "patches", "-out", "specs.json", "-workers", "1"); r.err != nil {
		return nil, r.err
	}
	specs, err := os.ReadFile(filepath.Join(dir, "specs.json"))
	if err != nil {
		return nil, err
	}
	r := b.cli.run(ctx, dir, "detect", "-target", "tree", "-specs", "specs.json", "-workers", "1")
	if r.err != nil {
		return nil, r.err
	}
	ref := &reference{dir: dir, corpus: c, specs: specs, report: r.stdout}
	if ref.nSpecs, err = countSpecs(specs); err != nil {
		return nil, err
	}
	ref.precision, ref.recall, err = score(r.stdout, filepath.Join(dir, "groundtruth.json"))
	return ref, err
}

// session is one set-up workload, ready to run ops.
type session interface {
	// loop runs ops until the deadline (zero = none) or until maxOps loop
	// iterations (0 = no cap), recording them in st.
	loop(ctx context.Context, until time.Time, maxOps int, st *samples)
	// traced runs n iterations with the program's instruments on and
	// returns the detect ops.
	traced(ctx context.Context, n int, st *samples) []tracedOp
	// store is the session's spec store file, "" when it has none.
	store() string
	// close stops the session's processes, waits for them, and returns
	// their peak RSS in MB. Safe to call twice.
	close() float64
}

// Op kinds.
const (
	opDetect = "detect"
	opWrite  = "write"
)

// timedOp is a successful op waiting for the calibration that follows it.
type timedOp struct {
	kind string
	ms   float64
}

// samples collects a loop's per-op outcomes. Safe for concurrent use.
type samples struct {
	mu        sync.Mutex
	pending   []timedOp            // successful ops since the last settle
	raw       map[string][]float64 // settled op wall times, ms, by kind
	ref       map[string][]float64 // the same at reference speed
	cal       []float64            // calibration times, ms
	refSecs   float64              // settled loop time at reference speed
	attempted int
	failed    int
	problems  []string // the first few failures
	rssMB     float64
}

// add records one op. A failed op (err or a non-empty problem) counts
// against the run and contributes no latency; a successful one waits in
// pending for settle.
func (s *samples) add(kind string, ms, rssMB float64, err error, problem string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if rssMB > s.rssMB {
		s.rssMB = rssMB
	}
	if err != nil && problem == "" {
		problem = err.Error()
	}
	if problem != "" {
		s.failed++
		if len(s.problems) < 5 {
			s.problems = append(s.problems, kind+": "+problem)
		}
		return
	}
	s.pending = append(s.pending, timedOp{kind, ms})
}

// settle runs the calibration and files the pending ops, and the loop time
// since the last settle, at reference speed. The box's speed over that
// stretch is taken from the mean of the calibrations on either side of it.
// Call settle between ops, with no op in flight.
func (s *samples) settle(since time.Time) {
	wall := time.Since(since).Seconds()
	c := calibrate()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.raw == nil {
		s.raw, s.ref = map[string][]float64{}, map[string][]float64{}
	}
	f := calRefMS / c
	if n := len(s.cal); n > 0 {
		f = calRefMS / ((s.cal[n-1] + c) / 2)
	}
	for _, op := range s.pending {
		s.raw[op.kind] = append(s.raw[op.kind], op.ms)
		s.ref[op.kind] = append(s.ref[op.kind], op.ms*f)
	}
	s.pending = nil
	s.cal = append(s.cal, c)
	s.refSecs += wall * f
}

// keepGoing reports whether a loop with deadline until and cap maxOps may
// start iteration i.
func keepGoing(ctx context.Context, until time.Time, maxOps, i int) bool {
	return ctx.Err() == nil && (maxOps == 0 || i < maxOps) && (until.IsZero() || time.Now().Before(until))
}

// sameBytes describes a mismatch against the reference, "" when equal.
func sameBytes(what string, got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	return fmt.Sprintf("%s differs from the cold reference (%d vs %d bytes)", what, len(got), len(want))
}
