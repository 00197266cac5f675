package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// batchSession drives the seal CLI, one child process per op:
// cold-batch, warm-batch and store-large. Ops read the reference corpus
// and write into the session's own directory.
type batchSession struct {
	b    *bench
	dir  string // this set-up's outputs: specs, cache, stores
	ref  *reference
	warm bool // -cache-dir on every op
	// storeBacked detection reads the spec store the set-up imported
	// (-spec-db store.db); otherwise the specs the last infer wrote.
	storeBacked bool
	wk          int // detect workers
}

// setupBatch runs one (infer, detect) pair, checked against the reference:
// the first ops of a fresh session, which for the warm variant also fill
// its cache.
func setupBatch(warm bool) func(context.Context, *bench, *workload, string, *reference) (session, error) {
	return func(ctx context.Context, b *bench, w *workload, dir string, ref *reference) (session, error) {
		s := &batchSession{b: b, dir: dir, ref: ref, warm: warm, wk: w.workers}
		for _, op := range []func(context.Context, ...string) (opResult, string){s.write, s.detect} {
			if r, problem := op(ctx); r.err != nil || problem != "" {
				return nil, fmt.Errorf("first ops: %v %s", r.err, problem)
			}
		}
		return s, nil
	}
}

// setupStore infers the specs, checked against the reference, and imports
// them into the paged spec store every detect of the session reads.
func setupStore(ctx context.Context, b *bench, w *workload, dir string, ref *reference) (session, error) {
	s := &batchSession{b: b, dir: dir, ref: ref, storeBacked: true, wk: w.workers}
	if r, problem := s.write(ctx); r.err != nil || problem != "" {
		return nil, fmt.Errorf("infer: %v %s", r.err, problem)
	}
	if err := importSpecs(ctx, b, dir, "loop-specs.json", "store.db", ref); err != nil {
		return nil, err
	}
	return s, nil
}

// importSpecs runs `seal specdb -db DB -import SPECS` in dir and checks that
// every reference spec was added.
func importSpecs(ctx context.Context, b *bench, dir, specs, db string, ref *reference) error {
	r := b.cli.run(ctx, dir, "specdb", "-db", db, "-import", specs)
	if r.err != nil {
		return r.err
	}
	want := fmt.Sprintf("imported %d specs into %s (0 already present)\n", ref.nSpecs, db)
	if string(r.stdout) != want {
		return fmt.Errorf("specdb import printed %q, want %q", r.stdout, want)
	}
	return nil
}

func (s *batchSession) cacheArgs() []string {
	if s.warm {
		return []string{"-cache-dir", "cache"}
	}
	return nil
}

// write runs the op that produces the specs: `seal infer` over the patches.
func (s *batchSession) write(ctx context.Context, extra ...string) (opResult, string) {
	args := append([]string{"infer", "-patches", s.ref.path("patches"), "-out", "loop-specs.json", "-workers", "1"}, s.cacheArgs()...)
	r := s.b.cli.run(ctx, s.dir, append(args, extra...)...)
	if r.err != nil {
		return r, ""
	}
	got, err := os.ReadFile(filepath.Join(s.dir, "loop-specs.json"))
	if err != nil {
		return r, err.Error()
	}
	return r, sameBytes("infer specs.json", got, s.ref.specs)
}

// detect runs `seal detect` on the session's spec store, or on the specs
// the last write produced.
func (s *batchSession) detect(ctx context.Context, extra ...string) (opResult, string) {
	args := []string{"detect", "-target", s.ref.path("tree"), "-workers", strconv.Itoa(s.wk)}
	if s.storeBacked {
		args = append(args, "-spec-db", "store.db")
	} else {
		args = append(args, "-specs", "loop-specs.json")
	}
	args = append(append(args, s.cacheArgs()...), extra...)
	r := s.b.cli.run(ctx, s.dir, args...)
	if r.err != nil {
		return r, ""
	}
	return r, sameBytes("detect stdout", r.stdout, s.ref.report)
}

// loop runs (write, detect) pairs, calibrating after each.
func (s *batchSession) loop(ctx context.Context, until time.Time, maxOps int, st *samples) {
	for i := 0; keepGoing(ctx, until, maxOps, i); i++ {
		start := time.Now()
		r, problem := s.write(ctx)
		st.add(opWrite, r.ms(), r.rssMB, r.err, problem)
		r, problem = s.detect(ctx)
		st.add(opDetect, r.ms(), r.rssMB, r.err, problem)
		st.settle(start)
	}
}

// traced repeats the loop's (write, detect) pair n times with -manifest-out
// and -metrics-out on both, and -stats on detect.
func (s *batchSession) traced(ctx context.Context, n int, st *samples) []tracedOp {
	var ops []tracedOp
	obs := func(tag string, i int) (string, []string) {
		base := filepath.Join(s.dir, fmt.Sprintf("traced-%s-%d", tag, i))
		return base + ".manifest.json", []string{"-manifest-out", base + ".manifest.json", "-metrics-out", base + ".prom"}
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		_, wargs := obs("write", i)
		r, problem := s.write(ctx, wargs...)
		st.add(opWrite, r.ms(), r.rssMB, r.err, problem)
		manifest, dargs := obs("detect", i)
		r, problem = s.detect(ctx, append(dargs, "-stats")...)
		op := tracedOp{start: r.start, wall: r.ms(), respBytes: len(r.stdout), cli: true, workers: s.wk}
		if r.err == nil && problem == "" {
			if err := readJSON(manifest, &op.man); err != nil {
				problem = err.Error()
			}
		}
		st.add(opDetect, r.ms(), r.rssMB, r.err, problem)
		if r.err == nil && problem == "" {
			op.grouped = parseGrouped(r.stderr)
			ops = append(ops, op)
		}
	}
	return ops
}

func (s *batchSession) store() string {
	if s.storeBacked {
		return filepath.Join(s.dir, "store.db")
	}
	return ""
}

func (s *batchSession) close() float64 { return 0 }

// countSpecs counts the specs of a specs.json.
func countSpecs(data []byte) (int, error) {
	var db struct {
		Specs []json.RawMessage `json:"specs"`
	}
	if err := json.Unmarshal(data, &db); err != nil {
		return 0, fmt.Errorf("specs.json: %w", err)
	}
	return len(db.Specs), nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

var groupedLine = regexp.MustCompile(`grouped: (\d+) region groups, (\d+) warm, (\d+) computed`)

// parseGrouped reads the grouped-path line `seal detect -spec-db -stats`
// prints to stderr; nil when absent (the flat path prints none).
func parseGrouped(stderr []byte) *groupedStats {
	m := groupedLine.FindSubmatch(stderr)
	if m == nil {
		return nil
	}
	atoi := func(b []byte) int { n, _ := strconv.Atoi(string(b)); return n }
	return &groupedStats{Groups: atoi(m[1]), Warm: atoi(m[2]), Computed: atoi(m[3])}
}
