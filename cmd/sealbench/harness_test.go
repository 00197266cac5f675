package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"seal/internal/eval"
	"seal/internal/kernelgen"
)

// sealBin is the seal binary the tests drive, built once by TestMain.
var sealBin string

func TestMain(m *testing.M) {
	if os.Getenv(spawnEnv) != "" {
		os.Exit(spawn(os.Args[1:])) // the test binary as a spawner
	}
	dir, err := os.MkdirTemp("", "sealbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := func() int {
		defer os.RemoveAll(dir)
		root, err := findRoot()
		if err == nil {
			sealBin, err = buildSeal(context.Background(), root, dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}()
	os.Exit(code)
}

// TestSmoke runs every workload at DefaultConfig size with ten loop
// iterations (one full block of the serve mix, so one /specs edit) and a
// one-op traced pass, so every byte-identity check, the serve daemon's
// lifecycle and each probe run under `go test`.
func TestSmoke(t *testing.T) {
	start := time.Now()
	p := plan{maxOps: 10, setups: 1, reps: 1, trace: true, small: true}
	var log bytes.Buffer
	res, err := measure(context.Background(), sealBin, t.TempDir(), environment{Seed: 7}, p, workloads, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("got %d workload results, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d/%d problems=%q", w.Workload, w.Correct, w.Failed, w.Attempted, w.Problems)
		}
		for trace, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			line, err := resultLine(w, trace)
			if err != nil {
				t.Fatalf("%s: %v", w.Workload, err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: result line %s: %v", w.Workload, line, err)
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Workload, trace, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s: metric %s = %+v", w.Workload, d.Name, m)
				}
			}
		}
		for _, name := range []string{"detect_p50_ms", "write_p50_ms", "setup_s", "recall", "precision"} {
			if w.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Workload, name, w.Metrics[name].Value)
			}
		}
		if len(w.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Workload)
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}

// TestScoreMatchesEval is the scorer's oracle: precision and recall scored
// from CLI output against groundtruth.json equal the in-process evaluation
// harness's figures for the same corpus.
func TestScoreMatchesEval(t *testing.T) {
	for _, cfg := range []kernelgen.Config{kernelgen.DefaultConfig(), kernelgen.EvalConfig()} {
		dir := t.TempDir()
		if err := kernelgen.Generate(cfg).WriteTo(dir); err != nil {
			t.Fatal(err)
		}
		c := cli{bin: sealBin}
		ctx := context.Background()
		if r := c.run(ctx, dir, "infer", "-patches", "patches", "-out", "specs.json"); r.err != nil {
			t.Fatal(r.err)
		}
		r := c.run(ctx, dir, "detect", "-target", "tree", "-specs", "specs.json")
		if r.err != nil {
			t.Fatal(r.err)
		}
		precision, recall, err := score(r.stdout, filepath.Join(dir, "groundtruth.json"))
		if err != nil {
			t.Fatal(err)
		}
		run, err := eval.NewRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if precision != run.Precision() || recall != run.Recall() {
			t.Errorf("seed %d: scorer precision=%v recall=%v, eval precision=%v recall=%v",
				cfg.Seed, precision, recall, run.Precision(), run.Recall())
		}
		if precision == 0 || recall == 0 {
			t.Errorf("seed %d: degenerate score precision=%v recall=%v", cfg.Seed, precision, recall)
		}
	}
}

// TestChildRSSIsTheChilds checks that a seal child's peak RSS is its own,
// not the benchmark's: the test process first grows far beyond what `seal
// help` needs, which a child started straight from it would report.
func TestChildRSSIsTheChilds(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("peak RSS is measured on Linux only")
	}
	ballast := make([]byte, 96<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	r := cli{bin: sealBin}.run(context.Background(), t.TempDir(), "help")
	runtime.KeepAlive(ballast)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rssMB <= 0 || r.rssMB > 48 {
		t.Errorf("seal help peak RSS %.1f MB, want (0, 48] with a 96 MB parent", r.rssMB)
	}
}

func TestReportedFuncs(t *testing.T) {
	out := "NPD in a_fn (x.c): msg (with parens) in it\nOOB in b_fn (y.c): m\n---\n2 reports over 3 specs\n"
	fns, err := reportedFuncs([]byte(out))
	if err != nil || strings.Join(fns, ",") != "a_fn,b_fn" {
		t.Errorf("got %q, %v", fns, err)
	}
	if fns, err := reportedFuncs([]byte("---\n0 reports over 3 specs\n")); err != nil || len(fns) != 0 {
		t.Errorf("empty report: got %q, %v", fns, err)
	}
	for _, bad := range []string{"no totals line\n", "garbage\n---\n1 reports\n"} {
		if _, err := reportedFuncs([]byte(bad)); err == nil {
			t.Errorf("%q: want an error", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the metric and workload tables here.
func TestBenchmarkJSONMatches(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, sealbench %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, sealbench %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "cmd/sealbench" {
		t.Errorf("run_seconds %d, paths %q", bj.RunSeconds, bj.Paths)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, detect float64) string {
		res := result{Workloads: []*workloadResult{{
			Workload: "cold-batch",
			Metrics: map[string]metricValue{
				"detect_p50_ms": {Value: detect, Q1: detect * 0.99, Q3: detect * 1.01},
				"recall":        {Value: 1, Q1: 1, Q3: 1},
			},
		}}}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 200), write("b.json", 204), write("c.json", 260)
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", a, same}, &out, &errOut); code != 0 || !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("same code: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"compare", a, slow}, &out, &errOut); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("slower candidate: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	// Sets of runs: median and quartiles across the files.
	if code := run([]string{"compare", a + "," + same + "," + a, same}, &out, &errOut); code != 0 {
		t.Errorf("sets of runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
