package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// metricValue is one reported figure with the samples behind it: for a
// timing, the quartiles of its per-op samples (or of the set-ups, for
// setup_s); a figure with one sample is its own quartiles.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// N and TailRank give, per op kind of the timed loop, the sample count
	// and the 1-based rank of the sample reported as its tail.
	N        map[string]int         `json:"n"`
	TailRank map[string]int         `json:"tail_rank"`
	Metrics  map[string]metricValue `json:"metrics"`
	Layers   map[string]float64     `json:"layers,omitempty"`
	// Samples are the timed loop's successful op latencies in ms at
	// reference speed, in completion order, by op kind; "<kind>_raw" are
	// the same ops' wall times and "calibration" the calibration times.
	Samples map[string][]float64 `json:"samples"`
	spans   []span
}

// environment records where and how a result was measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Commit     string `json:"commit,omitempty"`
}

// result is what -out receives.
type result struct {
	Environment environment       `json:"environment"`
	Correct     bool              `json:"correct"`
	Workloads   []*workloadResult `json:"workloads"`
}

func newEnvironment(root string, seed int64, seconds int) environment {
	return environment{
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Commit: gitCommit(root),
	}
}

// gitCommit reads HEAD's commit from root/.git without running git; "" when
// the tree is not a plain git checkout.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// p50 is the median, 0 for no samples (JSON has no NaN).
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// tailOf is the tail sample, 0 for no samples.
func tailOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return tail(xs)
}

// summarize builds a metric from its value and the samples behind it.
func summarize(name string, value float64, xs []float64) metricValue {
	def, _ := metricByName(name)
	mv := metricValue{Value: value, Unit: def.Unit, N: max(1, len(xs)), Q1: value, Q3: value}
	if len(xs) > 0 {
		mv.Q1, mv.Q3 = quartiles(xs)
	}
	return mv
}

// runWorkload measures one workload: the cold reference, plan.setups fresh
// set-ups (the last one serves the timed loop), the timed loop, and the
// traced pass.
func (b *bench) runWorkload(ctx context.Context, w *workload) (*workloadResult, error) {
	b.tr = newTracer()
	ref, err := b.reference(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", w.name, err)
	}
	var setups, rawSetups []float64
	var sess session
	defer func() {
		if sess != nil {
			sess.close()
		}
	}()
	for i := 0; i < b.plan.setups; i++ {
		if sess != nil {
			sess.close() // a superseded set-up stops before the next one starts
		}
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		s, err := w.setup(ctx, b, w, dir, ref)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		raw := time.Since(start).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*calRefMS/calibrate())
		sess = s
	}

	st := &samples{}
	var until time.Time
	if b.plan.seconds > 0 {
		until = time.Now().Add(time.Duration(b.plan.seconds) * time.Second)
	}
	sess.loop(ctx, until, b.plan.maxOps, st)
	// The traced pass adds its ops to st for the failure count only: the
	// latencies and the children's peak RSS are the timed loop's.
	detect, write, loopRSS := st.ref[opDetect], st.ref[opWrite], st.rssMB

	var layers map[string]float64
	if b.plan.trace {
		if layers, err = b.tracePass(ctx, w, sess, ref, st, p50(st.raw[opDetect])); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		layers["bench.calibration_ms"] = p50(st.cal)
		layers["bench.raw_setup_s"] = p50(rawSetups)
		layers["bench.raw_detect_p50_ms"] = p50(st.raw[opDetect])
		layers["bench.raw_write_p50_ms"] = p50(st.raw[opWrite])
	}
	rss := math.Max(loopRSS, sess.close())
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &workloadResult{
		Workload:  w.name,
		Attempted: st.attempted,
		Failed:    st.failed,
		Problems:  st.problems,
		N:         map[string]int{opDetect: len(detect), opWrite: len(write)},
		TailRank:  map[string]int{opDetect: tailRank(len(detect)), opWrite: tailRank(len(write))},
		Layers:    layers,
		Samples: map[string][]float64{
			opDetect: detect, opWrite: write,
			opDetect + "_raw": st.raw[opDetect], opWrite + "_raw": st.raw[opWrite],
			"calibration": st.cal,
		},
		spans: b.tr.spans,
	}
	res.Correct = st.failed == 0 && len(detect) > 0 && len(write) > 0 && ref.precision > 0 && ref.recall > 0
	res.Metrics = map[string]metricValue{
		"setup_s":        summarize("setup_s", p50(setups), setups),
		"detect_p50_ms":  summarize("detect_p50_ms", p50(detect), detect),
		"detect_tail_ms": summarize("detect_tail_ms", tailOf(detect), detect),
		"write_p50_ms":   summarize("write_p50_ms", p50(write), write),
		"write_tail_ms":  summarize("write_tail_ms", tailOf(write), write),
		"detect_per_s":   summarize("detect_per_s", ratio(float64(len(detect)), st.refSecs), nil),
		"peak_rss_mb":    summarize("peak_rss_mb", rss, nil),
		"recall":         summarize("recall", ref.recall, nil),
		"precision":      summarize("precision", ref.precision, nil),
	}
	return res, nil
}

// resultLine is the one-line result a script reads from the last line of
// stdout: every end-to-end metric, or with tracing every per-layer metric.
func resultLine(w *workloadResult, trace bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if trace {
		for _, d := range perLayer {
			metrics[d.Name] = mv{w.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = mv{w.Metrics[d.Name].Value, d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
}

// printTables writes the end-to-end table and, when traced, the per-layer
// table of every workload.
func printTables(out io.Writer, res *result) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tn\tq1\tq3\t")
	for _, w := range res.Workloads {
		for _, d := range endToEnd {
			m := w.Metrics[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%s\t%d\t%.4g\t%.4g\t\n", w.Workload, d.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		}
		fmt.Fprintf(tw, "%s\tops failed\t%d\tof %d\t\t\t\t\n", w.Workload, w.Failed, w.Attempted)
	}
	tw.Flush()
	for _, w := range res.Workloads {
		for _, p := range w.Problems {
			fmt.Fprintf(out, "%s: FAILED %s\n", w.Workload, p)
		}
	}
	if len(res.Workloads) == 0 || res.Workloads[0].Layers == nil {
		return
	}
	fmt.Fprintln(out)
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "layer metric\tunit\t")
	for _, w := range res.Workloads {
		fmt.Fprintf(tw, "%s\t", w.Workload)
	}
	fmt.Fprintln(tw)
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t", d.Name, d.Unit)
		for _, w := range res.Workloads {
			fmt.Fprintf(tw, "%.4g\t", w.Layers[d.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// writeResult writes the result to path and its spans to path.trace.json.
func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return writeTrace(path+".trace.json", res)
}

// writeTrace writes every workload's spans, keyed by workload.
func writeTrace(path string, res *result) error {
	spans := map[string][]span{}
	for _, w := range res.Workloads {
		if w.spans != nil {
			spans[w.Workload] = w.spans
		}
	}
	if len(spans) == 0 {
		return nil
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
