// Command sealbench is seal's benchmark: it builds ./cmd/seal from source,
// generates every corpus with internal/kernelgen from a seed, drives the
// seal CLI and the `seal serve` HTTP API through four workloads, checks
// every output byte for byte against a cold CLI reference, and reports
// end-to-end and per-layer metrics.
//
//	sealbench -seed N [-out result.json]       every workload, then tables
//	sealbench -workload NAME -seed N -seconds S -trace 0|1
//	                                           one workload; the last stdout
//	                                           line is a one-line JSON result
//	sealbench compare A.json B.json            medians, quartiles, verdicts
//
// It runs from anywhere inside the seal repository; run.sh next to this
// file builds it with every build and run file kept under .bench_build/.
// See README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	if os.Getenv(spawnEnv) != "" {
		os.Exit(spawn(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit: 0 when every
// output was correct, 1 when a check failed or the run could not finish,
// 2 for usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("sealbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "corpus and request-mix seed")
	out := fs.String("out", "", "write the full result (environment, quartiles, per-layer table) to this JSON file and its spans to FILE.trace.json")
	only := fs.String("workload", "", "run only this workload and print its one-line JSON result last on stdout")
	seconds := fs.Int("seconds", 20, "length of each workload's timed loop")
	trace := fs.Int("trace", 1, "1 = run the traced pass after the timed loop (the one-line result then carries the per-layer metrics); 0 = skip it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "sealbench: want -seconds >= 1, -trace 0 or 1, and no arguments")
		return 2
	}
	selected := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			fmt.Fprintf(stderr, "sealbench: unknown workload %q\n", *only)
			return 2
		}
		selected = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "sealbench:", err)
		return 1
	}
	p := plan{seconds: *seconds, setups: 3, reps: 5, trace: *trace == 1}
	res, err := buildAndMeasure(ctx, root, *seed, p, selected, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sealbench:", err)
		return 1
	}

	if *only != "" {
		printTables(stderr, res)
	} else {
		printTables(stdout, res)
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "sealbench:", err)
			return 1
		}
	} else if p.trace {
		name := *only
		if name == "" {
			name = "all"
		}
		tracePath := filepath.Join(root, ".bench_build", "trace", name+"-seed"+strconv.FormatInt(*seed, 10)+".json")
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err == nil {
			err = writeTrace(tracePath, res)
		}
		if err != nil {
			fmt.Fprintln(stderr, "sealbench:", err)
			return 1
		}
	}
	if *only != "" {
		line, err := resultLine(res.Workloads[0], p.trace)
		if err != nil {
			fmt.Fprintln(stderr, "sealbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the given workloads in order with the seal binary bin,
// each in its own directory under work.
func measure(ctx context.Context, bin, work string, env environment, p plan, selected []*workload, log io.Writer) (*result, error) {
	res := &result{Environment: env, Correct: true}
	for _, w := range selected {
		fmt.Fprintf(log, "sealbench: %s (seed %d, %ds)\n", w.name, env.Seed, p.seconds)
		b := &bench{cli: cli{bin: bin}, seed: env.Seed, plan: p, work: filepath.Join(work, w.name)}
		wr, err := b.runWorkload(ctx, w)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, wr)
		res.Correct = res.Correct && wr.Correct
	}
	return res, nil
}

// buildAndMeasure builds seal from root into a scratch directory under
// root/.bench_build, measures, and removes the scratch directory.
func buildAndMeasure(ctx context.Context, root string, seed int64, p plan, selected []*workload, log io.Writer) (*result, error) {
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin, err := buildSeal(ctx, root, work)
	if err != nil {
		return nil, err
	}
	return measure(ctx, bin, work, newEnvironment(root, seed, p.seconds), p, selected, log)
}
