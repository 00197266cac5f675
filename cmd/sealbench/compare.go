package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// stat is one side's figure for one workload × metric.
type stat struct{ median, q1, q3 float64 }

// loadSide reads one side of a comparison: a result file, or a
// comma-separated list of result files from repeated runs. For one file
// the figure is its value with the quartiles of the samples behind it; for
// several it is the median and quartiles of their values.
func loadSide(arg string) (map[string]map[string]stat, error) {
	paths := strings.Split(arg, ",")
	values := map[string]map[string][]float64{}
	var single map[string]map[string]stat
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		single = map[string]map[string]stat{}
		for _, w := range res.Workloads {
			if values[w.Workload] == nil {
				values[w.Workload] = map[string][]float64{}
			}
			single[w.Workload] = map[string]stat{}
			for name, m := range w.Metrics {
				values[w.Workload][name] = append(values[w.Workload][name], m.Value)
				single[w.Workload][name] = stat{m.Value, m.Q1, m.Q3}
			}
		}
	}
	if len(paths) == 1 {
		return single, nil
	}
	out := map[string]map[string]stat{}
	for w, metrics := range values {
		out[w] = map[string]stat{}
		for name, xs := range metrics {
			q1, q3 := quartiles(xs)
			out[w][name] = stat{median(xs), q1, q3}
		}
	}
	return out, nil
}

// runCompare prints one row per workload × end-to-end metric: both medians,
// both quartiles and the verdict of B against baseline A. It exits 1 when
// any verdict is "worse".
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: sealbench compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	base, err := loadSide(args[0])
	if err == nil {
		var cand map[string]map[string]stat
		if cand, err = loadSide(args[1]); err == nil {
			return printComparison(stdout, base, cand)
		}
	}
	fmt.Fprintln(stderr, "sealbench compare:", err)
	return 1
}

func printComparison(out io.Writer, base, cand map[string]map[string]stat) int {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1\tA q3\tB median\tB q1\tB q3\tchange\tbound\tverdict\t")
	code := 0
	for _, w := range workloads {
		bw, cw := base[w.name], cand[w.name]
		if bw == nil || cw == nil {
			continue
		}
		for _, d := range endToEnd {
			a, okA := bw[d.Name]
			b, okB := cw[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(a.median, a.q1, a.q3, b.median, d.lowerIsBetter(), d.Bound)
			if v == verdictWorse {
				code = 1
			}
			change := "n/a"
			if a.median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(b.median-a.median)/a.median)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%s\t%.0f%%\t%s\t\n",
				w.name, d.Name, a.median, a.q1, a.q3, b.median, b.q1, b.q3, change, 100*d.Bound, v)
		}
	}
	tw.Flush()
	return code
}
