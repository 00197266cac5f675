package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// score rates a `seal detect` stdout against the corpus's groundtruth.json,
// which kernelgen writes from the bugs it seeded, independently of the
// analysis. Precision is the share of reports whose function holds a
// seeded bug; recall is the share of seeded bugs hit by at least one
// report.
func score(stdout []byte, groundTruthPath string) (precision, recall float64, err error) {
	data, err := os.ReadFile(groundTruthPath)
	if err != nil {
		return 0, 0, err
	}
	var gt struct {
		Bugs []struct{ Func string } `json:"bugs"`
	}
	if err := json.Unmarshal(data, &gt); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", groundTruthPath, err)
	}
	buggy := make(map[string]bool, len(gt.Bugs))
	for _, b := range gt.Bugs {
		buggy[b.Func] = true
	}
	fns, err := reportedFuncs(stdout)
	if err != nil {
		return 0, 0, err
	}
	tp := 0
	found := make(map[string]bool)
	for _, fn := range fns {
		if buggy[fn] {
			tp++
			found[fn] = true
		}
	}
	if len(fns) > 0 {
		precision = float64(tp) / float64(len(fns))
	}
	if len(buggy) > 0 {
		recall = float64(len(found)) / float64(len(buggy))
	}
	return precision, recall, nil
}

// reportedFuncs extracts the function of every report line of a `seal
// detect` summary stdout ("KIND in FUNC (FILE): MESSAGE", then a "---"
// line and the totals).
func reportedFuncs(stdout []byte) ([]string, error) {
	body, _, ok := bytes.Cut(stdout, []byte("---\n"))
	if !ok {
		return nil, fmt.Errorf("detect output has no \"---\" totals line")
	}
	var fns []string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if line == "" {
			continue
		}
		_, rest, ok1 := strings.Cut(line, " in ")
		fn, _, ok2 := strings.Cut(rest, " (")
		if !ok1 || !ok2 || fn == "" {
			return nil, fmt.Errorf("unparsable report line %q", line)
		}
		fns = append(fns, fn)
	}
	return fns, nil
}
