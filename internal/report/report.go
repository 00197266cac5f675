// Package report renders user-friendly bug reports (paper §7 "Bug
// Report"): the buggy value-flow path with line numbers attached, the
// inferred specification, and the originating patch — the ingredients that
// let maintainers confirm and fix bugs quickly (paper §8.1: 27 patches
// answered within one day).
package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"seal/internal/budget"
	"seal/internal/detect"
	"seal/internal/patch"
	"seal/internal/spec"
)

// Render formats one bug report. patches indexes the originating patches
// by ID (may be nil).
func Render(b *detect.Bug, patches map[string]*patch.Patch) string {
	return RenderRec(detect.Record(b), patches)
}

// RenderRec formats one bug report from its serializable record. This is
// the single render path: live bugs are flattened through detect.Record
// first, and cache-replayed bugs arrive as records already, so a warm run
// reproduces a cold run's report byte for byte by construction.
func RenderRec(b detect.BugRec, patches map[string]*patch.Patch) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s in %s ===\n", b.Kind, b.Fn)
	fmt.Fprintf(&sb, "Location : %s\n", b.File)
	fmt.Fprintf(&sb, "Summary  : %s\n", b.Message)
	fmt.Fprintf(&sb, "Spec     : %s\n", b.SpecConstraint)
	if b.SpecCond != "" {
		fmt.Fprintf(&sb, "Condition: %s\n", b.SpecCond)
	}
	fmt.Fprintf(&sb, "Scope    : %s (inferred from patch %s, origin %s)\n",
		b.SpecScope, b.SpecOriginPatch, b.SpecOrigin)
	if b.Trace != "" {
		sb.WriteString("Buggy value-flow path:\n")
		indent(&sb, b.Trace)
		if b.TraceTruncated {
			sb.WriteString("Note     : path enumeration truncated by a budget — the path set may be incomplete\n")
		}
	}
	if b.Trace2 != "" {
		sb.WriteString("Conflicting use (ordered before the path above):\n")
		indent(&sb, b.Trace2)
		if b.Trace2Truncated {
			sb.WriteString("Note     : conflicting-use enumeration truncated by a budget — the path set may be incomplete\n")
		}
	}
	if patches != nil {
		if p, ok := patches[b.SpecOriginPatch]; ok {
			fmt.Fprintf(&sb, "Original patch: %s — %s\n", p.ID, p.Description)
		}
	}
	return sb.String()
}

func indent(sb *strings.Builder, s string) {
	for _, line := range strings.Split(s, "\n") {
		sb.WriteString("  ")
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
}

// Summary aggregates a report list by bug kind, mirroring Table 2's rows.
type Summary struct {
	Total   int
	ByKind  map[string]int
	ByScope map[string]int
}

// Summarize builds kind/scope histograms over the reports.
func Summarize(bugs []*detect.Bug) Summary {
	return SummarizeRecs(detect.Records(bugs))
}

// SummarizeRecs is Summarize over serializable records.
func SummarizeRecs(recs []detect.BugRec) Summary {
	s := Summary{
		Total:   len(recs),
		ByKind:  make(map[string]int),
		ByScope: make(map[string]int),
	}
	for _, b := range recs {
		s.ByKind[b.Kind]++
		s.ByScope[b.SpecScope]++
	}
	return s
}

// KindsSorted returns the kinds by descending count.
func (s Summary) KindsSorted() []string {
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if s.ByKind[kinds[i]] != s.ByKind[kinds[j]] {
			return s.ByKind[kinds[i]] > s.ByKind[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	return kinds
}

// RenderRobustness renders the degradation and quarantine notes of a
// budgeted run as a stable, sorted section. Reports that survive a
// degraded run are sound but possibly incomplete; this section is what
// tells a maintainer which scopes to re-run with a larger budget. Empty
// input renders nothing.
func RenderRobustness(degs []budget.Degradation, failures []*budget.FailureRecord) string {
	if len(degs) == 0 && len(failures) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("--- robustness notes ---\n")
	lines := make([]string, 0, len(degs))
	for _, d := range degs {
		lines = append(lines, fmt.Sprintf("degraded    %-30s %s (%s)", d.Unit, d.Reason, d.Detail))
	}
	sort.Strings(lines)
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	lines = lines[:0]
	for _, f := range failures {
		lines = append(lines, fmt.Sprintf("quarantined %-30s %s (stage %s, attempts %d)", f.Unit, f.Reason, f.Stage, f.Attempts))
	}
	sort.Strings(lines)
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderAll renders every report plus the summary table.
func RenderAll(bugs []*detect.Bug, patches map[string]*patch.Patch) string {
	return RenderAllRecs(detect.Records(bugs), patches)
}

// RenderAllRecs is RenderAll over serializable records — the entry point
// the CLI uses for both live and cache-replayed results.
func RenderAllRecs(recs []detect.BugRec, patches map[string]*patch.Patch) string {
	var sb strings.Builder
	for _, b := range recs {
		sb.WriteString(RenderRec(b, patches))
		sb.WriteByte('\n')
	}
	sum := SummarizeRecs(recs)
	fmt.Fprintf(&sb, "---\n%d reports by type:\n", sum.Total)
	for _, k := range sum.KindsSorted() {
		fmt.Fprintf(&sb, "  %-10s %4d (%5.1f%%)\n", k, sum.ByKind[k],
			100*float64(sum.ByKind[k])/float64(max(1, sum.Total)))
	}
	return sb.String()
}

// RenderDetectStdout is the detect command's complete stdout payload —
// full reports plus the robustness appendix with -report, one summary line
// per bug otherwise. The serve daemon embeds the same string in its
// /detect responses, so batch stdout and daemon report fields diff clean.
func RenderDetectStdout(recs []detect.BugRec, degs []budget.Degradation, failures []*budget.FailureRecord, nSpecs int, full bool) string {
	if full {
		return RenderAllRecs(recs, map[string]*patch.Patch{}) + RenderRobustness(degs, failures)
	}
	// Each line is BugRec.String() and a newline, written into one buffer
	// sized for every line and the summary.
	n := len("---\n reports over  specs\n") + 2*20
	for _, b := range recs {
		n += len(b.Kind) + len(b.Fn) + len(b.File) + len(b.Message) + len(" in  (): \n")
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, b := range recs {
		for _, part := range [...]string{b.Kind, " in ", b.Fn, " (", b.File, "): ", b.Message, "\n"} {
			sb.WriteString(part)
		}
	}
	var num [20]byte
	sb.WriteString("---\n")
	sb.Write(strconv.AppendInt(num[:0], int64(len(recs)), 10))
	sb.WriteString(" reports over ")
	sb.Write(strconv.AppendInt(num[:0], int64(nSpecs), 10))
	sb.WriteString(" specs\n")
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var _ = spec.RelReach
