package detect

import (
	"fmt"

	"seal/internal/solver"
)

// BugRec is the serializable form of a Bug: every field a report renderer
// consumes, flattened to strings. It exists so a cached detection result
// can be rendered byte-identically to a live one — both paths go through
// the same record (report.RenderRec), with no live IR required.
type BugRec struct {
	Kind    string `json:"kind"`
	Fn      string `json:"fn"`
	File    string `json:"file"`
	Message string `json:"message"`

	SpecConstraint  string `json:"spec_constraint"`
	SpecCond        string `json:"spec_cond,omitempty"` // "" when trivially true
	SpecScope       string `json:"spec_scope"`
	SpecOriginPatch string `json:"spec_origin_patch"`
	SpecOrigin      string `json:"spec_origin"`

	Trace           string `json:"trace,omitempty"` // rendered path, "" when absent
	TraceTruncated  bool   `json:"trace_truncated,omitempty"`
	Trace2          string `json:"trace2,omitempty"`
	Trace2Truncated bool   `json:"trace2_truncated,omitempty"`
}

// Record flattens one live bug into its serializable form.
func Record(b *Bug) BugRec {
	r := BugRec{
		Kind:            b.Kind,
		Fn:              b.Fn.Name,
		File:            b.Fn.File,
		Message:         b.Message,
		SpecConstraint:  b.constraint,
		SpecScope:       b.Spec.Scope(),
		SpecOriginPatch: b.Spec.OriginPatch,
		SpecOrigin:      string(b.Spec.Origin),
	}
	if c := b.Spec.Constraint.Rel.Cond; c != nil {
		if s := solver.String(c); s != "true" {
			r.SpecCond = s
		}
	}
	if b.Trace != nil {
		r.Trace = b.Trace.String()
		r.TraceTruncated = b.Trace.Truncated
	}
	if b.Trace2 != nil {
		r.Trace2 = b.Trace2.String()
		r.Trace2Truncated = b.Trace2.Truncated
	}
	return r
}

// Records flattens a report list, preserving order. No bugs yield nil,
// like a Fold over a bug-free run.
func Records(bugs []*Bug) []BugRec {
	if len(bugs) == 0 {
		return nil
	}
	out := make([]BugRec, len(bugs))
	for i, b := range bugs {
		out[i] = Record(b)
	}
	return out
}

// String mirrors Bug.String for the one-line report form.
func (r BugRec) String() string {
	return fmt.Sprintf("%s in %s (%s): %s", r.Kind, r.Fn, r.File, r.Message)
}
