package vfp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"seal/internal/ir"
	"seal/internal/pdg"
	"seal/internal/solver"
)

// Path is an inter-procedural value-flow path (Def. 6.2): a statement
// sequence connected by data-dependence edges, from an interaction-data
// source to an ultimate use. Paths may be shared across concurrent
// detector workers: Signature and Psi are memoized thread-safely.
type Path struct {
	Nodes  []*ir.Stmt
	Source Endpoint
	Sink   Endpoint

	// Truncated marks paths from an enumeration cut short by a path/depth
	// cap or a resource budget: an empty result set means "no path", a
	// truncated one means "budget exhausted — there may be more". Not part
	// of Signature: identical paths from complete and truncated
	// enumerations still dedupe together.
	Truncated bool

	sig atomic.Pointer[string]

	psiMu    sync.Mutex
	psi      solver.Formula
	psiReady bool
}

// Signature is a version-independent identity: the sequence of statement
// spellings qualified by function name, with endpoint keys. Statements are
// "identical despite different line numbers" (paper §5 step 2); lowering
// temporaries are erased so hoisting differences between versions do not
// break identity.
func (p *Path) Signature() string {
	if memo := p.sig.Load(); memo != nil {
		return *memo
	}
	var sb strings.Builder
	sb.WriteString(p.Source.Key())
	sb.WriteString(" => ")
	for _, n := range p.Nodes {
		sb.WriteString(n.Fn.Name)
		sb.WriteByte('|')
		sb.WriteString(NormalizedStmtString(n))
		sb.WriteString(" -> ")
	}
	sb.WriteString(p.Sink.Key())
	str := sb.String()
	p.sig.Store(&str)
	return str
}

// NormalizedStmtString renders a statement with lowering temporaries
// erased; the spelling is memoized on the statement itself (ir.Stmt
// NormString) so every path crossing it shares one rendering.
func NormalizedStmtString(s *ir.Stmt) string {
	return s.NormString()
}

// Psi computes (and caches) the path condition Ψ(p): the conjunction of
// the control-dependence guards of every statement on the path, with
// symbols qualified per function (quasi-path-sensitive, Def. 6.2).
func (p *Path) Psi(g *pdg.Graph) solver.Formula {
	p.psiMu.Lock()
	defer p.psiMu.Unlock()
	if p.psiReady {
		return p.psi
	}
	var parts []solver.Formula
	seen := make(map[*ir.Stmt]bool)
	for _, n := range p.Nodes {
		if seen[n] {
			continue
		}
		seen[n] = true
		parts = append(parts, g.PathConditionWith(n, pdg.QualifiedLeaf(n.Fn)))
	}
	p.psi = solver.Simplify(solver.MkAnd(parts...))
	p.psiReady = true
	return p.psi
}

// String renders the path with line numbers for bug reports.
func (p *Path) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s", p.Source)
	for _, n := range p.Nodes {
		fmt.Fprintf(&sb, "\n  -> [%s:%d] %s", n.Fn.Name, n.Line, n)
	}
	fmt.Fprintf(&sb, "\n  => %s", p.Sink)
	return sb.String()
}

// Contains reports whether the path visits stmt.
func (p *Path) Contains(stmt *ir.Stmt) bool {
	for _, n := range p.Nodes {
		if n == stmt {
			return true
		}
	}
	return false
}

// DedupePaths removes signature duplicates, preserving order.
func DedupePaths(paths []*Path) []*Path {
	seen := make(map[string]bool, len(paths))
	var out []*Path
	for _, p := range paths {
		sig := p.Signature()
		if !seen[sig] {
			seen[sig] = true
			out = append(out, p)
		}
	}
	return out
}
