package vfp

import (
	"bytes"
	"fmt"
	"hash/maphash"
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
	str := string(p.appendSignature(make([]byte, 0, 256)))
	p.sig.Store(&str)
	return str
}

// appendSignature appends Signature's bytes to b without building the
// string.
func (p *Path) appendSignature(b []byte) []byte {
	b = append(p.Source.appendKey(b), " => "...)
	for _, n := range p.Nodes {
		b = append(append(b, n.Fn.Name...), '|')
		b = append(append(b, NormalizedStmtString(n)...), " -> "...)
	}
	return p.Sink.appendKey(b)
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

// DedupePaths removes signature duplicates, preserving order. No
// signature string is built: each path's signature bytes go into one
// reused buffer, a 64-bit hash of them picks the earlier path they may
// equal, and a byte comparison with that path's signature confirms it.
// The hash covers the signature's bytes, not statement IDs: two distinct
// statements with one spelling make equal signatures.
func DedupePaths(paths []*Path) []*Path {
	var out []*Path
	if len(paths) == 0 {
		return out
	}
	var arr, arr2 [512]byte
	buf, other := arr[:0], arr2[:0]
	first := make(map[uint64]int, len(paths)) // hash -> index in out
	for _, p := range paths {
		buf = p.appendSignature(buf[:0])
		h := maphash.Bytes(sigSeed, buf)
		if i, ok := first[h]; ok {
			other = out[i].appendSignature(other[:0])
			if bytes.Equal(buf, other) {
				continue
			}
			var dup bool
			if dup, other = sigIn(out, buf, other); dup {
				continue
			}
		} else {
			first[h] = len(out)
		}
		out = append(out, p)
	}
	return out
}

// sigIn reports whether any path of out has signature sig: the fallback
// for a hash shared by different signatures. It returns scratch, grown.
func sigIn(out []*Path, sig, scratch []byte) (bool, []byte) {
	for _, q := range out {
		scratch = q.appendSignature(scratch[:0])
		if bytes.Equal(sig, scratch) {
			return true, scratch
		}
	}
	return false, scratch
}

var sigSeed = maphash.MakeSeed()
