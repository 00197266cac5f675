package infer

import (
	"seal/internal/pdg"
	"seal/internal/solver"
	"seal/internal/vfp"
)

// PathPair is a path present in both versions (matched by signature).
type PathPair struct {
	Pre  *vfp.Path
	Post *vfp.Path
}

// Classified is the output of Alg. 1: paths split into the four change
// categories.
type Classified struct {
	PMinus []*vfp.Path // present only pre-patch (removed)
	PPlus  []*vfp.Path // present only post-patch (added)
	PPsi   []PathPair  // same path, different path condition
	POmega []PathPair  // same path and condition; order candidates
}

// Classify implements Alg. 1: segregate P_pre and P_post into P−, P+, PΨ,
// PΩ. Path identity is the version-independent signature; condition
// equality is decided by the solver over the qualified symbols, which are
// stable across versions. Solver checks are charged to sat.
func Classify(gPre, gPost *pdg.Graph, pre, post []*vfp.Path, sat *solver.Tally) *Classified {
	out := &Classified{}
	preBySig := make(map[string]*vfp.Path, len(pre))
	for _, p := range pre {
		preBySig[p.Signature()] = p
	}
	postBySig := make(map[string]*vfp.Path, len(post))
	for _, p := range post {
		postBySig[p.Signature()] = p
	}
	for _, p := range pre {
		if _, ok := postBySig[p.Signature()]; !ok {
			out.PMinus = append(out.PMinus, p)
		}
	}
	for _, p := range post {
		if _, ok := preBySig[p.Signature()]; !ok {
			out.PPlus = append(out.PPlus, p)
		}
	}
	for _, p := range pre {
		q, ok := postBySig[p.Signature()]
		if !ok {
			continue
		}
		pair := PathPair{Pre: p, Post: q}
		if !sat.Equiv(p.Psi(gPre), q.Psi(gPost)) {
			out.PPsi = append(out.PPsi, pair)
		} else {
			out.POmega = append(out.POmega, pair)
		}
	}
	return out
}
