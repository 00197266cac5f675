// Package eval is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (§8) on the synthetic corpus, computing
// exact precision/recall against ground truth. Absolute counts differ from
// the paper by design (the substrate is a generated corpus, DESIGN.md §8);
// the harness reports and asserts the paper's *shape*: who wins, the
// orderings, the distribution skews.
package eval

import (
	"fmt"
	"sort"
	"time"

	"seal/internal/baselines/aphp"
	"seal/internal/baselines/crix"
	"seal/internal/cir"
	"seal/internal/detect"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/spec"
)

// Run is one full pipeline execution over a generated corpus, with all the
// raw material the experiments need.
type Run struct {
	Cfg    kernelgen.Config
	Corpus *kernelgen.Corpus
	Prog   *ir.Program

	// SpecsRaw are all deduced relations; Specs the post-validation set.
	SpecsRaw []*spec.Spec
	Specs    []*spec.Spec
	// PerPatch maps patch ID to its inference stats.
	PerPatch map[string]infer.Stats
	// ZeroRelationPatches counts patches yielding no relations.
	ZeroRelationPatches int

	Bugs []*detect.Bug

	// Timings (RQ4).
	InferTime  time.Duration
	DetectTime time.Duration

	gt               map[string]kernelgen.SeededBug
	drv              map[string]kernelgen.DriverInfo
	specCorrectCache map[string]bool
}

// NewRun generates the corpus and executes inference + detection, timed.
func NewRun(cfg kernelgen.Config) (*Run, error) {
	corpus := kernelgen.Generate(cfg)
	r := &Run{
		Cfg:      cfg,
		Corpus:   corpus,
		PerPatch: make(map[string]infer.Stats),
		gt:       corpus.BugByFunc(),
		drv:      corpus.DriverByFunc(),
	}

	// Link the target tree.
	var files []*cir.File
	for _, name := range corpus.SortedFileNames() {
		f, err := cir.ParseFile(name, corpus.Files[name])
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	prog, err := ir.NewProgram(files...)
	if err != nil {
		return nil, err
	}
	r.Prog = prog

	// Stage ①–③ per patch (timed).
	start := time.Now()
	for _, p := range corpus.Patches {
		a, err := p.Analyze()
		if err != nil {
			return nil, fmt.Errorf("patch %s: %w", p.ID, err)
		}
		res := infer.InferPatch(a)
		r.PerPatch[p.ID] = res.Stats
		r.SpecsRaw = append(r.SpecsRaw, res.Specs...)
		validated := detect.ValidateSpecs(a.PostProg, res.Specs)
		if len(validated) == 0 {
			r.ZeroRelationPatches++
		}
		r.Specs = append(r.Specs, validated...)
	}
	db := &spec.DB{Specs: r.Specs}
	db.Dedup()
	r.Specs = db.Specs
	r.InferTime = time.Since(start)

	// Stage ④ (timed).
	start = time.Now()
	d := detect.New(prog)
	r.Bugs = d.Detect(r.Specs)
	r.DetectTime = time.Since(start)
	return r, nil
}

// IsTP reports whether a report hits a ground-truth bug.
func (r *Run) IsTP(b *detect.Bug) bool {
	_, ok := r.gt[b.Fn.Name]
	return ok
}

// TPFP splits the reports.
func (r *Run) TPFP() (tp, fp []*detect.Bug) {
	for _, b := range r.Bugs {
		if r.IsTP(b) {
			tp = append(tp, b)
		} else {
			fp = append(fp, b)
		}
	}
	return tp, fp
}

// FoundBugs returns the distinct ground-truth bugs hit by any report.
func (r *Run) FoundBugs() []kernelgen.SeededBug {
	seen := make(map[string]bool)
	var out []kernelgen.SeededBug
	for _, b := range r.Bugs {
		if g, ok := r.gt[b.Fn.Name]; ok && !seen[g.Func] {
			seen[g.Func] = true
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out
}

// Precision is TP reports over all reports.
func (r *Run) Precision() float64 {
	if len(r.Bugs) == 0 {
		return 0
	}
	tp, _ := r.TPFP()
	return float64(len(tp)) / float64(len(r.Bugs))
}

// Recall is found ground-truth bugs over all seeded bugs.
func (r *Run) Recall() float64 {
	if len(r.Corpus.Bugs) == 0 {
		return 0
	}
	return float64(len(r.FoundBugs())) / float64(len(r.Corpus.Bugs))
}

// specFamily resolves the family of a spec's origin patch ("" if noise).
func (r *Run) specFamily(s *spec.Spec) string {
	for _, p := range r.Corpus.Patches {
		if p.ID == s.OriginPatch {
			return p.Tags["family"]
		}
	}
	return ""
}

// SpecCorrect is the automatic stand-in for the paper's manual spec-
// correctness sampling (RQ2): a specification is judged correct iff it is
// an executable statement of its origin family's latent rule — it yields
// no violation on a freshly rendered rule-abiding probe driver AND fires
// on a freshly rendered rule-violating probe driver. Ad-hoc relations
// (the paper's "restrictive, cannot be extended" class) fail one of the
// two probes.
func (r *Run) SpecCorrect(s *spec.Spec) bool {
	if r.specCorrectCache == nil {
		r.specCorrectCache = make(map[string]bool)
	}
	if v, ok := r.specCorrectCache[s.ID]; ok {
		return v
	}
	ok := r.specCorrectUncached(s)
	r.specCorrectCache[s.ID] = ok
	return ok
}

func (r *Run) specCorrectUncached(s *spec.Spec) bool {
	famName := r.specFamily(s)
	fam := kernelgen.FamilyByName(famName)
	if fam == nil {
		return false
	}
	sub := r.specSubsystem(s)
	if sub == "" {
		return false
	}
	probe := func(v kernelgen.Variant, drv string) (*ir.Program, error) {
		src := fam.Render(sub, drv, v)
		f, err := cir.ParseFile("probe.c", src)
		if err != nil {
			return nil, err
		}
		return ir.NewProgram(f)
	}
	okProg, err1 := probe(kernelgen.Correct, sub+"_probeok")
	badProg, err2 := probe(kernelgen.Buggy, sub+"_probebad")
	if err1 != nil || err2 != nil {
		return false
	}
	if n := len(detect.New(okProg).DetectSpec(s)); n != 0 {
		return false // flags rule-abiding code
	}
	return len(detect.New(badProg).DetectSpec(s)) > 0 // must catch the bug
}

// specSubsystem extracts the subsystem-instance prefix from the spec's
// origin patch metadata.
func (r *Run) specSubsystem(s *spec.Spec) string {
	for _, p := range r.Corpus.Patches {
		if p.ID == s.OriginPatch {
			iface := p.Tags["iface"]
			if i := indexByte(iface, '_'); i > 0 {
				return iface[:i]
			}
		}
	}
	return ""
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// RunBaselines executes APHP and CRIX on the same inputs (RQ3).
func (r *Run) RunBaselines() *BaselineResults {
	res := &BaselineResults{}
	rules := aphp.InferRules(r.Corpus.Patches)
	res.APHPRules = len(rules)
	res.APHPReports = aphp.Detect(r.Prog, rules)
	res.CRIXReports = crix.Detect(r.Prog)

	for _, rep := range res.APHPReports {
		if g, ok := r.gt[rep.Fn.Name]; ok {
			res.APHPTP++
			res.APHPFoundKinds = appendUnique(res.APHPFoundKinds, g.Kind)
			res.aphpFound = appendUnique(res.aphpFound, g.Func)
		}
	}
	for _, rep := range res.CRIXReports {
		if g, ok := r.gt[rep.Fn.Name]; ok {
			res.CRIXTP++
			res.CRIXFoundKinds = appendUnique(res.CRIXFoundKinds, g.Kind)
			res.crixFound = appendUnique(res.crixFound, g.Func)
		}
	}
	for _, g := range r.FoundBugs() {
		res.SEALFoundKinds = appendUnique(res.SEALFoundKinds, g.Kind)
	}
	// Overlaps with SEAL's found set.
	sealFound := make(map[string]bool)
	for _, g := range r.FoundBugs() {
		sealFound[g.Func] = true
	}
	for _, f := range res.aphpFound {
		if sealFound[f] {
			res.APHPOverlap++
		}
	}
	for _, f := range res.crixFound {
		if sealFound[f] {
			res.CRIXOverlap++
		}
	}
	return res
}

// BaselineResults aggregates RQ3.
type BaselineResults struct {
	APHPRules   int
	APHPReports []aphp.Report
	APHPTP      int
	CRIXReports []crix.Report
	CRIXTP      int

	SEALFoundKinds []string
	APHPFoundKinds []string
	CRIXFoundKinds []string

	APHPOverlap int // found bugs shared with SEAL
	CRIXOverlap int

	aphpFound, crixFound []string
}

// APHPPrecision returns TP reports / reports for APHP.
func (b *BaselineResults) APHPPrecision() float64 {
	if len(b.APHPReports) == 0 {
		return 0
	}
	return float64(b.APHPTP) / float64(len(b.APHPReports))
}

// CRIXPrecision returns TP reports / reports for CRIX.
func (b *BaselineResults) CRIXPrecision() float64 {
	if len(b.CRIXReports) == 0 {
		return 0
	}
	return float64(b.CRIXTP) / float64(len(b.CRIXReports))
}

func appendUnique(xs []string, x string) []string {
	for _, e := range xs {
		if e == x {
			return xs
		}
	}
	out := append(xs, x)
	sort.Strings(out)
	return out
}
