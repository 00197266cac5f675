package report

import (
	"fmt"
	"strings"
	"testing"

	"seal/internal/cir"
	"seal/internal/detect"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/patch"
)

func fig3Bugs(t *testing.T) ([]*detect.Bug, map[string]*patch.Patch) {
	t.Helper()
	p := &patch.Patch{
		ID:          "fig3",
		Description: "media: cx23885: fix wrong error code",
		Pre:         map[string]string{"cx.c": cir.Fig3PreSource},
		Post:        map[string]string{"cx.c": cir.Fig3Source},
	}
	a, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	specs := detect.ValidateSpecs(a.PostProg, infer.InferPatch(a).Specs)

	target := `
struct cx23885_riscmem { int *cpu; int size; };
struct vb2_buffer { struct cx23885_riscmem risc; int state; };
struct vb2_ops { int (*buf_prepare)(struct vb2_buffer *vb); };
int *dma_alloc_coherent(int size);
int tw68_risc_alloc(struct cx23885_riscmem *risc) {
	risc->cpu = dma_alloc_coherent(risc->size);
	if (risc->cpu == NULL)
		return -ENOMEM;
	return 0;
}
int tw68_buf_prepare(struct vb2_buffer *vb) {
	tw68_risc_alloc(&vb->risc);
	return 0;
}
struct vb2_ops tw68_qops = { .buf_prepare = tw68_buf_prepare, };
`
	f, err := cir.ParseFile("tw68.c", target)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.NewProgram(f)
	if err != nil {
		t.Fatal(err)
	}
	bugs := detect.New(prog).Detect(specs)
	if len(bugs) == 0 {
		t.Fatal("no bugs to report")
	}
	return bugs, map[string]*patch.Patch{p.ID: p}
}

func TestRenderContainsIngredients(t *testing.T) {
	bugs, patches := fig3Bugs(t)
	out := Render(bugs[0], patches)
	// The paper §7 bug-report ingredients: location, spec, origin patch.
	for _, want := range []string{
		"tw68_buf_prepare",
		"tw68.c",
		"Spec",
		"fig3",
		"Original patch",
		"fix wrong error code",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRenderWithoutPatchIndex(t *testing.T) {
	bugs, _ := fig3Bugs(t)
	out := Render(bugs[0], nil)
	if strings.Contains(out, "Original patch") {
		t.Error("report should omit the patch section when no index is given")
	}
}

func TestSummarize(t *testing.T) {
	bugs, _ := fig3Bugs(t)
	sum := Summarize(bugs)
	if sum.Total != len(bugs) {
		t.Errorf("total = %d, want %d", sum.Total, len(bugs))
	}
	n := 0
	for _, c := range sum.ByKind {
		n += c
	}
	if n != sum.Total {
		t.Errorf("kind histogram sums to %d, want %d", n, sum.Total)
	}
	if len(sum.KindsSorted()) != len(sum.ByKind) {
		t.Error("KindsSorted size mismatch")
	}
}

func TestRenderAllIncludesSummary(t *testing.T) {
	bugs, patches := fig3Bugs(t)
	out := RenderAll(bugs, patches)
	if !strings.Contains(out, "reports by type") {
		t.Errorf("missing summary:\n%s", out)
	}
}

// TestRenderDetectStdoutPlainLines holds the plain detect stdout to its
// fmt form: one BugRec.String line per record, then the summary line.
func TestRenderDetectStdoutPlainLines(t *testing.T) {
	bugs, _ := fig3Bugs(t)
	recs := detect.Records(bugs)
	recs = append(recs, detect.BugRec{}, detect.BugRec{Kind: "npd", Fn: "f", File: "ü.c", Message: "a\nb"})
	for _, n := range []int{0, 1, len(recs)} {
		var want strings.Builder
		for _, r := range recs[:n] {
			fmt.Fprintf(&want, "%s\n", r)
		}
		fmt.Fprintf(&want, "---\n%d reports over %d specs\n", n, 316+n)
		if got := RenderDetectStdout(recs[:n], nil, nil, 316+n, false); got != want.String() {
			t.Errorf("%d records:\n%s\nwant:\n%s", n, got, want.String())
		}
	}
}
