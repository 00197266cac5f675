package callgraph

import (
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
)

const multiImplSrc = `
struct vb2_buffer { int n; };
struct vb2_ops { int (*buf_prepare)(struct vb2_buffer *vb); };
int prep_a(struct vb2_buffer *vb) { return 0; }
int prep_b(struct vb2_buffer *vb) { return 1; }
int unrelated(struct vb2_buffer *vb) { return 2; }
struct vb2_ops ops_a = { .buf_prepare = prep_a, };
struct vb2_ops ops_b = { .buf_prepare = prep_b, };
int dispatch(struct vb2_ops *ops, struct vb2_buffer *vb) {
	return ops->buf_prepare(vb);
}
int direct(struct vb2_buffer *vb) {
	return prep_a(vb);
}
`

func buildGraph(t *testing.T, src string) (*ir.Program, *Graph) {
	t.Helper()
	f, err := cir.ParseFile("test.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.NewProgram(f)
	if err != nil {
		t.Fatal(err)
	}
	return p, Build(p)
}

func callIn(p *ir.Program, fnName string) *ir.Stmt {
	for _, s := range p.Funcs[fnName].Stmts() {
		if s.Kind == ir.StCall {
			return s
		}
	}
	return nil
}

func TestDirectCallResolution(t *testing.T) {
	p, g := buildGraph(t, multiImplSrc)
	call := callIn(p, "direct")
	targets := g.CalleesOf(call)
	if len(targets) != 1 || targets[0].Name != "prep_a" {
		t.Fatalf("direct call targets: %v", names(targets))
	}
}

func TestIndirectCallFieldResolution(t *testing.T) {
	p, g := buildGraph(t, multiImplSrc)
	call := callIn(p, "dispatch")
	targets := g.CalleesOf(call)
	if len(targets) != 2 {
		t.Fatalf("indirect targets: %v (want prep_a, prep_b)", names(targets))
	}
	if targets[0].Name != "prep_a" || targets[1].Name != "prep_b" {
		t.Fatalf("indirect targets: %v", names(targets))
	}
	// unrelated has the same signature but is never ops-registered: the
	// field-based resolution must exclude it.
	for _, tg := range targets {
		if tg.Name == "unrelated" {
			t.Error("field-based resolution leaked an unregistered function")
		}
	}
}

func TestCallersOf(t *testing.T) {
	p, g := buildGraph(t, multiImplSrc)
	prepA := p.Funcs["prep_a"]
	sites := g.CallersOf(prepA)
	if len(sites) != 2 {
		t.Fatalf("prep_a caller sites = %d, want 2 (dispatch + direct)", len(sites))
	}
}

func names(fns []*ir.Func) []string {
	var out []string
	for _, f := range fns {
		out = append(out, f.Name)
	}
	return out
}
