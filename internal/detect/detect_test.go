package detect

import (
	"strings"
	"testing"

	"seal/internal/cir"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/patch"
	"seal/internal/spec"
)

// targetFig3 is a target corpus with three implementations of
// vb2_ops.buf_prepare: one correct (propagates the error code), one buggy
// (drops it — the Fig. 1 NPD), and one that never calls the API (the spec
// must not apply there).
const targetFig3 = `
struct cx23885_riscmem {
	int *cpu;
	int size;
};
struct vb2_buffer {
	struct cx23885_riscmem risc;
	int state;
};
struct vb2_ops {
	int (*buf_prepare)(struct vb2_buffer *vb);
};
int *dma_alloc_coherent(int size);

int good_risc_alloc(struct cx23885_riscmem *risc) {
	risc->cpu = dma_alloc_coherent(risc->size);
	if (risc->cpu == NULL)
		return -ENOMEM;
	return 0;
}
int good_prepare(struct vb2_buffer *vb) {
	return good_risc_alloc(&vb->risc);
}

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

int plain_prepare(struct vb2_buffer *vb) {
	vb->state = 1;
	return 0;
}

struct vb2_ops good_qops = { .buf_prepare = good_prepare, };
struct vb2_ops tw68_qops = { .buf_prepare = tw68_buf_prepare, };
struct vb2_ops plain_qops = { .buf_prepare = plain_prepare, };
`

func inferFrom(t *testing.T, id, file, pre, post string) []*spec.Spec {
	t.Helper()
	p := &patch.Patch{ID: id, Pre: map[string]string{file: pre}, Post: map[string]string{file: post}}
	a, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	specs := infer.InferPatch(a).Specs
	return ValidateSpecs(a.PostProg, specs)
}

func targetProg(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := cir.ParseFile("target.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.NewProgram(f)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestDetectFig3WrongErrorCode(t *testing.T) {
	specs := inferFrom(t, "fig3", "cx.c", cir.Fig3PreSource, cir.Fig3Source)
	prog := targetProg(t, targetFig3)
	d := New(prog)
	bugs := d.Detect(specs)

	var buggyHit, goodHit, plainHit bool
	for _, b := range bugs {
		switch b.Fn.Name {
		case "tw68_buf_prepare":
			buggyHit = true
			if b.Kind != "WrongEC" && b.Kind != "NPD" {
				t.Errorf("bug kind = %s, want WrongEC/NPD", b.Kind)
			}
		case "good_prepare":
			goodHit = true
		case "plain_prepare":
			plainHit = true
		}
	}
	if !buggyHit {
		t.Errorf("missed the tw68_buf_prepare bug; reports: %s", dumpBugs(bugs))
	}
	if goodHit {
		t.Errorf("false positive on the correct implementation; reports: %s", dumpBugs(bugs))
	}
	if plainHit {
		t.Errorf("spec applied to an implementation that never calls the API; reports: %s", dumpBugs(bugs))
	}
}

const targetFig4 = `
#define I2C_SMBUS_I2C_BLOCK_DATA 8
#define MAX 32
struct smbus_data {
	int len;
	char block[34];
};
struct msg_t { char *buf; };
struct i2c_algorithm {
	int (*smbus_xfer)(int size, struct smbus_data *data);
};
struct msg_t msg[2];

int checked_xfer(int size, struct smbus_data *data) {
	int i;
	if (size == I2C_SMBUS_I2C_BLOCK_DATA) {
		if (data->len <= MAX) {
			for (i = 1; i <= data->len; i++)
				msg[0].buf[i] = data->block[i];
		}
	}
	return 0;
}
int unchecked_xfer(int size, struct smbus_data *data) {
	int i;
	if (size == I2C_SMBUS_I2C_BLOCK_DATA) {
		for (i = 1; i <= data->len; i++)
			msg[0].buf[i] = data->block[i];
	}
	return 0;
}
struct i2c_algorithm checked_algo = { .smbus_xfer = checked_xfer, };
struct i2c_algorithm unchecked_algo = { .smbus_xfer = unchecked_xfer, };
`

func TestDetectFig4MissingCheck(t *testing.T) {
	specs := inferFrom(t, "fig4", "i2c.c", cir.Fig4PreSource, cir.Fig4PostSource)
	prog := targetProg(t, targetFig4)
	d := New(prog)
	bugs := d.Detect(specs)

	var uncheckedHit, checkedHit bool
	for _, b := range bugs {
		if b.Fn.Name == "unchecked_xfer" && (b.Kind == "OOB" || b.Kind == "NPD") {
			uncheckedHit = true
			if b.Trace == nil {
				t.Error("forbidden-reach violation should carry a witness path")
			}
		}
		if b.Fn.Name == "checked_xfer" {
			checkedHit = true
		}
	}
	if !uncheckedHit {
		t.Errorf("missed the unchecked_xfer OOB; reports: %s", dumpBugs(bugs))
	}
	if checkedHit {
		t.Errorf("false positive on the guarded implementation; reports: %s", dumpBugs(bugs))
	}
}

const targetFig5 = `
struct device { int devt; int refcount; };
struct platform_device { struct device dev; };
struct ida { int bits; };
struct platform_driver {
	int (*probe)(struct platform_device *pdev);
	int (*remove)(struct platform_device *pdev);
};
void put_device(struct device *dev);
void ida_free(struct ida *ida, int id);
struct ida other_ida;

int ok_remove(struct platform_device *pdev) {
	ida_free(&other_ida, pdev->dev.devt);
	put_device(&pdev->dev);
	return 0;
}
int uaf_remove(struct platform_device *pdev) {
	put_device(&pdev->dev);
	ida_free(&other_ida, pdev->dev.devt);
	return 0;
}
struct platform_driver ok_driver = { .remove = ok_remove, };
struct platform_driver uaf_driver = { .remove = uaf_remove, };
`

func TestDetectFig5UseAfterFree(t *testing.T) {
	specs := inferFrom(t, "fig5", "telem.c", cir.Fig5PreSource, cir.Fig5PostSource)
	prog := targetProg(t, targetFig5)
	d := New(prog)
	bugs := d.Detect(specs)

	var uafHit, okHit bool
	for _, b := range bugs {
		if b.Fn.Name == "uaf_remove" && b.Kind == "UAF" {
			uafHit = true
		}
		if b.Fn.Name == "ok_remove" {
			okHit = true
		}
	}
	if !uafHit {
		t.Errorf("missed the uaf_remove order violation; reports: %s", dumpBugs(bugs))
	}
	if okHit {
		t.Errorf("false positive on the correctly ordered implementation; reports: %s", dumpBugs(bugs))
	}
}

func TestRegionsIfaceScoped(t *testing.T) {
	prog := targetProg(t, targetFig3)
	d := New(prog)
	s := &spec.Spec{Iface: "vb2_ops.buf_prepare"}
	regions := d.Regions(s)
	if len(regions) != 3 {
		t.Fatalf("regions = %d, want the 3 registered implementations", len(regions))
	}
}

func TestRegionsAPIScoped(t *testing.T) {
	prog := targetProg(t, targetFig3)
	d := New(prog)
	s := &spec.Spec{API: "dma_alloc_coherent"}
	regions := d.Regions(s)
	if len(regions) != 2 {
		t.Fatalf("api regions = %d, want 2 (the two risc_alloc helpers)", len(regions))
	}
}

func TestMemoizationConsistency(t *testing.T) {
	// Detection results must be identical with and without the path-
	// summary cache (the cache is a pure optimization, paper §6.4.1).
	specs := inferFrom(t, "fig3", "cx.c", cir.Fig3PreSource, cir.Fig3Source)
	prog := targetProg(t, targetFig3)
	d1 := New(prog)
	bugsMemo := d1.Detect(specs)
	d2 := New(prog)
	d2.DisableMemo = true
	bugsNoMemo := d2.Detect(specs)
	if len(bugsMemo) != len(bugsNoMemo) {
		t.Fatalf("memoization changed results: %d vs %d", len(bugsMemo), len(bugsNoMemo))
	}
	for i := range bugsMemo {
		if bugsMemo[i].Key() != bugsNoMemo[i].Key() {
			t.Errorf("bug %d differs: %s vs %s", i, bugsMemo[i].Key(), bugsNoMemo[i].Key())
		}
	}
}

func dumpBugs(bugs []*Bug) string {
	var sb strings.Builder
	sb.WriteByte('\n')
	for _, b := range bugs {
		sb.WriteString("  " + b.String() + "\n")
	}
	return sb.String()
}

func TestEquivalentAPIHint(t *testing.T) {
	// A driver that frees through kfree_sensitive violates the learned
	// kfree rule (the paper's equivalent-post-operation FP class); the
	// report should point at the equivalent API to ease triage.
	specs := inferFrom(t, "ml", "m.c", `
struct host { int id; };
struct hdrv { int (*probe)(struct host *h); };
int *m_kmalloc(int size);
void m_kfree(int *p);
void m_kfree_sensitive(int *p);
int m_register(struct host *h, int *buf);
int orig_probe(struct host *h) {
	int *buf = m_kmalloc(64);
	if (buf == NULL)
		return -ENOMEM;
	int ret = m_register(h, buf);
	if (ret != 0) {
		return ret;
	}
	return 0;
}
struct hdrv orig_hdrv = { .probe = orig_probe, };
`, `
struct host { int id; };
struct hdrv { int (*probe)(struct host *h); };
int *m_kmalloc(int size);
void m_kfree(int *p);
void m_kfree_sensitive(int *p);
int m_register(struct host *h, int *buf);
int orig_probe(struct host *h) {
	int *buf = m_kmalloc(64);
	if (buf == NULL)
		return -ENOMEM;
	int ret = m_register(h, buf);
	if (ret != 0) {
		m_kfree(buf);
		return ret;
	}
	return 0;
}
struct hdrv orig_hdrv = { .probe = orig_probe, };
`)
	prog := targetProg(t, `
struct host { int id; };
struct hdrv { int (*probe)(struct host *h); };
int *m_kmalloc(int size);
void m_kfree(int *p);
void m_kfree_sensitive(int *p);
int m_register(struct host *h, int *buf);
int conf_probe(struct host *h) {
	int *buf = m_kmalloc(64);
	if (buf == NULL)
		return -ENOMEM;
	int ret = m_register(h, buf);
	if (ret != 0) {
		m_kfree_sensitive(buf);
		return ret;
	}
	return 0;
}
struct hdrv conf_hdrv = { .probe = conf_probe, };
`)
	bugs := New(prog).Detect(specs)
	hinted := false
	for _, b := range bugs {
		if b.Fn.Name == "conf_probe" && strings.Contains(b.Message, "m_kfree_sensitive") &&
			strings.Contains(b.Message, "equivalent post-operation") {
			hinted = true
		}
	}
	if !hinted {
		t.Errorf("missing equivalent-API hint; bugs: %s", dumpBugs(bugs))
	}
}
