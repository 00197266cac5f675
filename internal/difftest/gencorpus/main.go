// Command gencorpus regenerates the checked-in fuzz seed corpora under
// internal/*/testdata/fuzz. Run from
// the repository root:
//
//	go run ./internal/difftest/gencorpus
//
// Corpus entries use the native `go test fuzz v1` encoding, one argument
// per line, so `go test -fuzz=...` picks them up directly and a failing
// input written by the fuzzer can be diffed against them.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"

	"seal"
	"seal/internal/cir"
	"seal/internal/detect"
	"seal/internal/kernelgen"
	"seal/internal/randprog"
	"seal/internal/spec"
	"seal/internal/specdb"
)

func writeEntry(dir, name string, args ...string) error {
	lines := make([]string, len(args))
	for i, a := range args {
		lines[i] = "string(" + strconv.Quote(a) + ")"
	}
	return writeRaw(dir, name, lines...)
}

// writeRaw writes a corpus entry from already-encoded argument lines (e.g.
// `int64(7)`), for targets with non-string arguments.
func writeRaw(dir, name string, lines ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	content := "go test fuzz v1\n"
	for _, l := range lines {
		content += l + "\n"
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func main() {
	parseDir := filepath.Join("internal", "cir", "testdata", "fuzz", "FuzzParseFile")
	inferDir := filepath.Join("internal", "difftest", "testdata", "fuzz", "FuzzInferPatch")
	detectDir := filepath.Join("internal", "difftest", "testdata", "fuzz", "FuzzDetectDifferential")

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "gencorpus:", err)
		os.Exit(1)
	}

	// Parser seeds: the running example, a random structured program, and
	// one generated driver of each mutation kind.
	if err := writeEntry(parseDir, "fig3", cir.Fig3Source); err != nil {
		fail(err)
	}
	if err := writeEntry(parseDir, "randprog", randprog.Program(3, 3, randprog.Default())); err != nil {
		fail(err)
	}
	for i, kind := range randprog.AllMutKinds {
		c := randprog.GenPatchCase(int64(i)) // seed i yields kind i
		for file, src := range c.Patch.Post {
			_ = file
			if err := writeEntry(parseDir, "case_"+string(kind), src); err != nil {
				fail(err)
			}
		}
	}

	// Inference seeds: (pre, post) pairs of every mutation kind plus a
	// no-op refactor pair.
	for i := range randprog.AllMutKinds {
		c := randprog.GenPatchCase(int64(i))
		for file := range c.Patch.Pre {
			if err := writeEntry(inferDir, "case_"+string(c.Kind), c.Patch.Pre[file], c.Patch.Post[file]); err != nil {
				fail(err)
			}
		}
	}
	if err := writeEntry(inferDir, "noop",
		"int f(int a) { return a + 1; }\n", "int f(int a) { return 1 + a; }\n"); err != nil {
		fail(err)
	}

	// Detection seeds: one buggy sibling per mutation kind.
	for i := range randprog.AllMutKinds {
		c := randprog.GenPatchCase(int64(i))
		for _, file := range sorted(c.Target) {
			if err := writeEntry(detectDir, "target_"+string(c.Kind), c.Target[file]); err != nil {
				fail(err)
			}
			break
		}
	}

	// Budget seeds: the same targets paired with tiny step/memory/path/depth
	// budgets, so FuzzDetectBudget starts from inputs that actually trip
	// each budget dimension.
	budgetDir := filepath.Join("internal", "difftest", "testdata", "fuzz", "FuzzDetectBudget")
	budgets := [][4]string{
		{"int64(50)", "int64(1024)", "int(2)", "int(3)"},
		{"int64(1)", "int64(1)", "int(1)", "int(1)"},
		{"int64(10000)", "int64(64)", "int(4)", "int(8)"},
	}
	for i := range randprog.AllMutKinds {
		c := randprog.GenPatchCase(int64(i))
		b := budgets[i%len(budgets)]
		for _, file := range sorted(c.Target) {
			if err := writeRaw(budgetDir, "budget_"+string(c.Kind),
				"string("+strconv.Quote(c.Target[file])+")", b[0], b[1], b[2], b[3]); err != nil {
				fail(err)
			}
			break
		}
	}

	// Serve seeds: (method, path, body) triples covering every daemon
	// endpoint, the file-upload path of /edit, budget overrides, and each
	// class of malformed request the error envelope machinery handles.
	serveDir := filepath.Join("internal", "serve", "testdata", "fuzz", "FuzzServeRequest")
	serveCase := randprog.GenPatchCase(0)
	var serveSrc string
	for _, file := range sorted(serveCase.Target) {
		serveSrc = serveCase.Target[file]
		break
	}
	editBody, err := json.Marshal(map[string]any{"files": map[string]string{"seed.c": serveSrc}})
	if err != nil {
		fail(err)
	}
	patchBody, err := json.Marshal(map[string]any{"patches": []any{serveCase.Patch}, "publish": true})
	if err != nil {
		fail(err)
	}
	serveSeeds := []struct{ name, method, path, body string }{
		{"detect", "POST", "/detect", "{}"},
		{"detect_limits", "POST", "/detect", `{"workers":4,"report":true,"limits":{"max_steps":10,"max_paths":1,"max_failures":1}}`},
		{"infer_publish", "POST", "/infer", string(patchBody)},
		{"infer_empty", "POST", "/infer", `{"patches":[]}`},
		{"edit_upload", "POST", "/edit", string(editBody)},
		{"edit_broken", "POST", "/edit", `{"files":{"c.c":"int broken( {{{"}}`},
		{"edit_delete", "POST", "/edit", `{"delete":["a.c"]}`},
		{"stats", "GET", "/stats", ""},
		{"metrics", "GET", "/metrics", ""},
		{"bad_method", "PUT", "/detect", ""},
		{"bad_path", "POST", "/unknown", "x"},
		{"bad_json", "POST", "/detect", "{not json"},
		{"unknown_field", "POST", "/detect", `{"bogus":1}`},
	}
	for _, s := range serveSeeds {
		if err := writeEntry(serveDir, s.name, s.method, s.path, s.body); err != nil {
			fail(err)
		}
	}

	// Coordinator wire seeds: (job, result) JSON pairs covering a clean
	// round trip, out-of-range bug ordinals, unknown unit names, and raw
	// garbage — the decode-then-merge path FuzzShardWire exercises.
	coordDir := filepath.Join("internal", "coord", "testdata", "fuzz", "FuzzShardWire")
	coordSeeds := []struct{ name, job, result string }{
		{"clean", `{"shard":0,"shards":2,"target_hash":"t","workers":1}`,
			`{"shard":0,"bugs":[{"key":"f|api:a | nonnull","spec_id":"s1","ord":0,"rec":{"kind":"missing-check","fn":"f","spec_scope":"api:a"}}],"stats":{"EnsureCalls":2,"EnsureBuilds":1}}`},
		{"ord_out_of_range", `{"shard":1,"shards":2}`,
			`{"shard":0,"bugs":[{"key":"k","ord":-1},{"key":"k2","ord":9999}]}`},
		{"unknown_units", `{"shard":0}`,
			`{"shard":0,"failures":[{"Unit":"api:nope","Stage":"detect","Reason":"panic"}],"degraded":[{"Unit":"ghost"}]}`},
		{"manifest_units", `{"specs":{"specs":[{"id":"x","api":"a"}]}}`,
			`{"shard":0,"units":[{"id":"api:a","specs":1}],"manifest_units":[{"id":"api:a","stage":"detect","outcome":"ok"}]}`},
		{"garbage", `not json`, `still not json`},
		{"empty", `{}`, `{"shard":0}`},
	}
	for _, s := range coordSeeds {
		if err := writeEntry(coordDir, s.name, s.job, s.result); err != nil {
			fail(err)
		}
	}

	// Spec-store image seeds: a real (tiny) store file plus a flipped
	// header, a torn tail and a format-1 paged-store meta page, feeding
	// FuzzStoreImage's open contract.
	if err := writeStoreImageSeeds(filepath.Join("internal", "specdb", "testdata", "fuzz", "FuzzStoreImage")); err != nil {
		fail(err)
	}

	// WAL record seeds: valid put/delete frames from the real encoder
	// plus the three hostile classes FuzzWALRecord's contract names —
	// truncated, flipped-checksum, and version-skewed-but-resealed —
	// feeding the record-log scanner's torn-tail discipline.
	if err := writeWALRecordSeeds(filepath.Join("internal", "specdb", "testdata", "fuzz", "FuzzWALRecord")); err != nil {
		fail(err)
	}

	// Outcome codec seeds: real region-group entries of a cold-batch
	// detection (the eval corpus at 10 instances, seed 1), feeding
	// FuzzOutcomeCodec's decode contract.
	if err := writeOutcomeSeeds(filepath.Join("internal", "detect", "testdata", "fuzz", "FuzzOutcomeCodec")); err != nil {
		fail(err)
	}

	fmt.Println("fuzz seed corpora regenerated")
}

func writeOutcomeSeeds(dir string) error {
	cfg := kernelgen.EvalConfig()
	cfg.Instances, cfg.Seed = 10, 1
	c := kernelgen.Generate(cfg)
	inf, err := seal.InferSpecs(c.Patches, seal.Options{Validate: true})
	if err != nil {
		return err
	}
	t, err := seal.LoadFiles(c.Files)
	if err != nil {
		return err
	}
	specs := inf.DB.Specs
	var groups [][]*spec.Spec
	for _, g := range detect.ScopeGroups(specs) {
		subset := make([]*spec.Spec, len(g))
		for k, si := range g {
			subset[k] = specs[si]
		}
		groups = append(groups, subset)
	}
	outs, err := detect.NewShared(t.Prog).RunGroups(context.Background(), groups, 1, seal.Limits{}, nil)
	if err != nil {
		return err
	}
	// The group with the most bugs, and the first with none.
	most, none := outs[0], (*detect.Outcome)(nil)
	for _, o := range outs {
		if len(o.Bugs) > len(most.Bugs) {
			most = o
		}
		if none == nil && len(o.Bugs) == 0 {
			none = o
		}
	}
	if none == nil || len(most.Bugs) == 0 {
		return fmt.Errorf("outcome seeds: want a group with bugs and one without")
	}
	for name, o := range map[string]*detect.Outcome{"most_bugs": most, "no_bugs": none} {
		o.Stats.PDGBuildNanos = 1000 // a wall time: pinned so seeds regenerate byte-identically
		data, err := o.MarshalBinary()
		if err == nil {
			err = writeBytesEntry(dir, name, data)
		}
		if err == nil && o == most {
			err = writeBytesEntry(dir, "truncated", data[:len(data)/2])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeWALRecordSeeds(dir string) error {
	put := specdb.EncodeWALRecord(&specdb.WALRecord{Op: specdb.WALOpPut, Seq: 3, NextOrd: 7,
		Key: []byte("iface:ops.prepare | some-constraint"), Val: []byte(`{"ord":6,"db":{}}`)})
	del := specdb.EncodeWALRecord(&specdb.WALRecord{Op: specdb.WALOpDelete, Seq: 4, NextOrd: 7,
		Key: []byte("api:kfree | k")})
	truncated := put[:len(put)-5]
	flipped := append([]byte(nil), put...)
	flipped[len(flipped)-2] ^= 0x08
	// Version skew with a recomputed checksum: structurally perfect,
	// refused on the version byte alone.
	skew := append([]byte(nil), del...)
	body := skew[4 : len(skew)-8]
	body[0] = specdb.WALVersion + 1
	var sum uint64
	h := fnv.New64a()
	h.Write(body)
	sum = h.Sum64()
	binary.LittleEndian.PutUint64(skew[len(skew)-8:], sum)
	seeds := []struct {
		name string
		data []byte
	}{
		{"put", put},
		{"delete", del},
		{"back_to_back", append(append([]byte(nil), put...), del...)},
		{"truncated", truncated},
		{"flipped_checksum", flipped},
		{"version_skew", skew},
		{"garbage", []byte("garbage that is not a record")},
	}
	for _, s := range seeds {
		if err := writeBytesEntry(dir, s.name, s.data); err != nil {
			return err
		}
	}
	return nil
}

func writeBytesEntry(dir, name string, data []byte) error {
	return writeRaw(dir, name, "[]byte("+strconv.Quote(string(data))+")")
}

func writeStoreImageSeeds(dir string) error {
	tmp, err := os.MkdirTemp("", "specdb-seeds")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, "seed.db")
	st, err := specdb.Create(path)
	if err != nil {
		return err
	}
	seeds := []*spec.Spec{
		{ID: "S1", Iface: "ops.prepare", API: "kmalloc",
			Constraint: spec.Constraint{Forbidden: true}, Origin: spec.OriginRemoved, OriginPatch: "p1"},
		{ID: "S2", API: "kfree",
			Constraint: spec.Constraint{Forbidden: false}, Origin: spec.OriginAdded, OriginPatch: "p2"},
	}
	if _, _, err := st.ImportSpecs(seeds); err != nil {
		return err
	}
	if _, err := st.DeleteSpec(seeds[0].Key()); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The header's baseSeq field with one bit flipped: its checksum
	// must catch it.
	flipped := append([]byte(nil), img...)
	flipped[14] ^= 0x10
	// A format-1 meta page (type 1, magic, version 1, page size 4096,
	// seq 2, npages 2, nextord 1) with a valid page checksum.
	page := make([]byte, 4096)
	page[0] = 1
	copy(page[1:9], "SEALSPDB")
	binary.LittleEndian.PutUint32(page[9:13], 1)
	binary.LittleEndian.PutUint32(page[13:17], 4096)
	binary.LittleEndian.PutUint64(page[17:25], 2)
	binary.LittleEndian.PutUint64(page[33:41], 2)
	binary.LittleEndian.PutUint64(page[41:49], 1)
	h := fnv.New64a()
	h.Write(page[:4088])
	binary.LittleEndian.PutUint64(page[4088:], h.Sum64())
	for _, s := range []struct {
		name string
		data []byte
	}{
		{"image", img},
		{"flipped_header", flipped},
		{"torn_tail", img[:len(img)-5]},
		{"format1_page", page},
	} {
		if err := writeBytesEntry(dir, s.name, s.data); err != nil {
			return err
		}
	}
	return nil
}

func sorted(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
