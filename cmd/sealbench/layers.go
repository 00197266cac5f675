package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"seal/internal/cache"
	"seal/internal/callgraph"
	"seal/internal/cir"
	"seal/internal/dataflow"
	"seal/internal/ir"
	"seal/internal/progindex"
	"seal/internal/spec"
	"seal/internal/specdb"
)

// sink keeps the results of probed calls alive.
var sink any

// groupedStats is the grouped-path summary of a store-backed detection.
type groupedStats struct{ Groups, Warm, Computed int }

// runManifest is the part of a seal run manifest (-manifest-out, or the
// "manifest" of a serve response) that the benchmark reads.
type runManifest struct {
	Command   string             `json:"command"`
	StartedAt time.Time          `json:"started_at"`
	WallMS    float64            `json:"wall_ms"`
	Workers   int                `json:"workers"`
	Counters  map[string]float64 `json:"counters"`
	Units     []struct {
		ID     string  `json:"id"`
		DurMS  float64 `json:"dur_ms"`
		Stages []struct {
			Name  string  `json:"name"`
			DurMS float64 `json:"dur_ms"`
		} `json:"stages"`
	} `json:"units"`
}

func (m *runManifest) unitsMS() float64 {
	var sum float64
	for _, u := range m.Units {
		sum += u.DurMS
	}
	return sum
}

// stageMS sums one stage over every unit.
func (m *runManifest) stageMS(name string) float64 {
	var sum float64
	for _, u := range m.Units {
		for _, s := range u.Stages {
			if s.Name == name {
				sum += s.DurMS
			}
		}
	}
	return sum
}

func (m *runManifest) renderMS() float64 { return m.Counters["seal_report_render_seconds"] * 1000 }

// tracedOp is one detect op of a workload's traced pass.
type tracedOp struct {
	start     time.Time
	wall      float64 // ms, as the client measured it
	man       runManifest
	grouped   *groupedStats // nil when the op reports none
	respBytes int           // CLI stdout or HTTP response body
	cli       bool          // a seal child process; otherwise a serve request
	workers   int
}

// layerSamples gathers per-layer samples by metric name.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// med is the median of a metric's samples, 0 when it has none.
func (l layerSamples) med(name string) float64 {
	if len(l[name]) == 0 {
		return 0
	}
	return median(l[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracePass measures the per-layer figures of one workload after its timed
// loop, in four steps: in-process probes of the layers the CLI has no
// spans for, cold instrumented `seal infer` and `seal detect` runs for the
// analysis layers, cache and spec-store probes, and the workload's own ops
// with the program's instruments on. untraced is the timed loop's median
// detect latency, the base of trace.overhead_ratio.
func (b *bench) tracePass(ctx context.Context, w *workload, sess session, ref *reference, st *samples, untraced float64) (map[string]float64, error) {
	t := b.tr
	ls := layerSamples{}
	reps := b.plan.reps

	for i := 0; i < reps; i++ {
		r := b.cli.run(ctx, ref.dir, "help")
		if r.err != nil {
			return nil, r.err
		}
		t.add(t.op(), 0, "proc.spawn", srcBench, r.start, r.wall)
		ls.add("proc.spawn_ms", r.ms())
	}
	if err := probeFrontend(t, ref, reps, ls); err != nil {
		return nil, err
	}
	if err := b.probeAnalysis(ctx, w, ref, st, ls); err != nil {
		return nil, err
	}
	if err := b.probeCache(ctx, ref, ls); err != nil {
		return nil, err
	}
	if err := b.probeSpecDB(sess, ref, ls); err != nil {
		return nil, err
	}

	out := map[string]float64{}
	for name := range ls {
		out[name] = ls.med(name)
	}
	out["cir.parse_mb_per_s"] = ratio(float64(corpusBytes(ref))/(1<<20), out["cir.parse_ms"]/1000)

	ops := sess.traced(ctx, reps, st)
	if len(ops) == 0 {
		return nil, fmt.Errorf("traced pass: no detect op succeeded")
	}
	opLs := layerSamples{}
	var groups, warm, computed float64
	for _, op := range ops {
		hits := op.man.Counters["seal_pcache_hits_total"]
		misses := op.man.Counters["seal_pcache_misses_total"]
		g := op.grouped
		if g == nil {
			// The flat path replays the whole corpus from the cache or
			// computes every group.
			g = &groupedStats{Groups: len(op.man.Units)}
			if hits > 0 {
				g.Warm = g.Groups
			} else {
				g.Computed = g.Groups
			}
		}
		groups += float64(g.Groups)
		warm += float64(g.Warm)
		computed += float64(g.Computed)
		opLs.add("cache.hits", hits)
		opLs.add("cache.misses", misses)
		opLs.add("op.wall_ms", op.wall)
		opLs.add("op.server_ms", op.man.WallMS)
		opLs.add("op.overhead_ms", op.wall-op.man.WallMS)
		opLs.add("op.response_kb", float64(op.respBytes)/1024)
		unacc := op.wall - attribute(t, op, out, hits)
		opLs.add("trace.unaccounted_ms", unacc)
		opLs.add("trace.unaccounted_ratio", ratio(unacc, op.wall))
	}
	for name := range opLs {
		out[name] = opLs.med(name)
	}
	out["cache.hit_ratio"] = ratio(out["cache.hits"], out["cache.hits"]+out["cache.misses"])
	out["detect.groups_computed"] = computed / float64(len(ops))
	out["detect.groups_warm_ratio"] = ratio(warm, groups)
	out["trace.overhead_ratio"] = ratio(out["op.wall_ms"], untraced)
	if ss, ok := sess.(*serveSession); ok {
		memo, funcs, err := ss.residency(ctx)
		if err != nil {
			return nil, err
		}
		out["serve.memo_entries"], out["serve.resident_pdg_funcs"] = memo, funcs
	}
	return out, nil
}

// attribute records a traced detect op's spans and returns the part of its
// wall time that named layers account for: process start for a CLI op;
// the parsing front end for a cold op, fingerprinting and cache reads for
// a warm one, or the HTTP exchange outside the run for a serve request;
// the detection units (their summed time over the worker count); and the
// report render.
func attribute(t *tracer, op tracedOp, probes map[string]float64, hits float64) float64 {
	id := t.op()
	root := t.add(id, 0, "op.detect", srcBench, op.start, msDur(op.wall))
	at := op.man.StartedAt
	var sum float64
	lay := func(name string, ms float64) {
		t.add(id, root, name, srcProbe, at, msDur(ms))
		at = at.Add(msDur(ms))
		sum += ms
	}
	if op.cli {
		t.add(id, root, "proc.spawn", srcProbe, op.start, msDur(probes["proc.spawn_ms"]))
		sum += probes["proc.spawn_ms"]
	}
	switch {
	case !op.cli:
		sum += op.wall - op.man.WallMS
	case hits > 0:
		lay("cache.fingerprint", probes["cache.fingerprint_ms"])
		lay("cache.get", probes["cache.get_detect_ms"])
	default:
		for _, l := range []string{"cir.parse", "ir.lower", "dataflow.pointsto", "callgraph.build", "progindex.build"} {
			lay(l, probes[l+"_ms"])
		}
	}
	t.addRun(id, root, &op.man, at)
	return sum + op.man.unitsMS()/float64(max(1, op.workers)) + op.man.renderMS()
}

// probeFrontend times, in process, the layers a cold detect runs before its
// units: parse every tree file, lower, points-to, call graph and program
// index; plus patch analysis and the cache's source fingerprint.
func probeFrontend(t *tracer, ref *reference, reps int, ls layerSamples) error {
	c := ref.corpus
	names := c.SortedFileNames()
	for i := 0; i < reps; i++ {
		runtime.GC()
		op := t.op()
		var files []*cir.File
		var prog *ir.Program
		steps := []struct {
			name string
			fn   func() error
		}{
			{"cir.parse", func() error {
				files = files[:0]
				for _, n := range names {
					f, err := cir.ParseFile(n, c.Files[n])
					if err != nil {
						return err
					}
					files = append(files, f)
				}
				return nil
			}},
			{"ir.lower", func() (err error) { prog, err = ir.NewProgram(files...); return err }},
			{"dataflow.pointsto", func() error { sink = dataflow.Analyze(prog); return nil }},
			{"callgraph.build", func() error { sink = callgraph.Build(prog); return nil }},
			{"progindex.build", func() error { sink = progindex.Build(prog); return nil }},
			{"patch.analyze", func() error {
				for _, p := range c.Patches {
					a, err := p.Analyze()
					if err != nil {
						return err
					}
					sink = a
				}
				return nil
			}},
			{"cache.fingerprint", func() error { sink = cache.FileSetHash(c.Files); return nil }},
		}
		for _, s := range steps {
			ms, err := t.measure(op, 0, s.name, s.fn)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			ls.add(s.name+"_ms", ms)
		}
		ls.add("ir.funcs", float64(len(prog.FuncList)))
		ls.add("ir.stmts", float64(len(prog.AllStmts())))
	}
	return nil
}

func corpusBytes(ref *reference) int {
	n := 0
	for _, src := range ref.corpus.Files {
		n += len(src)
	}
	return n
}

// probeAnalysis runs cold `seal infer` and `seal detect` (the workload's
// detect shape, no cache) with -manifest-out and -metrics-out on the
// reference corpus, and reads the analysis layers from their manifests.
func (b *bench) probeAnalysis(ctx context.Context, w *workload, ref *reference, st *samples, ls layerSamples) error {
	t := b.tr
	obs := func(tag string) []string {
		return []string{"-manifest-out", "probe-" + tag + ".json", "-metrics-out", "probe-" + tag + ".prom"}
	}
	detectArgs := []string{"detect", "-target", "tree", "-workers", strconv.Itoa(w.workers)}
	if w.storeBacked {
		if r := b.cli.run(ctx, ref.dir, "specdb", "-db", "probe.db", "-import", "specs.json"); r.err != nil {
			return r.err
		}
		detectArgs = append(detectArgs, "-spec-db", "probe.db")
	} else {
		detectArgs = append(detectArgs, "-specs", "specs.json")
	}
	for i := 0; i < min(3, b.plan.reps); i++ {
		r := b.cli.run(ctx, ref.dir, append([]string{"infer", "-patches", "patches", "-out", "probe-specs.json", "-workers", "1"}, obs("infer")...)...)
		problem := ""
		if r.err == nil {
			got, err := os.ReadFile(filepath.Join(ref.dir, "probe-specs.json"))
			if err != nil {
				return err
			}
			problem = sameBytes("probe infer specs.json", got, ref.specs)
		}
		st.add(opWrite, r.ms(), 0, r.err, problem)
		var im runManifest
		if err := readJSON(filepath.Join(ref.dir, "probe-infer.json"), &im); err != nil {
			return err
		}
		id := t.op()
		t.addRun(id, t.add(id, 0, "cli.infer", srcBench, r.start, r.wall), &im, im.StartedAt)
		ls.add("infer.run_ms", im.WallMS)
		for stage, metric := range map[string]string{"parse": "infer.parse_ms", "pdg": "infer.pdg_ms", "diff": "infer.diff_ms", "infer": "infer.deduce_ms", "validate": "infer.validate_ms"} {
			ls.add(metric, im.stageMS(stage))
		}
		ls.add("infer.specs", im.Counters["seal_infer_specs_total"])
		ls.add("infer.zero_relation_patches", im.Counters["seal_infer_zero_relation_patches_total"])
		ls.add("solver.sat_memo_hit_ratio", ratio(im.Counters["seal_solver_sat_memo_hits_total"],
			im.Counters["seal_solver_sat_memo_hits_total"]+im.Counters["seal_solver_sat_memo_misses_total"]))

		r = b.cli.run(ctx, ref.dir, append(detectArgs, obs("detect")...)...)
		problem = ""
		if r.err == nil {
			problem = sameBytes("probe detect stdout", r.stdout, ref.report)
		}
		st.add(opDetect, r.ms(), 0, r.err, problem)
		var dm runManifest
		if err := readJSON(filepath.Join(ref.dir, "probe-detect.json"), &dm); err != nil {
			return err
		}
		id = t.op()
		t.addRun(id, t.add(id, 0, "cli.detect", srcBench, r.start, r.wall), &dm, dm.StartedAt)
		c := dm.Counters
		ls.add("pdg.build_ms", c["seal_pdg_build_seconds_total"]*1000)
		ls.add("pdg.builds", c["seal_pdg_builds_total"])
		ls.add("pdg.ensure_calls", c["seal_pdg_ensure_calls_total"])
		ls.add("pdg.build_ratio", ratio(c["seal_pdg_builds_total"], c["seal_pdg_ensure_calls_total"]))
		ls.add("vfp.slice_ms", dm.stageMS("slice"))
		ls.add("vfp.path_enumerations", c["seal_path_enumerations_total"])
		ls.add("vfp.truncations", c["seal_truncations_total"])
		ls.add("detect.path_cache_hit_ratio", c["seal_path_cache_hit_ratio"])
		ls.add("solver.solve_ms", dm.stageMS("solve"))
		ls.add("solver.sat_checks", c["seal_solver_sat_checks_total"])
		ls.add("progindex.lookups", c["seal_index_lookups_total"])
		ls.add("detect.run_ms", dm.WallMS)
		ls.add("detect.units_ms", dm.unitsMS())
		ls.add("detect.groups", float64(len(dm.Units)))
		ls.add("detect.reports", c["seal_detect_bugs_total"])
		ls.add("detect.parallelism", ratio(dm.unitsMS(), dm.WallMS))
		ls.add("report.render_ms", dm.renderMS())
	}
	return nil
}

// probeCache fills a fresh cache with one `seal infer` and one `seal
// detect` on the reference corpus, then times reading back every entry
// through cache.Get: the read, checksum and decode a warm run pays. The
// "detect" tier's share is what a warm flat `seal detect` reads.
func (b *bench) probeCache(ctx context.Context, ref *reference, ls layerSamples) error {
	dir := filepath.Join(ref.dir, "probe-cache")
	for _, args := range [][]string{
		{"infer", "-patches", "patches", "-out", "probe-specs.json", "-cache-dir", dir},
		{"detect", "-target", "tree", "-specs", "specs.json", "-cache-dir", dir},
	} {
		if r := b.cli.run(ctx, ref.dir, args...); r.err != nil {
			return r.err
		}
	}
	type entry struct{ tier, key string }
	var entries []entry
	var bytes int64
	// Entries live at <dir>/<cache subtree>/<version>/<tier>/<fanout>/<key>.json.
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		tier := filepath.Base(filepath.Dir(filepath.Dir(path)))
		entries = append(entries, entry{tier, strings.TrimSuffix(filepath.Base(path), ".json")})
		bytes += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("cache probe: no entries under %s", dir)
	}
	c, err := cache.Open(dir, true)
	if err != nil {
		return err
	}
	for i := 0; i < b.plan.reps; i++ {
		var detectTier time.Duration
		ms, err := b.tr.measure(b.tr.op(), 0, "cache.get", func() error {
			for _, e := range entries {
				start := time.Now()
				var v json.RawMessage
				if !c.Get(e.tier, e.key, &v) {
					return fmt.Errorf("cache probe: entry %s/%s does not read back", e.tier, e.key)
				}
				if e.tier == "detect" {
					detectTier += time.Since(start)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ls.add("cache.get_ms", ms)
		ls.add("cache.get_detect_ms", float64(detectTier.Nanoseconds())/1e6)
	}
	ls.add("cache.entries", float64(len(entries)))
	ls.add("cache.entry_kb", float64(bytes)/1024/float64(len(entries)))
	return nil
}

// probeSpecDB times the spec store in process: importing the reference
// specs into a fresh store, and on a copy of the session's store (or of a
// fresh import when the session has none) one-spec Batch+Flush edits and
// Snapshot.Specs reads. The dead-page ratio and file size are the copy's
// before the probe edits it.
func (b *bench) probeSpecDB(sess session, ref *reference, ls layerSamples) error {
	t := b.tr
	var db spec.DB
	if err := json.Unmarshal(ref.specs, &db); err != nil {
		return err
	}
	dir := filepath.Join(b.work, "probe-specdb")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < b.plan.reps; i++ {
		path := filepath.Join(dir, fmt.Sprintf("import-%d.db", i))
		ms, err := t.measure(t.op(), 0, "specdb.import", func() error {
			st, err := specdb.Create(path)
			if err != nil {
				return err
			}
			if _, _, err := st.ImportSpecs(db.Specs); err != nil {
				st.Close()
				return err
			}
			return st.Close()
		})
		if err != nil {
			return err
		}
		ls.add("specdb.import_ms", ms)
	}
	src := sess.store()
	if src == "" {
		src = filepath.Join(dir, "import-0.db")
	}
	cp := filepath.Join(dir, "under-test.db")
	for _, suffix := range []string{"", ".wal"} {
		if err := copyFile(src+suffix, cp+suffix); err != nil && !(suffix != "" && os.IsNotExist(err)) {
			return err
		}
	}
	st, err := specdb.Open(cp)
	if err != nil {
		return err
	}
	defer st.Close()
	stats := st.Stats()
	ls.add("specdb.dead_page_ratio", stats.DeadPageRatio)
	ls.add("specdb.file_mb", float64(stats.FileBytes)/(1<<20))
	for i := 0; i < b.plan.reps; i++ {
		sp := *db.Specs[i%len(db.Specs)]
		sp.OriginPatch += fmt.Sprintf("~probe%d", i)
		ms, err := t.measure(t.op(), 0, "specdb.batch_flush", func() error {
			batch := st.Batch()
			if _, err := batch.UpsertSpec(&sp); err != nil {
				batch.Discard()
				return err
			}
			return batch.Flush()
		})
		if err != nil {
			return err
		}
		ls.add("specdb.batch_flush_ms", ms)
		ms, err = t.measure(t.op(), 0, "specdb.snapshot_specs", func() error {
			specs, err := st.Current().Specs()
			sink = specs
			return err
		})
		if err != nil {
			return err
		}
		ls.add("specdb.snapshot_specs_ms", ms)
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
