package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"seal"
	"seal/internal/obs"
	"seal/internal/patch"
	"seal/internal/randprog"
	"seal/internal/report"
	"seal/internal/serve"
)

// serveRef is the batch-side reference output for one detection: the
// rendered report, the normalized bug records, and the redacted
// observability artifacts — the byte-identity surface a daemon response
// is held to.
type serveRef struct {
	targetHash string
	report     string
	recs       string
	manifest   string
	metrics    string
}

// batchDetectRef runs one batch detection through the public library
// exactly as the CLI does (same render path, same artifact builders,
// content-addressed manifest inputs) and snapshots the comparison surface.
func batchDetectRef(ctx context.Context, files map[string]string, specs []*seal.Spec) (*serveRef, error) {
	specsHash := seal.SpecSetHash(specs)
	targetHash := seal.TargetHash(files)
	rec := seal.NewRecorder()
	rec.StartRun("detect")
	res, _, runErr := seal.DetectFiles(ctx, files, specs, seal.DetectRunOptions{
		Workers: 1, Obs: rec,
	})
	if runErr != nil {
		return nil, runErr
	}
	rendered := report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, len(specs), true)
	art, err := seal.FinishDetectRun(rec, res, len(specs), 1,
		serve.DetectInputs(targetHash, specsHash), 0)
	if err != nil {
		return nil, err
	}
	manifest, err := art.Manifest.Redact().MarshalIndent()
	if err != nil {
		return nil, err
	}
	return &serveRef{
		targetHash: targetHash,
		report:     rendered,
		recs:       NormalizeRecs(res.Recs),
		manifest:   string(manifest),
		metrics:    obs.RedactTimings(art.Metrics),
	}, nil
}

// postJSON posts a request body and decodes the response into out,
// requiring the given status.
func postJSON(client *http.Client, url string, in, out any, wantStatus int) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var eb bytes.Buffer
		eb.ReadFrom(resp.Body)
		return fmt.Errorf("%s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, eb.String())
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// compareDetect diffs a daemon detect response against the batch
// reference and appends any divergence.
func compareDetect(divs []Divergence, conf string, ref *serveRef, resp *serve.DetectResponse) []Divergence {
	if resp.TargetHash != ref.targetHash {
		divs = append(divs, Divergence{Stage: "serve", Conf: conf,
			Ref: "target " + ref.targetHash, Got: "target " + resp.TargetHash})
	}
	if resp.Report != ref.report {
		divs = append(divs, Divergence{Stage: "serve", Conf: conf + " report", Ref: ref.report, Got: resp.Report})
	}
	if got := NormalizeRecs(resp.Bugs); got != ref.recs {
		divs = append(divs, Divergence{Stage: "serve", Conf: conf + " recs", Ref: ref.recs, Got: got})
	}
	redacted, err := resp.Manifest.Redact().MarshalIndent()
	if err != nil {
		divs = append(divs, Divergence{Stage: "serve", Conf: conf + " manifest", Ref: ref.manifest, Got: err.Error()})
	} else if string(redacted) != ref.manifest {
		divs = append(divs, Divergence{Stage: "serve", Conf: conf + " manifest", Ref: ref.manifest, Got: string(redacted)})
	}
	if got := obs.RedactTimings(resp.Metrics); got != ref.metrics {
		divs = append(divs, Divergence{Stage: "serve", Conf: conf + " metrics", Ref: ref.metrics, Got: got})
	}
	return divs
}

// RunServeCase is the serve-mode differential protocol for one generated
// case: every daemon response must be byte-identical to a batch run of the
// same request — reports, normalized records, redacted manifests, redacted
// metrics — through the full serving lifecycle:
//
//	infer (upload the patch, publish the specs)   vs batch inference
//	detect (cold substrate)                       vs batch detection
//	detect again (resident memo replay, workers=4) vs the same reference
//	edit A: touch one file (same function set)    vs batch over edited tree
//	edit B: add a function (changed function set) vs batch over edited tree
//
// Edit A re-parses one file over an unchanged function set, edit B
// changes the definition set; after each, the successor snapshot's
// substrate is rebuilt lazily. Returns the divergences.
func RunServeCase(c *randprog.PatchCase) ([]Divergence, error) {
	ctx := context.Background()
	srv, err := serve.New(serve.Config{Workers: 1}, c.Target, nil)
	if err != nil {
		return nil, fmt.Errorf("seed %d: serve.New: %w", c.Seed, err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var divs []Divergence

	// Inference: batch reference vs daemon upload.
	patches := []*patch.Patch{c.Patch}
	patchesHash, err := serve.PatchSetHash(patches)
	if err != nil {
		return nil, err
	}
	rec := seal.NewRecorder()
	rec.StartRun("infer")
	refInfer, runErr := seal.InferSpecsContext(ctx, patches, seal.Options{
		Validate: true, Workers: 1, Obs: rec,
	})
	if runErr != nil {
		return nil, fmt.Errorf("seed %d: reference inference: %w", c.Seed, runErr)
	}
	refArt, err := seal.FinishInferRun(rec, refInfer, 1, 1, serve.InferInputs(patchesHash, true))
	if err != nil {
		return nil, err
	}
	refManifest, err := refArt.Manifest.Redact().MarshalIndent()
	if err != nil {
		return nil, err
	}
	var inferResp serve.InferResponse
	if err := postJSON(ts.Client(), ts.URL+"/infer",
		serve.InferRequest{Patches: patches, Publish: true}, &inferResp, http.StatusOK); err != nil {
		return nil, fmt.Errorf("seed %d: %w", c.Seed, err)
	}
	refDB := NormalizeDB(refInfer.DB)
	if got := NormalizeDB(inferResp.DB); got != refDB {
		divs = append(divs, Divergence{Stage: "serve", Conf: "infer db", Ref: refDB, Got: got})
	}
	if redacted, err := inferResp.Manifest.Redact().MarshalIndent(); err != nil || string(redacted) != string(refManifest) {
		divs = append(divs, Divergence{Stage: "serve", Conf: "infer manifest",
			Ref: string(refManifest), Got: string(redacted)})
	}
	if got, want := obs.RedactTimings(inferResp.Metrics), obs.RedactTimings(refArt.Metrics); got != want {
		divs = append(divs, Divergence{Stage: "serve", Conf: "infer metrics", Ref: want, Got: got})
	}
	if !inferResp.Published || inferResp.Epoch != 2 {
		divs = append(divs, Divergence{Stage: "serve", Conf: "infer publish",
			Ref: "published epoch 2", Got: fmt.Sprintf("published=%t epoch=%d", inferResp.Published, inferResp.Epoch)})
	}
	specs := refInfer.DB.Specs

	// Detection: cold daemon request vs batch reference.
	ref, err := batchDetectRef(ctx, c.Target, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference detection: %w", c.Seed, err)
	}
	var det serve.DetectResponse
	if err := postJSON(ts.Client(), ts.URL+"/detect",
		serve.DetectRequest{Report: true}, &det, http.StatusOK); err != nil {
		return nil, fmt.Errorf("seed %d: %w", c.Seed, err)
	}
	divs = compareDetect(divs, "detect-cold", ref, &det)

	// Resident replay: the repeat request must replay the memoized result
	// byte-identically, at any worker count.
	var warm serve.DetectResponse
	if err := postJSON(ts.Client(), ts.URL+"/detect",
		serve.DetectRequest{Report: true, Workers: 4}, &warm, http.StatusOK); err != nil {
		return nil, fmt.Errorf("seed %d: %w", c.Seed, err)
	}
	divs = compareDetect(divs, "detect-resident", ref, &warm)

	// Edit A: touch one file without changing the function set. The
	// daemon's incremental rebuild (one file re-parsed) must be
	// byte-identical to a full batch rerun over the edited tree.
	names := make([]string, 0, len(c.Target))
	for n := range c.Target {
		names = append(names, n)
	}
	sort.Strings(names)
	edited := make(map[string]string, len(c.Target))
	for n, src := range c.Target {
		edited[n] = src
	}
	edited[names[0]] = c.Target[names[0]] + "\n"
	var editResp serve.EditResponse
	if err := postJSON(ts.Client(), ts.URL+"/edit",
		serve.EditRequest{Files: map[string]string{names[0]: edited[names[0]]}}, &editResp, http.StatusOK); err != nil {
		return nil, fmt.Errorf("seed %d: edit A: %w", c.Seed, err)
	}
	if editResp.ReusedFiles != len(c.Target)-1 || editResp.ParsedFiles != 1 {
		divs = append(divs, Divergence{Stage: "serve", Conf: "edit-A incremental",
			Ref: fmt.Sprintf("reused=%d parsed=1", len(c.Target)-1),
			Got: fmt.Sprintf("reused=%d parsed=%d", editResp.ReusedFiles, editResp.ParsedFiles)})
	}
	refA, err := batchDetectRef(ctx, edited, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: edited reference: %w", c.Seed, err)
	}
	var detA serve.DetectResponse
	if err := postJSON(ts.Client(), ts.URL+"/detect",
		serve.DetectRequest{Report: true}, &detA, http.StatusOK); err != nil {
		return nil, fmt.Errorf("seed %d: %w", c.Seed, err)
	}
	divs = compareDetect(divs, "detect-after-edit-A", refA, &detA)

	// Edit B: add a function — the definition set changes, and the daemon
	// must still match a full batch rerun.
	edited2 := make(map[string]string, len(edited))
	for n, src := range edited {
		edited2[n] = src
	}
	added := "\nint seal_serve_probe_added(int x) {\n\treturn x;\n}\n"
	edited2[names[0]] = edited[names[0]] + added
	var editResp2 serve.EditResponse
	if err := postJSON(ts.Client(), ts.URL+"/edit",
		serve.EditRequest{Files: map[string]string{names[0]: edited2[names[0]]}}, &editResp2, http.StatusOK); err != nil {
		return nil, fmt.Errorf("seed %d: edit B: %w", c.Seed, err)
	}
	refB, err := batchDetectRef(ctx, edited2, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: edited-2 reference: %w", c.Seed, err)
	}
	var detB serve.DetectResponse
	if err := postJSON(ts.Client(), ts.URL+"/detect",
		serve.DetectRequest{Report: true}, &detB, http.StatusOK); err != nil {
		return nil, fmt.Errorf("seed %d: %w", c.Seed, err)
	}
	divs = compareDetect(divs, "detect-after-edit-B", refB, &detB)
	return divs, nil
}
