package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"seal"
	"seal/internal/detect"
	"seal/internal/obs"
	"seal/internal/report"
	"seal/internal/specdb"
)

// Config is the daemon's fixed configuration; request bodies may narrow
// (but not widen) the budget limits per request.
type Config struct {
	// Workers is the default detection/inference worker count (0 = 1).
	Workers int
	// Limits is the default per-unit budget applied to every request.
	Limits seal.Limits
	// Cache composes the daemon with the persistent analysis cache: a
	// restart warms region-group results from disk, and clean results are
	// written back for the next process. Each request runs on its own
	// View, so its seal_pcache_* figures are its own. Nil disables it.
	Cache *seal.Cache
	// RequestTimeout bounds one request's whole run (0 = none). Exceeding
	// it yields a structured 503, never a dropped connection.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// SpecDB is the path of a spec store (internal/specdb) backing the
	// active spec database. When set, the daemon loads its specs from the
	// store's current snapshot at startup, /specs edits append to the
	// store and commit with one fsync, and /detect responses report how
	// incremental each run was. The specs argument to New must be nil in
	// this mode.
	SpecDB string
	// CompactThreshold arms the spec store's ratio-triggered background
	// compaction: when a commit leaves the dead-record ratio (superseded
	// record bytes over committed record bytes) at or above this fraction
	// in (0, 1], the store compacts in the background without blocking
	// snapshot readers. 0 disables it.
	CompactThreshold float64
}

// DefaultMaxBodyBytes bounds uploads: generous for source trees, small
// enough that a hostile client cannot balloon the daemon.
const DefaultMaxBodyBytes = 16 << 20

// Server is the resident analysis service: one snapshot store, one
// metrics registry, stdlib HTTP handlers.
type Server struct {
	cfg   Config
	store *Store
	reg   *obs.Registry
	mux   *http.ServeMux
	// specStore is the open spec store when cfg.SpecDB is set; the
	// source of truth for the active spec database (snapshots re-read it
	// on every publish) and the target of /specs edits.
	specStore *specdb.Store
}

// New builds a server over an initial source tree and spec database
// (specs may be nil).
// With cfg.SpecDB set the spec database comes from the store instead and
// specs must be nil.
func New(cfg Config, files map[string]string, specs []*seal.Spec) (*Server, error) {
	var specStore *specdb.Store
	var storeSeq uint64
	if cfg.SpecDB != "" {
		if specs != nil {
			return nil, fmt.Errorf("serve: specs and SpecDB are mutually exclusive")
		}
		st, err := specdb.OpenOptions(cfg.SpecDB, specdb.Options{CompactThreshold: cfg.CompactThreshold})
		if err != nil {
			return nil, err
		}
		snap := st.Current()
		if specs, err = snap.Specs(); err != nil {
			st.Close()
			return nil, err
		}
		specStore, storeSeq = st, snap.Seq()
	}
	snap, err := BuildSnapshot(files, specs)
	if err != nil {
		if specStore != nil {
			specStore.Close()
		}
		return nil, err
	}
	snap.StoreSeq = storeSeq
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{cfg: cfg, store: NewStore(snap), reg: obs.NewRegistry(), specStore: specStore}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/detect", s.handleDetect)
	s.mux.HandleFunc("/shard", s.handleShard)
	s.mux.HandleFunc("/infer", s.handleInfer)
	s.mux.HandleFunc("/edit", s.handleEdit)
	s.mux.HandleFunc("/specs", s.handleSpecs)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/", s.handleUnknown)
	return s, nil
}

// Store exposes the snapshot store (tests publish through it directly).
func (s *Server) Store() *Store { return s.store }

// Close releases the server's spec store, if any. Call only after the
// HTTP server has stopped serving requests.
func (s *Server) Close() error {
	if s.specStore == nil {
		return nil
	}
	return s.specStore.Close()
}

// Handler is the daemon's HTTP surface: panic containment, body caps, and
// the per-request deadline wrap every endpoint, so no client input or
// analysis outcome can drop a connection without a structured JSON answer.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.writeError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("panic: %v", p), nil)
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		s.reg.Counter("seal_serve_requests_total", "HTTP requests received").Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// ErrorBody is the structured error envelope every non-2xx response
// carries; Failures lists quarantine records when a run aborted.
type ErrorBody struct {
	Status   int                   `json:"status"`
	Code     string                `json:"code"`
	Message  string                `json:"message"`
	Failures []*seal.FailureRecord `json:"failures,omitempty"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, failures []*seal.FailureRecord) {
	s.reg.Counter("seal_serve_errors_total", "requests answered with a structured error").Add(1)
	s.writeJSON(w, status, errorEnvelope{Error: ErrorBody{
		Status: status, Code: code, Message: msg, Failures: failures,
	}})
}

// writeJSON answers status with v's JSON. The body is encoded whole before
// the header is written, so a value that does not encode (a NaN float, say)
// answers the structured 500 instead of a status with an empty body. An
// error envelope always encodes: it holds strings and integers only.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	bd := getBody()
	defer putBody(bd)
	if err := bd.value(v); err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", "encoding response: "+err.Error(), nil)
		return
	}
	bd.send(w, status)
}

// decodeJSON decodes a request body holding one JSON value, with nothing
// after it but whitespace. An empty body decodes to the zero request
// (every field has a serve-side default). Returns (status, code, message)
// on failure.
func decodeJSON(r *http.Request, dst any) (int, string, string) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	var tooLarge *http.MaxBytesError
	if err == nil {
		_, err = dec.Token() // io.EOF: nothing but whitespace follows
		if !errors.Is(err, io.EOF) && !errors.As(err, &tooLarge) {
			err = errors.New("request body continues after its JSON value")
		}
	}
	if err == nil || errors.Is(err, io.EOF) {
		return 0, "", ""
	}
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, "body-too-large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)
	}
	return http.StatusBadRequest, "bad-request", err.Error()
}

// requireMethod answers 405 with a structured body on mismatch.
func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		s.writeError(w, http.StatusMethodNotAllowed, "method-not-allowed",
			fmt.Sprintf("%s requires %s", r.URL.Path, method), nil)
		return false
	}
	return true
}

func (s *Server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, http.StatusNotFound, "not-found",
		fmt.Sprintf("no such endpoint %q", r.URL.Path), nil)
}

// runError maps a run-level abort to its structured response: a request
// deadline (or client cancel) is 503 — the daemon is healthy, this request
// ran out of time; anything else is the budget policy aborting the run
// (max-failures, fail-fast), a 422 carrying the quarantine records.
func (s *Server) runError(w http.ResponseWriter, runErr error, failures []*seal.FailureRecord) {
	if errors.Is(runErr, context.DeadlineExceeded) || errors.Is(runErr, context.Canceled) {
		s.writeError(w, http.StatusServiceUnavailable, "request-deadline",
			"request deadline exceeded before the run completed", failures)
		return
	}
	s.writeError(w, http.StatusUnprocessableEntity, "run-aborted", runErr.Error(), failures)
}

// LimitsSpec is the JSON form of a per-request budget override. A request
// can narrow a limit the server sets but not widen it: each field takes the
// smaller of the request's and the server's value. A zero request field
// inherits the server's value, and where the server's is 0 (no limit, or
// the slicer's default path and depth caps) the request's applies. Retry is
// not narrowed: a request's true turns on the halved-budget retry even when
// the server leaves it off.
type LimitsSpec struct {
	UnitTimeoutMS int64 `json:"unit_timeout_ms,omitempty"`
	MaxSteps      int64 `json:"max_steps,omitempty"`
	MaxMemBytes   int64 `json:"max_mem_bytes,omitempty"`
	MaxPaths      int   `json:"max_paths,omitempty"`
	MaxDepth      int   `json:"max_depth,omitempty"`
	MaxFailures   int   `json:"max_failures,omitempty"`
	Retry         bool  `json:"retry,omitempty"`
}

func (ls *LimitsSpec) limits(def seal.Limits) seal.Limits {
	if ls == nil {
		return def
	}
	out := def
	out.UnitTimeout = narrow(def.UnitTimeout, time.Duration(ls.UnitTimeoutMS)*time.Millisecond)
	out.MaxSteps = narrow(def.MaxSteps, ls.MaxSteps)
	out.MaxMemBytes = narrow(def.MaxMemBytes, ls.MaxMemBytes)
	out.MaxPaths = narrow(def.MaxPaths, ls.MaxPaths)
	out.MaxDepth = narrow(def.MaxDepth, ls.MaxDepth)
	out.MaxFailures = narrow(def.MaxFailures, ls.MaxFailures)
	if ls.Retry {
		out.Retry = true
	}
	return out
}

// narrow returns the tighter of a server limit and a request's, where 0
// (or less) means unset on either side.
func narrow[T ~int | ~int64](server, req T) T {
	if req <= 0 || (server > 0 && server < req) {
		return server
	}
	return req
}

// DetectInputs is the content-addressed manifest Inputs of a serve-side
// detection: hashes, not paths, so a daemon response and a batch reference
// run over the same bytes produce identical redacted manifests.
func DetectInputs(targetHash, specsHash string) map[string]string {
	return map[string]string{"target": "sha256:" + targetHash, "specs": "sha256:" + specsHash}
}

// InferInputs is the content-addressed manifest Inputs of a serve-side
// inference run.
func InferInputs(patchesHash string, validate bool) map[string]string {
	m := map[string]string{"patches": "sha256:" + patchesHash}
	if !validate {
		m["validate"] = "false"
	}
	return m
}

// PatchSetHash fingerprints a patch corpus in input order (JSON encodes
// map keys sorted, so the hash is deterministic).
func PatchSetHash(patches []*seal.Patch) (string, error) {
	data, err := json.Marshal(patches)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// DetectRequest configures one detection over the current snapshot.
type DetectRequest struct {
	// Workers overrides the server's worker count (output-invariant).
	Workers int `json:"workers,omitempty"`
	// Report selects the full rendered reports (-report) over summaries.
	Report bool `json:"report,omitempty"`
	// Limits narrows the per-unit budget for this request.
	Limits *LimitsSpec `json:"limits,omitempty"`
}

// DetectResponse is the per-request envelope: the epoch and content
// hashes the result is pinned to, the rendered report (byte-identical to
// batch CLI stdout), the raw records, and the run's observability
// artifacts (manifest + Prometheus metrics, byte-identical to the batch
// CLI's after redaction).
type DetectResponse struct {
	Epoch      int64  `json:"epoch"`
	TargetHash string `json:"target_hash"`
	SpecsHash  string `json:"specs_hash"`
	Specs      int    `json:"specs"`
	// StoreSeq / Grouped are set on a spec-store-backed daemon: the store
	// snapshot the specs came from, and how incremental the grouped
	// detection was (output bytes are identical either way).
	StoreSeq uint64                `json:"store_seq,omitempty"`
	Grouped  *seal.GroupedStats    `json:"grouped,omitempty"`
	Report   string                `json:"report"`
	Bugs     []detect.BugRec       `json:"bugs"`
	Degraded []seal.Degradation    `json:"degraded,omitempty"`
	Failures []*seal.FailureRecord `json:"failures,omitempty"`
	Stats    seal.DetectStats      `json:"stats"`
	Manifest *seal.Manifest        `json:"manifest,omitempty"`
	Metrics  string                `json:"metrics,omitempty"`
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	s.reg.Counter("seal_serve_detects_total", "detect requests").Add(1)
	var req DetectRequest
	if st, code, msg := decodeJSON(r, &req); st != 0 {
		s.writeError(w, st, code, msg, nil)
		return
	}
	snap := s.store.Current() // pin: everything below reads this epoch only
	workers := req.Workers
	if workers < 1 {
		workers = s.cfg.Workers
	}
	rec := obs.New()
	rec.StartRun("detect")
	runOpts := seal.DetectRunOptions{
		Workers: workers,
		Limits:  req.Limits.limits(s.cfg.Limits),
		Obs:     rec,
		Cache:   s.cfg.Cache.View(),
	}
	res, gs, runErr := snap.Resident.Detect(r.Context(), snap.plan(), runOpts)
	var grouped *seal.GroupedStats
	if s.specStore != nil {
		grouped = &gs
	}
	if runErr != nil {
		var failures []*seal.FailureRecord
		if res != nil {
			failures = res.Failures
		}
		s.runError(w, runErr, failures)
		return
	}
	renderStart := time.Now()
	rendered := report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, len(snap.Specs), req.Report)
	renderSecs := time.Since(renderStart).Seconds()
	art, err := seal.FinishDetectRun(rec, res, len(snap.Specs), workers,
		DetectInputs(snap.TargetHash(), snap.SpecsHash), renderSecs)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	bd := getBody()
	defer putBody(bd)
	if err := bd.detectResponse(&DetectResponse{
		Epoch:      snap.Epoch,
		TargetHash: snap.TargetHash(),
		SpecsHash:  snap.SpecsHash,
		Specs:      len(snap.Specs),
		StoreSeq:   snap.StoreSeq,
		Grouped:    grouped,
		Report:     rendered,
		Bugs:       res.Recs,
		Degraded:   res.Degraded,
		Failures:   res.Failures,
		Stats:      res.Stats,
		Manifest:   art.Manifest,
		Metrics:    art.Metrics,
	}); err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", "encoding response: "+err.Error(), nil)
		return
	}
	bd.send(w, http.StatusOK)
}

// InferRequest uploads a patch corpus for specification inference.
type InferRequest struct {
	Patches []*seal.Patch `json:"patches"`
	// Validate defaults to true (paper §6.3.3) when omitted.
	Validate *bool       `json:"validate,omitempty"`
	Workers  int         `json:"workers,omitempty"`
	FailFast bool        `json:"fail_fast,omitempty"`
	Limits   *LimitsSpec `json:"limits,omitempty"`
	// Publish merges the inferred specs into the active database and
	// publishes the result as a new epoch (incremental dataset growth).
	Publish bool `json:"publish,omitempty"`
}

// InferResponse carries the inferred database and, when published, the
// new epoch now serving it.
type InferResponse struct {
	Epoch               int64                 `json:"epoch"`
	Published           bool                  `json:"published,omitempty"`
	DB                  *seal.SpecDB          `json:"db"`
	Specs               int                   `json:"specs"`
	ZeroRelationPatches int                   `json:"zero_relation_patches"`
	Degraded            []seal.Degradation    `json:"degraded,omitempty"`
	Failures            []*seal.FailureRecord `json:"failures,omitempty"`
	Manifest            *seal.Manifest        `json:"manifest,omitempty"`
	Metrics             string                `json:"metrics,omitempty"`
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	s.reg.Counter("seal_serve_infers_total", "infer requests").Add(1)
	var req InferRequest
	if st, code, msg := decodeJSON(r, &req); st != 0 {
		s.writeError(w, st, code, msg, nil)
		return
	}
	if len(req.Patches) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad-request", "infer: patches is required", nil)
		return
	}
	validate := req.Validate == nil || *req.Validate
	workers := req.Workers
	if workers < 1 {
		workers = s.cfg.Workers
	}
	patchesHash, err := PatchSetHash(req.Patches)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), nil)
		return
	}
	rec := obs.New()
	rec.StartRun("infer")
	res, runErr := seal.InferSpecsContext(r.Context(), req.Patches, seal.Options{
		Validate: validate,
		Workers:  workers,
		Limits:   req.Limits.limits(s.cfg.Limits),
		FailFast: req.FailFast,
		Obs:      rec,
		Cache:    s.cfg.Cache.View(),
	})
	if runErr != nil {
		var failures []*seal.FailureRecord
		if res != nil {
			failures = res.Failures
		}
		s.runError(w, runErr, failures)
		return
	}
	art, err := seal.FinishInferRun(rec, res, len(req.Patches), workers,
		InferInputs(patchesHash, validate))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	resp := InferResponse{
		Epoch:               s.store.Current().Epoch,
		DB:                  res.DB,
		Specs:               len(res.DB.Specs),
		ZeroRelationPatches: res.ZeroRelationPatches,
		Degraded:            res.Degraded,
		Failures:            res.Failures,
		Manifest:            art.Manifest,
		Metrics:             art.Metrics,
	}
	if req.Publish {
		var snap *Snapshot
		var perr error
		if s.specStore != nil {
			// Commit the inferred specs through the store (first-wins by
			// key, same dedup as MergeSpecDBs) and republish its snapshot.
			snap, perr = s.store.EditSpecs(func() ([]*seal.Spec, uint64, error) {
				if _, _, err := s.specStore.ImportSpecs(res.DB.Specs); err != nil {
					return nil, 0, err
				}
				ssnap := s.specStore.Current()
				specs, err := ssnap.Specs()
				return specs, ssnap.Seq(), err
			})
		} else {
			snap = s.store.MergeAndPublish(res.DB)
		}
		if perr != nil {
			s.writeError(w, http.StatusInternalServerError, "internal", perr.Error(), nil)
			return
		}
		s.reg.Counter("seal_serve_publishes_total", "snapshot publications").Add(1)
		resp.Epoch = snap.Epoch
		resp.Published = true
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// EditRequest uploads changed source files and/or deletions.
type EditRequest struct {
	Files  map[string]string `json:"files,omitempty"`
	Delete []string          `json:"delete,omitempty"`
}

// EditResponse reports the published epoch and how incremental the
// rebuild was: parse trees reused vs re-parsed.
type EditResponse struct {
	Epoch       int64  `json:"epoch"`
	TargetHash  string `json:"target_hash"`
	Files       int    `json:"files"`
	ReusedFiles int    `json:"reused_files"`
	ParsedFiles int    `json:"parsed_files"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	s.reg.Counter("seal_serve_edits_total", "edit requests").Add(1)
	var req EditRequest
	if st, code, msg := decodeJSON(r, &req); st != 0 {
		s.writeError(w, st, code, msg, nil)
		return
	}
	if len(req.Files) == 0 && len(req.Delete) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad-request", "edit: nothing to apply", nil)
		return
	}
	snap, err := s.store.Edit(req.Files, req.Delete)
	if err != nil {
		// The previous snapshot is still published and untouched.
		s.writeError(w, http.StatusUnprocessableEntity, "parse-error", err.Error(), nil)
		return
	}
	s.reg.Counter("seal_serve_publishes_total", "snapshot publications").Add(1)
	s.writeJSON(w, http.StatusOK, EditResponse{
		Epoch:       snap.Epoch,
		TargetHash:  snap.TargetHash(),
		Files:       len(snap.Files),
		ReusedFiles: snap.ReusedFiles,
		ParsedFiles: snap.ParsedFiles,
	})
}

// StatsResponse is the daemon's residency snapshot.
type StatsResponse struct {
	Epoch       int64              `json:"epoch"`
	TargetHash  string             `json:"target_hash"`
	SpecsHash   string             `json:"specs_hash"`
	StoreSeq    uint64             `json:"store_seq,omitempty"`
	Files       int                `json:"files"`
	Specs       int                `json:"specs"`
	Resident    seal.ResidentStats `json:"resident"`
	MemoEntries int                `json:"memo_entries"`
	Substrate   seal.DetectStats   `json:"substrate"`
	// SpecStore surfaces the backing store's position, size, dead-record
	// ratio and compaction count in SpecDB mode.
	SpecStore *specdb.StoreStats `json:"spec_store,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	snap := s.store.Current()
	var ss *specdb.StoreStats
	if s.specStore != nil {
		st := s.specStore.Stats()
		ss = &st
	}
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Epoch:       snap.Epoch,
		TargetHash:  snap.TargetHash(),
		SpecsHash:   snap.SpecsHash,
		StoreSeq:    snap.StoreSeq,
		Files:       len(snap.Files),
		Specs:       len(snap.Specs),
		Resident:    snap.Resident.Resident(),
		MemoEntries: snap.Resident.MemoEntries(),
		Substrate:   snap.Resident.Stats(),
		SpecStore:   ss,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	snap := s.store.Current()
	rs := snap.Resident.Resident()
	s.reg.Gauge("seal_serve_epoch", "current snapshot epoch").Set(float64(snap.Epoch))
	s.reg.Gauge("seal_serve_resident_pdg_funcs", "functions with a materialized PDG subgraph").Set(float64(rs.PDGFuncs))
	s.reg.Gauge("seal_serve_resident_regions", "cached region closures").Set(float64(rs.Regions))
	s.reg.Gauge("seal_serve_resident_path_entries", "cached path-set entries").Set(float64(rs.PathEntries))
	s.reg.Gauge("seal_serve_memo_entries", "region-group outcomes in the group memo").Set(float64(snap.Resident.MemoEntries()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}
