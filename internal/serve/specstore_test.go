package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seal"
	"seal/internal/spec"
	"seal/internal/specdb"
)

// newStoreBackedServer imports the shared corpus specs into a fresh spec
// store and builds a server over it.
func newStoreBackedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	files, specs := corpus(t)
	storePath := filepath.Join(t.TempDir(), "specs.specdb")
	if _, _, err := seal.ImportSpecStore(storePath, &spec.DB{Specs: specs}); err != nil {
		t.Fatal(err)
	}
	cfg.SpecDB = storePath
	srv, err := New(cfg, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, storePath
}

// TestServeSpecStoreDetectIdentity pins the substrate-swap contract at
// the daemon surface: a store-backed /detect must answer the same report,
// bug records, and specs hash as a flat-file daemon over the same corpus,
// while additionally reporting the store sequence and group stats.
func TestServeSpecStoreDetectIdentity(t *testing.T) {
	_, flatTS := newTestServer(t, Config{Workers: 1})
	_, storeTS, _ := newStoreBackedServer(t, Config{Workers: 1})

	var flat, stored DetectResponse
	if got := do(t, flatTS, "POST", "/detect", `{"report":true}`, &flat); got != http.StatusOK {
		t.Fatalf("flat detect: status %d", got)
	}
	if got := do(t, storeTS, "POST", "/detect", `{"report":true}`, &stored); got != http.StatusOK {
		t.Fatalf("store detect: status %d", got)
	}
	if stored.Report != flat.Report {
		t.Errorf("store-backed report differs:\nstore:\n%s\nflat:\n%s", stored.Report, flat.Report)
	}
	if stored.SpecsHash != flat.SpecsHash {
		t.Errorf("specs hash: store %s, flat %s", stored.SpecsHash, flat.SpecsHash)
	}
	sb, _ := json.Marshal(stored.Bugs)
	fb, _ := json.Marshal(flat.Bugs)
	if string(sb) != string(fb) {
		t.Errorf("store-backed bug records differ:\nstore: %s\nflat:  %s", sb, fb)
	}
	if stored.StoreSeq == 0 {
		t.Error("store-backed response has no store_seq")
	}
	if stored.Grouped == nil || stored.Grouped.Groups == 0 {
		t.Fatalf("store-backed response has no grouped stats: %+v", stored.Grouped)
	}
	if flat.Grouped != nil || flat.StoreSeq != 0 {
		t.Errorf("flat response unexpectedly store-shaped: seq=%d grouped=%+v", flat.StoreSeq, flat.Grouped)
	}
}

// TestServeSpecsEndpoint drives the /specs surface end to end: query the
// whole database and one scope, edit a spec in place, and verify the new
// epoch serves the edit incrementally — exactly one region group
// recomputes, every other group replays from the resident group memo —
// with the report still matching a flat daemon over the edited corpus.
func TestServeSpecsEndpoint(t *testing.T) {
	files, specs := corpus(t)
	srv, ts, _ := newStoreBackedServer(t, Config{Workers: 1})

	// Flat-file daemons refuse the endpoint with a structured 409.
	_, flatTS := newTestServer(t, Config{Workers: 1})
	var env errorEnvelope
	if got := do(t, flatTS, "GET", "/specs", "", &env); got != http.StatusConflict || env.Error.Code != "no-spec-store" {
		t.Fatalf("flat /specs: status %d code %q, want 409 no-spec-store", got, env.Error.Code)
	}

	var all SpecsResponse
	if got := do(t, ts, "GET", "/specs", "", &all); got != http.StatusOK {
		t.Fatalf("GET /specs: status %d", got)
	}
	if all.Total != len(specs) || all.Matched != len(specs) || len(all.DB.Specs) != len(specs) {
		t.Fatalf("GET /specs: total=%d matched=%d len=%d, want %d each",
			all.Total, all.Matched, len(all.DB.Specs), len(specs))
	}

	scope := specs[0].Scope()
	var one SpecsResponse
	if got := do(t, ts, "GET", "/specs?q="+url.QueryEscape("scope="+scope), "", &one); got != http.StatusOK {
		t.Fatalf("GET /specs?q: status %d", got)
	}
	if one.Matched == 0 || one.Matched == all.Matched {
		t.Fatalf("scope query matched %d of %d; want a proper subset", one.Matched, all.Matched)
	}
	for _, sp := range one.DB.Specs {
		if sp.Scope() != scope {
			t.Fatalf("scope query returned %s, want %s", sp.Scope(), scope)
		}
	}

	// Warm the group memo, then edit one spec in place.
	var cold DetectResponse
	if got := do(t, ts, "POST", "/detect", "{}", &cold); got != http.StatusOK {
		t.Fatalf("cold detect: status %d", got)
	}
	edited := *specs[0]
	edited.OriginPatch = edited.OriginPatch + "-edited"
	body, err := json.Marshal(SpecsEditRequest{Upsert: &seal.SpecDB{Specs: []*spec.Spec{&edited}}})
	if err != nil {
		t.Fatal(err)
	}
	var er SpecsEditResponse
	if got := do(t, ts, "POST", "/specs", string(body), &er); got != http.StatusOK {
		t.Fatalf("POST /specs: status %d", got)
	}
	if er.Replaced != 1 || er.Created != 0 || er.Deleted != 0 {
		t.Fatalf("edit: created=%d replaced=%d deleted=%d, want 0/1/0", er.Created, er.Replaced, er.Deleted)
	}
	if er.Epoch <= cold.Epoch || er.StoreSeq <= cold.StoreSeq {
		t.Fatalf("edit did not advance: epoch %d->%d, seq %d->%d",
			cold.Epoch, er.Epoch, cold.StoreSeq, er.StoreSeq)
	}

	// The edited epoch detects incrementally and stays byte-identical to a
	// flat daemon loaded with the edited corpus.
	var warm DetectResponse
	if got := do(t, ts, "POST", "/detect", `{"report":true}`, &warm); got != http.StatusOK {
		t.Fatalf("warm detect: status %d", got)
	}
	if warm.Grouped == nil || warm.Grouped.Computed != 1 || warm.Grouped.Warm != warm.Grouped.Groups-1 {
		t.Fatalf("edit recompute not incremental: %+v", warm.Grouped)
	}
	editedSpecs := make([]*spec.Spec, len(specs))
	copy(editedSpecs, specs)
	editedSpecs[0] = &edited
	flatSrv, err := New(Config{Workers: 1}, files, editedSpecs)
	if err != nil {
		t.Fatal(err)
	}
	flatEdited := httptest.NewServer(flatSrv.Handler())
	defer flatEdited.Close()
	var ref DetectResponse
	if got := do(t, flatEdited, "POST", "/detect", `{"report":true}`, &ref); got != http.StatusOK {
		t.Fatalf("flat edited detect: status %d", got)
	}
	if warm.Report != ref.Report {
		t.Errorf("edited store-backed report differs from flat reference:\nstore:\n%s\nflat:\n%s",
			warm.Report, ref.Report)
	}
	if warm.SpecsHash != ref.SpecsHash {
		t.Errorf("edited specs hash: store %s, flat %s", warm.SpecsHash, ref.SpecsHash)
	}

	// Delete the edited spec; the database shrinks by one and publishes.
	body, err = json.Marshal(SpecsEditRequest{Delete: []string{edited.Key(), "no-such-key"}})
	if err != nil {
		t.Fatal(err)
	}
	var dr SpecsEditResponse
	if got := do(t, ts, "POST", "/specs", string(body), &dr); got != http.StatusOK {
		t.Fatalf("POST /specs delete: status %d", got)
	}
	if dr.Deleted != 1 || dr.Specs != len(specs)-1 {
		t.Fatalf("delete: deleted=%d specs=%d, want 1 and %d", dr.Deleted, dr.Specs, len(specs)-1)
	}
	if cur := srv.Store().Current(); len(cur.Specs) != len(specs)-1 {
		t.Fatalf("published snapshot holds %d specs, want %d", len(cur.Specs), len(specs)-1)
	}

	// An empty edit is rejected before touching the store.
	if got := do(t, ts, "POST", "/specs", "{}", &env); got != http.StatusBadRequest {
		t.Fatalf("empty edit: status %d, want 400", got)
	}
}

// TestServeSpecsRejectedEditChangesNothing: an edit is one transaction.
// 257 valid upserts followed by one whose key is too long answer 422, the
// daemon keeps serving the old database, and the store file is
// byte-identical afterwards, so a restart serves nothing the client was
// told was rejected.
func TestServeSpecsRejectedEditChangesNothing(t *testing.T) {
	srv, ts, storePath := newStoreBackedServer(t, Config{Workers: 1})
	_, specs := corpus(t)
	before, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	var upserts []*spec.Spec
	for i := 0; i < 257; i++ {
		sp := *specs[i%len(specs)]
		sp.Iface = fmt.Sprintf("bulk.ops%03d", i)
		upserts = append(upserts, &sp)
	}
	long := *specs[0]
	long.Iface = strings.Repeat("x", specdb.MaxKeyLen)
	upserts = append(upserts, &long)
	body, err := json.Marshal(SpecsEditRequest{Upsert: &seal.SpecDB{Specs: upserts}})
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if got := do(t, ts, "POST", "/specs", string(body), &env); got != http.StatusUnprocessableEntity || env.Error.Code != "edit-failed" {
		t.Fatalf("edit with an over-long key: status %d code %q, want 422 edit-failed", got, env.Error.Code)
	}
	if n := len(srv.Store().Current().Specs); n != len(specs) {
		t.Fatalf("daemon serves %d specs after a rejected edit, want %d", n, len(specs))
	}
	after, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		st, err := specdb.OpenReadOnly(storePath)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		t.Fatalf("a rejected edit changed the store file: %d -> %d bytes, %d keys now (was %d)",
			len(before), len(after), st.Current().Len(), len(specs))
	}
}

// TestServeSpecsNullUpsert: a null entry in an edit's upsert list is a
// malformed request (400 bad-request naming the entry), not a server
// panic.
func TestServeSpecsNullUpsert(t *testing.T) {
	_, ts, _ := newStoreBackedServer(t, Config{Workers: 1})
	var env errorEnvelope
	if got := do(t, ts, "POST", "/specs", `{"upsert":{"specs":[null]}}`, &env); got != http.StatusBadRequest || env.Error.Code != "bad-request" {
		t.Fatalf("null upsert: status %d code %q, want 400 bad-request", got, env.Error.Code)
	}
	if !strings.Contains(env.Error.Message, "spec entry 0 is null") {
		t.Fatalf("null upsert error %q does not name the entry", env.Error.Message)
	}
}

// TestServeSpecsEditsKeepMemoBounded: the resident group memo holds one
// outcome per region group, however many one-spec edits arrive. Each
// edit's detection replaces its group's entry instead of adding a new one
// beside the old.
func TestServeSpecsEditsKeepMemoBounded(t *testing.T) {
	_, ts, _ := newStoreBackedServer(t, Config{Workers: 1})
	_, specs := corpus(t)
	const edits = 6
	for i := 0; i < edits; i++ {
		edited := *specs[i%len(specs)]
		edited.OriginPatch += fmt.Sprintf("-edit%d", i)
		body, err := json.Marshal(SpecsEditRequest{Upsert: &seal.SpecDB{Specs: []*spec.Spec{&edited}}})
		if err != nil {
			t.Fatal(err)
		}
		if got := do(t, ts, "POST", "/specs", string(body), nil); got != http.StatusOK {
			t.Fatalf("edit %d: status %d", i, got)
		}
		if got := do(t, ts, "POST", "/detect", "{}", nil); got != http.StatusOK {
			t.Fatalf("detect after edit %d: status %d", i, got)
		}
	}
	var st StatsResponse
	if got := do(t, ts, "GET", "/stats", "", &st); got != http.StatusOK {
		t.Fatalf("stats: status %d", got)
	}
	if want := corpusGroups(t); st.MemoEntries != want {
		t.Fatalf("memo entries after %d edits = %d, want the %d region groups", edits, st.MemoEntries, want)
	}
}
