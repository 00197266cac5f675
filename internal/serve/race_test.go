package serve

// Snapshot-isolation race test: many concurrent detect clients while a
// writer publishes successive edits. Run under `go test -race` (the CI
// race job covers this package); the assertions here catch torn reads
// even without the race detector — every response must be internally
// consistent with exactly one published epoch.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"seal"
)

// TestServeConcurrentSnapshotPublish races N detect readers against a
// single writer stepping the tree through a sequence of edits. Contract:
//
//   - every response carries an (epoch, target hash) pair matching one
//     published snapshot exactly — no response mixes state from two epochs;
//   - epochs observed by one client never go backward;
//   - every request gets a 200 with a well-formed body (no dropped
//     connections while the writer publishes).
func TestServeConcurrentSnapshotPublish(t *testing.T) {
	files, specs := corpus(t)
	srv, err := New(Config{Workers: 2}, files, specs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Precompute every variant the writer will publish and its content
	// hash. Edit k appends k newlines to the first file: the function set
	// never changes, and each publish re-parses only that file.
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	const edits = 6
	wantHash := map[int64]string{1: seal.TargetHash(files)}
	variants := make([]map[string]string, edits)
	prev := files
	for k := 0; k < edits; k++ {
		v := make(map[string]string, len(prev))
		for n, src := range prev {
			v[n] = src
		}
		v[names[0]] += "\n"
		variants[k] = v
		wantHash[int64(k+2)] = seal.TargetHash(v)
		prev = v
	}

	const readers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)

	// Writer: publish each variant through the HTTP surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < edits; k++ {
			body, _ := json.Marshal(EditRequest{Files: map[string]string{names[0]: variants[k][names[0]]}})
			resp, err := ts.Client().Post(ts.URL+"/edit", "application/json", bytes.NewReader(body))
			if err != nil {
				errCh <- fmt.Errorf("writer edit %d: %v", k, err)
				return
			}
			var er EditResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("writer edit %d: status %d err %v", k, resp.StatusCode, err)
				return
			}
			if er.Epoch != int64(k+2) || er.TargetHash != wantHash[er.Epoch] {
				errCh <- fmt.Errorf("writer edit %d: epoch %d hash %s, want %d %s",
					k, er.Epoch, er.TargetHash, k+2, wantHash[int64(k+2)])
				return
			}
		}
	}()

	// Readers: hammer /detect throughout the writer's publish sequence.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var lastEpoch int64
			for j := 0; j < 6; j++ {
				resp, err := ts.Client().Post(ts.URL+"/detect", "application/json",
					bytes.NewReader([]byte(`{"report":true}`)))
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %v", id, err)
					return
				}
				var dr DetectResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("reader %d: status %d err %v", id, resp.StatusCode, err)
					return
				}
				want, ok := wantHash[dr.Epoch]
				if !ok {
					errCh <- fmt.Errorf("reader %d: response pinned to unknown epoch %d", id, dr.Epoch)
					return
				}
				if dr.TargetHash != want {
					errCh <- fmt.Errorf("reader %d: torn read: epoch %d with target %s, want %s",
						id, dr.Epoch, dr.TargetHash, want)
					return
				}
				if dr.Epoch < lastEpoch {
					errCh <- fmt.Errorf("reader %d: epoch went backward: %d after %d", id, dr.Epoch, lastEpoch)
					return
				}
				lastEpoch = dr.Epoch
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Quiesce check: the final published snapshot is the last variant.
	final := srv.Store().Current()
	if final.Epoch != edits+1 || final.TargetHash() != wantHash[edits+1] {
		t.Fatalf("final snapshot epoch %d hash %s, want %d %s",
			final.Epoch, final.TargetHash(), edits+1, wantHash[edits+1])
	}
}
