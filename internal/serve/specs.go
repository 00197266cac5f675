package serve

import (
	"net/http"

	"seal"
	"seal/internal/specdb"
)

// This file is the daemon's spec-database surface on a store-backed
// server (Config.SpecDB): GET /specs queries the active store snapshot
// with the specdb query language, POST /specs edits the database through
// one store commit and publishes the result as a new epoch. Both answer 409 (no-spec-store) on a daemon serving a flat spec
// file, where the database is immutable for the process lifetime.

// SpecsResponse answers GET /specs: the matching specs (as a *seal.SpecDB
// so conditions serialize in tree form) pinned to the epoch and store
// sequence they were read from.
type SpecsResponse struct {
	Epoch    int64        `json:"epoch"`
	StoreSeq uint64       `json:"store_seq"`
	Query    string       `json:"query,omitempty"`
	Total    int          `json:"total"`
	Matched  int          `json:"matched"`
	DB       *seal.SpecDB `json:"db"`
}

// SpecsEditRequest edits the spec database: Upsert inserts or replaces
// specs by key, Delete removes specs by key. Upserts apply before
// deletes; the whole edit is one store transaction, made durable by a
// single fsync and published once, or rejected with nothing written.
type SpecsEditRequest struct {
	Upsert *seal.SpecDB `json:"upsert,omitempty"`
	Delete []string     `json:"delete,omitempty"`
}

// SpecsEditResponse reports the published epoch and what the edit did.
type SpecsEditResponse struct {
	Epoch     int64  `json:"epoch"`
	StoreSeq  uint64 `json:"store_seq"`
	SpecsHash string `json:"specs_hash"`
	Specs     int    `json:"specs"`
	Created   int    `json:"created"`
	Replaced  int    `json:"replaced"`
	Deleted   int    `json:"deleted"`
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	if s.specStore == nil {
		s.writeError(w, http.StatusConflict, "no-spec-store",
			"serve: daemon is not backed by a spec store (-spec-db)", nil)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handleSpecsQuery(w, r)
	case http.MethodPost:
		s.handleSpecsEdit(w, r)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "method-not-allowed",
			"/specs requires GET or POST", nil)
	}
}

// handleSpecsQuery answers GET /specs?q=... over the published snapshot's
// store sequence — never a newer store state a concurrent edit may have
// committed but not yet published.
func (s *Server) handleSpecsQuery(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("seal_serve_spec_queries_total", "spec query requests").Add(1)
	qs := r.URL.Query().Get("q")
	q, err := specdb.ParseQuery(qs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-query", err.Error(), nil)
		return
	}
	snap := s.store.Current() // pin: epoch and store seq move together
	matched := make([]*seal.Spec, 0, len(snap.Specs))
	for _, sp := range snap.Specs {
		if q.Match(sp) {
			matched = append(matched, sp)
		}
	}
	s.writeJSON(w, http.StatusOK, SpecsResponse{
		Epoch:    snap.Epoch,
		StoreSeq: snap.StoreSeq,
		Query:    qs,
		Total:    len(snap.Specs),
		Matched:  len(matched),
		DB:       &seal.SpecDB{Specs: matched},
	})
}

// handleSpecsEdit applies an edit to the spec store and publishes the
// resulting database as a new epoch, holding the snapshot writer lock
// across both so readers see the commit and the publication as one step.
func (s *Server) handleSpecsEdit(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("seal_serve_spec_edits_total", "spec edit requests").Add(1)
	var req SpecsEditRequest
	if st, code, msg := decodeJSON(r, &req); st != 0 {
		s.writeError(w, st, code, msg, nil)
		return
	}
	nUpserts := 0
	if req.Upsert != nil {
		nUpserts = len(req.Upsert.Specs)
	}
	if nUpserts == 0 && len(req.Delete) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad-request", "specs: nothing to apply", nil)
		return
	}
	var created, replaced, deleted int
	snap, err := s.store.EditSpecs(func() ([]*seal.Spec, uint64, error) {
		// An error before Flush drops the batch unwritten.
		b := s.specStore.Batch()
		if req.Upsert != nil {
			for _, sp := range req.Upsert.Specs {
				isNew, err := b.UpsertSpec(sp)
				if err != nil {
					return nil, 0, err
				}
				if isNew {
					created++
				} else {
					replaced++
				}
			}
		}
		for _, key := range req.Delete {
			if b.DeleteSpec(key) {
				deleted++
			}
		}
		if err := b.Flush(); err != nil {
			return nil, 0, err
		}
		ssnap := s.specStore.Current()
		specs, err := ssnap.Specs()
		return specs, ssnap.Seq(), err
	})
	if err != nil {
		// A rejected or failed edit commits nothing: the store stays as
		// the last commit left it and the published epoch is unchanged.
		s.writeError(w, http.StatusUnprocessableEntity, "edit-failed", err.Error(), nil)
		return
	}
	s.reg.Counter("seal_serve_publishes_total", "snapshot publications").Add(1)
	s.writeJSON(w, http.StatusOK, SpecsEditResponse{
		Epoch:     snap.Epoch,
		StoreSeq:  snap.StoreSeq,
		SpecsHash: snap.SpecsHash,
		Specs:     len(snap.Specs),
		Created:   created,
		Replaced:  replaced,
		Deleted:   deleted,
	})
}
