package serve

import "net/http"

// HealthResponse answers /healthz and /readyz probes. Liveness is
// process-level ("the event loop answers"); readiness additionally pins
// the snapshot the server would serve.
type HealthResponse struct {
	OK         bool   `json:"ok"`
	Ready      bool   `json:"ready,omitempty"`
	Epoch      int64  `json:"epoch,omitempty"`
	TargetHash string `json:"target_hash,omitempty"`
	Specs      int    `json:"specs,omitempty"`
}

// handleHealthz is the liveness probe: if this handler runs at all, the
// process is alive. Deliberately snapshot-free — a worker mid-publish or
// mid-drain is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{OK: true})
}

// handleReadyz is the readiness probe: a server that answers at all has
// a published snapshot, so it is 200 with that snapshot.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	snap := s.store.Current()
	s.writeJSON(w, http.StatusOK, HealthResponse{
		OK:         true,
		Ready:      true,
		Epoch:      snap.Epoch,
		TargetHash: snap.TargetHash(),
		Specs:      len(snap.Specs),
	})
}
