package main

import (
	"fmt"
	"io"
	"net/http"

	"doppelganger/api"
	"doppelganger/sim"
)

// maxStoredCheckpoints bounds the in-memory checkpoint store (FIFO
// eviction). Checkpoints weigh megabytes, not the kilobytes of a result, so
// this cap is much tighter than maxStoredResults.
const maxStoredCheckpoints = 16

// maxImportBytes bounds the body of POST /v1/checkpoint/import.
const maxImportBytes = 64 << 20

// handleCheckpointCreate warms a workload on the server and stores the
// snapshot for later warm-started runs.
func (s *server) handleCheckpointCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CheckpointRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, "missing \"workload\"")
		return
	}
	if req.WarmupInsts == 0 {
		writeError(w, http.StatusBadRequest, "missing \"warmup_insts\": say how far to warm before snapshotting")
		return
	}
	scale, _, err := parseScale(req.Scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	prog, err := s.program(req.Workload, scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ck, err := sim.Snapshot(prog, sim.Config{Scheme: scheme, AddressPrediction: req.AP}, req.WarmupInsts)
	if err != nil {
		writeSimError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.storeCheckpoint(ck))
}

// handleCheckpointImport stores a checkpoint from its raw encoding (the
// bytes GET /v1/checkpoint/{id} or doppelsim -checkpoint-out produce).
// Decoding verifies magic, version and every section checksum, so a
// corrupt or foreign file is refused here, never restored.
func (s *server) handleCheckpointImport(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxImportBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	ck, err := sim.DecodeCheckpoint(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.storeCheckpoint(ck))
}

// handleCheckpointExport serves a stored checkpoint's canonical encoding,
// suitable for doppelsim -checkpoint-in or re-import on another server.
func (s *server) handleCheckpointExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ck := s.checkpoint(id)
	if ck == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no stored checkpoint %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Checkpoint-Digest", ck.Digest())
	w.Write(ck.Encode())
}

// checkpoint looks up a stored checkpoint by ID (nil if absent or evicted).
func (s *server) checkpoint(id string) *sim.Checkpoint {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.ckpts[id]
}

// storeCheckpoint retains a checkpoint under a fresh ID, evicting the
// oldest beyond the cap, and describes it.
func (s *server) storeCheckpoint(ck *sim.Checkpoint) api.CheckpointResponse {
	id := s.newID("ckpt")
	s.ckptMu.Lock()
	s.ckpts[id] = ck
	s.ckptOrder = append(s.ckptOrder, id)
	for len(s.ckptOrder) > maxStoredCheckpoints {
		delete(s.ckpts, s.ckptOrder[0])
		s.ckptOrder = s.ckptOrder[1:]
	}
	s.ckptMu.Unlock()
	meta := ck.Meta()
	st := ck.State()
	return api.CheckpointResponse{
		Schema:      api.SchemaVersion,
		ID:          id,
		Workload:    meta.ProgramName,
		Scheme:      meta.WarmScheme,
		AP:          meta.WarmAP,
		WarmupInsts: meta.WarmupInsts,
		Insts:       st.Stats.Committed,
		Cycle:       st.Cycle,
		Digest:      ck.Digest(),
		SizeBytes:   len(ck.Encode()),
	}
}
