package main

import (
	"net/http"
	"runtime"

	"doppelganger/api"
	"doppelganger/internal/leakcheck"
)

// Contract sweeps run 2 × seeds × configs full simulations in the request
// goroutine's worker pool, so the seed count is clamped server-side: a
// defaulted request stays interactive, and nobody turns the endpoint into
// a batch farm by accident.
const (
	defaultLeakcheckSeeds = 32
	maxLeakcheckSeeds     = 512
)

// handleLeakcheck evaluates the contract lattice over randomized
// differential gadget pairs and reports the per-scheme contract matrix:
// for each requested scheme × ±AP config, which observer clauses the
// scheme's executions stay indistinguishable under.
func (s *server) handleLeakcheck(w http.ResponseWriter, r *http.Request) {
	var req api.LeakcheckRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfgs, err := parseSchemeConfigs(req.Schemes, req.AP)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	seeds := req.Seeds
	if seeds <= 0 {
		seeds = defaultLeakcheckSeeds
	}
	if seeds > maxLeakcheckSeeds {
		seeds = maxLeakcheckSeeds
	}

	results, err := leakcheck.ContractSweep(r.Context(), cfgs, req.FirstSeed, seeds, runtime.GOMAXPROCS(0))
	if err != nil {
		writeSimError(w, err)
		return
	}
	resp := api.LeakcheckResponse{
		Schema:    api.SchemaVersion,
		ID:        s.newID("leakcheck"),
		Seeds:     seeds,
		FirstSeed: req.FirstSeed,
	}
	for _, res := range results {
		row := api.ContractRow{Config: res.Config.String()}
		for _, c := range res.Cells {
			cell := api.ContractCell{Clause: c.Clause.String(), Leaks: c.Leaks, Components: c.Components}
			if c.Satisfied() {
				cell.Verdict = "satisfied"
			} else {
				cell.Verdict = "leaked"
				cell.FirstSeed = c.FirstSeed
			}
			row.Cells = append(row.Cells, cell)
		}
		for _, c := range res.Strongest() {
			row.Strongest = append(row.Strongest, c.String())
		}
		resp.Matrix = append(resp.Matrix, row)
	}
	s.store(resp.ID, resp)
	writeJSON(w, http.StatusOK, resp)
}
