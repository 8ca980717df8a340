package main

import (
	"net/http"

	"doppelganger/api"
	"doppelganger/internal/campaign"
)

// Campaign budgets are clamped like leakcheck seeds: each evaluation is
// two full simulations per config, so a defaulted request stays
// interactive and the ceiling keeps the endpoint out of batch-farm
// territory (persistent-corpus campaigns belong in cmd/leakcheck).
const (
	defaultCampaignBudget = 64
	maxCampaignBudget     = 1024
)

// clampCampaignBudget applies the default and the ceiling to a requested
// budget; oversized requests are clamped, not refused.
func clampCampaignBudget(budget int) int {
	if budget <= 0 {
		budget = defaultCampaignBudget
	}
	if budget > maxCampaignBudget {
		budget = maxCampaignBudget
	}
	return budget
}

// handleCampaign runs a coverage-guided leakcheck campaign on the server's
// shared engine and reports every minimized leak reproducer it found. The
// corpus is in-memory per request; a fixed seed makes the response
// reproducible.
func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req api.CampaignRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfgs, err := parseSchemeConfigs(req.Schemes, req.AP)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	budget := clampCampaignBudget(req.Budget)

	sum, err := campaign.Run(r.Context(), campaign.Options{
		Configs: cfgs,
		Budget:  budget,
		Seed:    req.Seed,
		Engine:  s.eng,
		Blind:   req.Blind,
	})
	if err != nil {
		writeSimError(w, err)
		return
	}
	resp := api.CampaignResponse{
		Schema:   api.SchemaVersion,
		ID:       s.newID("campaign"),
		Budget:   budget,
		Seed:     req.Seed,
		Evals:    sum.Evals,
		Pairs:    sum.Pairs,
		Cells:    sum.Cells,
		NewLeaks: sum.NewLeaks,
		DupLeaks: sum.DupLeaks,
	}
	for _, lk := range sum.Leaks {
		resp.Leaks = append(resp.Leaks, api.CampaignLeak{
			Config:     lk.Config.String(),
			Params:     lk.Params.String(),
			Components: lk.Components,
			Clauses:    lk.Clauses,
			Key:        lk.Key,
		})
	}
	s.store(resp.ID, resp)
	writeJSON(w, http.StatusOK, resp)
}
