// Package api defines the wire types of the doppeld HTTP API: requests and
// responses for /v1/run, /v1/sweep, /v1/checkpoint, /v1/leakcheck and
// /v1/campaign. The
// same structs are consumed by the server (cmd/doppeld) and any external
// client; the JSON field names are the contract.
//
// Responses carry an explicit schema_version (SchemaVersion). The version
// bumps whenever a field changes meaning or is removed; adding new optional
// fields does not bump it. Clients should accept any version ≥ the one they
// were built against and select on the field when shapes diverge.
package api

import "doppelganger/sim"

// SchemaVersion is the current wire-schema version, stamped into every
// response. Version 1 was the original unversioned shape; version 2 added
// the version stamp itself and the /v1/leakcheck contract endpoint.
const SchemaVersion = 2

// RunRequest asks for one simulation: a suite workload under one
// configuration.
type RunRequest struct {
	// Workload is a suite workload name (see doppelsim -list).
	Workload string `json:"workload"`
	// Scale is "test" or "full" (default "full").
	Scale string `json:"scale,omitempty"`
	// Scheme is the secure speculation scheme name (default "unsafe").
	Scheme string `json:"scheme,omitempty"`
	// AP enables doppelganger loads.
	AP bool `json:"ap,omitempty"`
	// MaxInsts bounds committed instructions (0 = run to halt).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// MaxCycles bounds simulated cycles (0 = default budget).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TimeoutMS bounds the run's wall-clock time in milliseconds
	// (0 = the server's default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace attaches a trace sink to the run and returns the captured
	// events in the response. Traced runs bypass the result cache.
	Trace bool `json:"trace,omitempty"`
	// TraceEvents caps how many of the most recent events are kept
	// (0 = a server default; the server also enforces a hard ceiling).
	TraceEvents int `json:"trace_events,omitempty"`
	// Checkpoint warm-starts the run from a stored checkpoint (an ID from
	// POST /v1/checkpoint or /v1/checkpoint/import). Workload may then be
	// omitted — the checkpoint embeds its program — or named as a
	// compatibility cross-check. MaxInsts counts total committed
	// instructions including the checkpoint's warmup.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// RunResponse is one completed simulation.
type RunResponse struct {
	Schema int `json:"schema_version"`
	// ID retrieves this response later via GET /v1/results/{id}.
	ID       string     `json:"id"`
	Workload string     `json:"workload"`
	Scale    string     `json:"scale"`
	Scheme   string     `json:"scheme"`
	AP       bool       `json:"ap"`
	Result   sim.Result `json:"result"`
	// Events holds the run's captured trace (most recent first-to-last)
	// when the request set "trace"; EventsDropped counts older events that
	// fell out of the bounded ring.
	Events        []sim.TraceEvent `json:"events,omitempty"`
	EventsDropped uint64           `json:"events_dropped,omitempty"`
}

// SweepRequest asks for a workload × scheme × ±AP matrix.
type SweepRequest struct {
	// Workloads restricts the sweep (empty = the full suite).
	Workloads []string `json:"workloads,omitempty"`
	// Schemes restricts the sweep by name (empty = unsafe + the paper's
	// three schemes).
	Schemes []string `json:"schemes,omitempty"`
	// AP is "both" (default), "on", or "off".
	AP string `json:"ap,omitempty"`
	// Scale is "test" or "full" (default "full").
	Scale string `json:"scale,omitempty"`
	// MaxInsts bounds committed instructions per cell.
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// MaxCycles bounds simulated cycles per cell.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// SweepCell is one cell of a sweep.
type SweepCell struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	AP       bool   `json:"ap"`
	// NormIPC is the cell's IPC normalized to the same workload's unsafe
	// no-AP baseline; present only when the sweep includes that baseline.
	NormIPC float64    `json:"norm_ipc,omitempty"`
	Result  sim.Result `json:"result"`
}

// SweepResponse is a completed sweep in matrix order (workload, scheme,
// then -AP/+AP).
type SweepResponse struct {
	Schema int         `json:"schema_version"`
	ID     string      `json:"id"`
	Scale  string      `json:"scale"`
	Cells  []SweepCell `json:"cells"`
}

// CheckpointRequest asks the server to warm up a workload and snapshot the
// complete simulation state for later warm-started runs.
type CheckpointRequest struct {
	// Workload is a suite workload name (required).
	Workload string `json:"workload"`
	// Scale is "test" or "full" (default "full").
	Scale string `json:"scale,omitempty"`
	// Scheme is the scheme to warm under (default "unsafe").
	Scheme string `json:"scheme,omitempty"`
	// AP enables doppelganger loads during warmup.
	AP bool `json:"ap,omitempty"`
	// WarmupInsts is how many instructions to commit before snapshotting
	// (required, > 0).
	WarmupInsts uint64 `json:"warmup_insts"`
}

// CheckpointResponse describes a stored checkpoint. The ID references it in
// RunRequest.Checkpoint and GET /v1/checkpoint/{id}; the digest is its
// content identity (the engine folds it into cache keys).
type CheckpointResponse struct {
	Schema      int    `json:"schema_version"`
	ID          string `json:"id"`
	Workload    string `json:"workload"`
	Scheme      string `json:"scheme"`
	AP          bool   `json:"ap,omitempty"`
	WarmupInsts uint64 `json:"warmup_insts"`
	// Insts and Cycle are the actual commit count and cycle the snapshot
	// was taken at (the drain may commit slightly past WarmupInsts).
	Insts     uint64 `json:"insts"`
	Cycle     uint64 `json:"cycle"`
	Digest    string `json:"digest"`
	SizeBytes int    `json:"size_bytes"`
}

// LeakcheckRequest asks the server to evaluate the contract lattice over
// randomized differential gadget pairs and report the per-scheme contract
// matrix.
type LeakcheckRequest struct {
	// Schemes restricts the matrix rows by scheme name (empty = unsafe +
	// the paper's three schemes). Each scheme contributes a ±AP row pair
	// unless AP narrows it.
	Schemes []string `json:"schemes,omitempty"`
	// AP is "both" (default), "on", or "off".
	AP string `json:"ap,omitempty"`
	// FirstSeed is the first gadget seed of the sweep (default 0).
	FirstSeed int64 `json:"first_seed,omitempty"`
	// Seeds is how many gadget seeds to sweep per config (default a server
	// choice; the server also enforces a ceiling — contract sweeps are
	// hundreds of simulations).
	Seeds int `json:"seeds,omitempty"`
}

// ContractCell is one contract-matrix cell: a lattice clause and whether
// the config's differential pairs stayed indistinguishable under it.
type ContractCell struct {
	// Clause is the contract notation, e.g. "ct-spec" (constant-time
	// observer, transient execution included).
	Clause string `json:"clause"`
	// Verdict is "satisfied" or "leaked".
	Verdict string `json:"verdict"`
	// Leaks counts distinguishable seeds; 0 when satisfied.
	Leaks int `json:"leaks"`
	// FirstSeed is the smallest leaking seed (present when Leaks > 0).
	FirstSeed int64 `json:"first_seed,omitempty"`
	// Components names the observation components that diverged, union
	// over all leaking seeds.
	Components []string `json:"components,omitempty"`
}

// ContractRow is one config row of the contract matrix.
type ContractRow struct {
	// Config names the scheme cell, e.g. "dom+ap".
	Config string `json:"config"`
	// Cells holds one entry per lattice clause in canonical order
	// (arch-seq, arch-spec, pc-seq, pc-spec, ct-seq, ct-spec).
	Cells []ContractCell `json:"cells"`
	// Strongest lists the maximal satisfied clauses — the strongest
	// contracts the scheme upholds on this sweep.
	Strongest []string `json:"strongest"`
}

// LeakcheckResponse is a completed contract sweep.
type LeakcheckResponse struct {
	Schema int    `json:"schema_version"`
	ID     string `json:"id"`
	// Seeds and FirstSeed echo the effective sweep range after server
	// clamping.
	Seeds     int           `json:"seeds"`
	FirstSeed int64         `json:"first_seed"`
	Matrix    []ContractRow `json:"matrix"`
}

// CampaignRequest asks the server for a coverage-guided leakcheck
// campaign: instead of sweeping a fixed seed range, the server mutates
// gadget genomes toward unexplored micro-architectural coverage and
// reports every minimized, deduplicated leak reproducer the budget found.
type CampaignRequest struct {
	// Schemes restricts the evaluated configs by scheme name (empty =
	// unsafe + the paper's three schemes). Each scheme contributes a ±AP
	// config pair unless AP narrows it.
	Schemes []string `json:"schemes,omitempty"`
	// AP is "both" (default), "on", or "off".
	AP string `json:"ap,omitempty"`
	// Budget is the number of genome evaluations (default a server
	// choice; the server also enforces a ceiling — each evaluation is one
	// differential pair simulated under every config).
	Budget int `json:"budget,omitempty"`
	// Seed drives the campaign scheduler; a fixed seed reproduces the
	// campaign exactly.
	Seed int64 `json:"seed,omitempty"`
	// Blind disables coverage guidance and samples the historical sweep
	// generator instead (the baseline campaigns are measured against).
	Blind bool `json:"blind,omitempty"`
}

// CampaignLeak is one minimized leak reproducer a campaign found.
type CampaignLeak struct {
	// Config names the scheme cell the pair leaked under, e.g. "dom+ap"
	// or "stt!stt-no-taint".
	Config string `json:"config"`
	// Params is the minimized reproducer's canonical parameter rendering.
	Params string `json:"params"`
	// Components are the diverging observation components; Clauses the
	// leaked contract clauses.
	Components []string `json:"components"`
	Clauses    []string `json:"clauses,omitempty"`
	// Key is the reproducer's content identity (stable across runs).
	Key string `json:"key"`
}

// CampaignResponse is a completed campaign.
type CampaignResponse struct {
	Schema int    `json:"schema_version"`
	ID     string `json:"id"`
	// Budget and Seed echo the effective values after server clamping.
	Budget int   `json:"budget"`
	Seed   int64 `json:"seed"`
	// Evals is the number of genomes evaluated, Pairs the differential
	// pairs simulated (Evals × configs), Cells the distinct coverage
	// cells populated.
	Evals int `json:"evals"`
	Pairs int `json:"pairs"`
	Cells int `json:"cells"`
	// NewLeaks counts distinct reproducers discovered by this run;
	// DupLeaks counts finds deduplicated against already-known behaviour.
	NewLeaks int            `json:"new_leaks"`
	DupLeaks int            `json:"dup_leaks"`
	Leaks    []CampaignLeak `json:"leaks,omitempty"`
}

// Error is the JSON body of every non-2xx reply.
type Error struct {
	Error string `json:"error"`
}
