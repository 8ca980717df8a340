package sim

import (
	"fmt"
	"sort"
	"strings"

	"doppelganger/internal/pipeline"
	"doppelganger/internal/program"
)

// ObserverMode selects *what* an attacker-observer can see. Modes are
// cumulative, forming the observer axis of the hardware-software-contract
// lattice (Guarnieri et al.): a pc observer sees everything the arch
// observer does plus the control-flow trace; a ct observer additionally
// sees memory-address traces and all cache/MSHR/DRAM timing state.
type ObserverMode uint8

const (
	// ObsArch sees final architectural state an attacker could read
	// through the ISA: registers and memory, minus anything the program
	// labeled (or derived from) secret.
	ObsArch ObserverMode = iota
	// ObsPC additionally sees the control-flow trace: branch outcomes and
	// fetch PCs, plus branch-predictor state.
	ObsPC
	// ObsCT additionally sees the constant-time observables: load/store
	// address traces, cache tag/LRU contents at every level, the MSHR
	// timeline, DRAM traffic and cycle counts, plus the address-predictor
	// tables.
	ObsCT
)

// String returns the mode's contract-notation name.
func (m ObserverMode) String() string {
	switch m {
	case ObsArch:
		return "arch"
	case ObsPC:
		return "pc"
	case ObsCT:
		return "ct"
	default:
		return fmt.Sprintf("observer(%d)", uint8(m))
	}
}

// ExecMode selects *when* the observer watches: only committed
// (architecturally retired) execution, or everything the machine performs
// including transient wrong-path work.
type ExecMode uint8

const (
	// ExecSeq observes committed execution only — the sequential contract.
	ExecSeq ExecMode = iota
	// ExecSpec observes speculative execution too: wrong-path fetches and
	// every performed cache-hierarchy access, transient or not.
	ExecSpec
)

// String returns the mode's contract-notation name.
func (e ExecMode) String() string {
	switch e {
	case ExecSeq:
		return "seq"
	case ExecSpec:
		return "spec"
	default:
		return fmt.Sprintf("exec(%d)", uint8(e))
	}
}

// Clause is one point of the contract lattice: an observer mode paired
// with an execution mode. Clauses are ordered by Covers; the strongest
// clause is CTSpec (see everything, always), the weakest ArchSeq.
type Clause struct {
	Observer ObserverMode
	Exec     ExecMode
}

// The six clauses of the lattice, weakest to strongest along each axis.
// ArchSpec is distinct in the lattice but observes the same state as
// ArchSeq on this machine: a squash fully restores architectural state, so
// transient execution never changes what an arch observer can read.
var (
	ArchSeq  = Clause{ObsArch, ExecSeq}
	ArchSpec = Clause{ObsArch, ExecSpec}
	PCSeq    = Clause{ObsPC, ExecSeq}
	PCSpec   = Clause{ObsPC, ExecSpec}
	CTSeq    = Clause{ObsCT, ExecSeq}
	CTSpec   = Clause{ObsCT, ExecSpec}
)

// Lattice returns all six clauses in canonical order: weakest observer
// first, seq before spec.
func Lattice() []Clause {
	return []Clause{ArchSeq, ArchSpec, PCSeq, PCSpec, CTSeq, CTSpec}
}

// String renders the clause in contract notation, e.g. "ct-spec".
func (c Clause) String() string {
	return c.Observer.String() + "-" + c.Exec.String()
}

// ParseClause parses contract notation ("arch-seq", "ct-spec", ...).
func ParseClause(s string) (Clause, error) {
	for _, c := range Lattice() {
		if c.String() == s {
			return c, nil
		}
	}
	return Clause{}, fmt.Errorf("sim: unknown contract clause %q", s)
}

// Covers reports the lattice order: c sees everything d sees (c ⊒ d).
// Both axes are cumulative, so c covers d when its observer and execution
// modes are each at least d's. Clauses with incomparable axes (e.g. ct-seq
// and pc-spec) cover each other in neither direction.
func (c Clause) Covers(d Clause) bool {
	return c.Observer >= d.Observer && c.Exec >= d.Exec
}

// valid reports whether the clause is one of the six lattice points.
func (c Clause) valid() bool {
	return c.Observer <= ObsCT && c.Exec <= ExecSpec
}

// component ties one observable digest to the weakest clause that sees it.
type component struct {
	name   string
	clause Clause
}

// components lists every observable, grouped by owning clause. A clause
// sees the union of the components owned by every clause it covers; CTSpec
// sees all of them, and its nine µarch components are exactly the legacy
// MicroDigest.
var components = []component{
	{"arch-public", ArchSeq},
	{"ctrl-trace-commit", PCSeq},
	{"branch-predictor", PCSeq},
	{"ctrl-trace-spec", PCSpec},
	{"addr-trace-commit", CTSeq},
	{"stride-predictor", CTSeq},
	{"context-predictor", CTSeq},
	{"cycles", CTSpec},
	{"L1", CTSpec},
	{"L2", CTSpec},
	{"L3", CTSpec},
	{"mshr-timeline", CTSpec},
	{"traffic", CTSpec},
	{"addr-trace-spec", CTSpec},
}

// VisibleComponents returns the names of the observables the clause sees,
// in reporting order.
func (c Clause) VisibleComponents() []string {
	var out []string
	for _, cm := range components {
		if c.Covers(cm.clause) {
			out = append(out, cm.name)
		}
	}
	return out
}

// Observation is what a contract observer saw during one run: a digest per
// observable component, with per-clause visibility. Fill one by passing
// Observe(&obs, clauses...) to RunContext or RunFromCheckpoint; then Diff
// two observations of a differential pair under any observed clause.
type Observation struct {
	// PubArch digests the final architectural state minus secrets: the
	// taint-tracking reference interpreter seeds taint from the program's
	// Secrets labels, propagates it through data flow, and excludes every
	// secret-derived register and memory word. [arch-seq]
	PubArch uint64 `json:"arch_public"`
	// AddrSeq digests the committed load/store address trace in commit
	// order. [ct-seq]
	AddrSeq uint64 `json:"addr_trace_commit"`
	// CtrlSeq digests the committed branch trace: pc, direction, target.
	// [pc-seq]
	CtrlSeq uint64 `json:"ctrl_trace_commit"`
	// AddrSpec digests every performed cache-hierarchy access — demand,
	// doppelganger, prefetch, writeback — including transient ones.
	// [ct-spec]
	AddrSpec uint64 `json:"addr_trace_spec"`
	// CtrlSpec digests the full fetch-PC stream, wrong paths included.
	// [pc-spec]
	CtrlSpec uint64 `json:"ctrl_trace_spec"`
	// Micro is the legacy µarch digest: cycles, per-level cache
	// fingerprints, MSHR timeline, traffic, predictor tables. Its
	// predictor components are seq-visible (they train at commit only);
	// the rest is ct-spec.
	Micro MicroDigest `json:"micro"`
	// SecretControlFlow and SecretAddressing report the reference
	// interpreter's constant-time diagnosis: the program's *architectural*
	// control flow (resp. memory addressing) depends on labeled secrets.
	// A program with either set leaks under every observer stronger than
	// arch — by its own doing, not the hardware's.
	SecretControlFlow bool `json:"secret_control_flow,omitempty"`
	SecretAddressing  bool `json:"secret_addressing,omitempty"`
	// Cover summarises where in the hierarchy the run left state: one
	// occupied-set bitmap per cache level. It feeds campaign-mode coverage
	// maps and is deliberately absent from the components list — it is
	// fuzzing feedback, not an attacker observable, so it never
	// participates in Diff.
	Cover CoverMap `json:"cover"`

	clauses []Clause
}

// CoverMap is the per-level cache-footprint summary of an Observation: bit
// (s mod 64) of a level's word is set when cache set s held at least one
// valid line at the end of the run.
type CoverMap struct {
	L1 uint64 `json:"l1,omitempty"`
	L2 uint64 `json:"l2,omitempty"`
	L3 uint64 `json:"l3,omitempty"`
}

// Clauses returns the canonical (deduplicated, sorted, covered-clauses
// implied) set of clauses this observation was requested with.
func (o *Observation) Clauses() []Clause {
	return append([]Clause(nil), o.clauses...)
}

// Observed reports whether the observation can answer Diff for the clause:
// some requested clause covers it.
func (o *Observation) Observed(c Clause) bool {
	for _, r := range o.clauses {
		if r.Covers(c) {
			return true
		}
	}
	return false
}

// value returns the digest of the named component.
func (o *Observation) value(name string) uint64 {
	switch name {
	case "arch-public":
		return o.PubArch
	case "ctrl-trace-commit":
		return o.CtrlSeq
	case "branch-predictor":
		return o.Micro.Branch
	case "ctrl-trace-spec":
		return o.CtrlSpec
	case "addr-trace-commit":
		return o.AddrSeq
	case "addr-trace-spec":
		return o.AddrSpec
	case "stride-predictor":
		return o.Micro.Stride
	case "context-predictor":
		return o.Micro.Context
	case "cycles":
		return o.Micro.Cycles
	case "L1":
		return o.Micro.L1
	case "L2":
		return o.Micro.L2
	case "L3":
		return o.Micro.L3
	case "mshr-timeline":
		return o.Micro.MSHR
	case "traffic":
		return o.Micro.Traffic
	default:
		panic(fmt.Sprintf("sim: unknown observation component %q", name))
	}
}

// Diff compares two observations under the given clause and returns the
// names of the visible components in which they differ, in reporting
// order; empty means the runs are indistinguishable to that observer. It
// panics when the clause was not observed (requesting a clause observes
// everything it covers, so an Observe(o, CTSpec) observation can Diff
// under all six).
func (o *Observation) Diff(p *Observation, c Clause) []string {
	if !o.Observed(c) || !p.Observed(c) {
		panic(fmt.Sprintf("sim: Diff under unobserved clause %v (observed: %v)", c, o.clauses))
	}
	var out []string
	for _, cm := range components {
		if c.Covers(cm.clause) && o.value(cm.name) != p.value(cm.name) {
			out = append(out, cm.name)
		}
	}
	return out
}

// DiffAll compares under the strongest observed clause — every observed
// component.
func (o *Observation) DiffAll(p *Observation) []string {
	strongest := ArchSeq
	for _, c := range o.clauses {
		if c.Covers(strongest) {
			strongest = c
		}
	}
	return o.Diff(p, strongest)
}

// canonClauses deduplicates and sorts a clause set into canonical lattice
// order. An empty request means the full lattice (the top clause covers
// all six). Invalid clauses panic — they are programming errors, as with
// out-of-range registers in the program builder.
func canonClauses(cs []Clause) []Clause {
	if len(cs) == 0 {
		return []Clause{CTSpec}
	}
	seen := map[Clause]bool{}
	var out []Clause
	for _, c := range cs {
		if !c.valid() {
			panic(fmt.Sprintf("sim: invalid contract clause %+v", c))
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Observer != out[j].Observer {
			return out[i].Observer < out[j].Observer
		}
		return out[i].Exec < out[j].Exec
	})
	return out
}

// needsTraces reports whether any requested clause sees a trace component
// (anything beyond the arch observer), so the core must capture the
// rolling trace digests during the run.
func needsTraces(reqs []obsRequest) bool {
	for _, r := range reqs {
		for _, c := range r.clauses {
			if c.Observer != ObsArch {
				return true
			}
		}
	}
	return false
}

// obsRequest is one Observe option's target and clause set.
type obsRequest struct {
	out     *Observation
	clauses []Clause
}

// capture fills the observation from a finished core. The committed
// instruction count drives the taint-tracking reference interpreter, which
// replays architectural execution exactly (commit order is architectural
// order), so warm-started and straight-line runs observe identically.
func (r obsRequest) capture(c *pipeline.Core, p *Program) {
	o := r.out
	o.clauses = r.clauses
	o.Micro = c.MicroDigest()
	o.AddrSeq, o.CtrlSeq, o.AddrSpec, o.CtrlSpec = c.ObsTraces()
	ts := program.RunTainted(p, c.Stats.Committed)
	o.PubArch = ts.PubChecksum()
	o.SecretControlFlow = ts.BranchOnSecret
	o.SecretAddressing = ts.AddrOnSecret
	h := c.Hierarchy()
	o.Cover = CoverMap{
		L1: h.L1D.OccupiedSets(),
		L2: h.L2.OccupiedSets(),
		L3: h.L3.OccupiedSets(),
	}
}

// CaptureObservation fills *out from a finished core, exactly as Observe
// does at the end of RunContext. It exists for executors that drive cores
// directly (the engine worker pool): call ClausesNeedTraces before the run
// to know whether Core.EnableObsTraces is required, run to completion, then
// capture.
func CaptureObservation(out *Observation, c *Core, p *Program, clauses ...Clause) {
	obsRequest{out: out, clauses: canonClauses(clauses)}.capture(c, p)
}

// CanonicalClauses returns the canonical form of a clause set — validated,
// deduplicated and sorted in lattice order, exactly the set an Observation
// requested with it would report from Clauses. An empty set canonises to
// the full lattice (CTSpec, the top clause).
func CanonicalClauses(cs []Clause) []Clause {
	return canonClauses(cs)
}

// ClausesNeedTraces reports whether observing the clause set requires the
// core's rolling trace digests (Core.EnableObsTraces before the run). An
// empty set means the full lattice, which does.
func ClausesNeedTraces(cs []Clause) bool {
	return needsTraces([]obsRequest{{clauses: canonClauses(cs)}})
}

// Observe fills *out with what a contract observer saw, for each requested
// clause. Passing no clauses observes the full lattice (equivalent to
// passing CTSpec, the top clause, which covers all six). The option
// composes: repeating a clause or reordering the clause list yields an
// identical observation, and several Observe options may be attached to
// one run.
//
// Observe is the leakage oracle's hook: Observation.Micro holds the nine
// µarch components of Core.MicroDigest, captured at the end of the run.
func Observe(out *Observation, clauses ...Clause) RunOption {
	canon := canonClauses(clauses)
	return func(o *runOpts) {
		o.observe = append(o.observe, obsRequest{out: out, clauses: canon})
	}
}

// ContractTable renders per-clause verdict strings (produced elsewhere)
// under the canonical lattice order — a small formatting helper shared by
// cmd/leakcheck and doppeld.
func ContractTable(verdicts map[Clause]string) string {
	var sb strings.Builder
	for i, c := range Lattice() {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%s", c, verdicts[c])
	}
	return sb.String()
}
