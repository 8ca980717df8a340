// Package secure implements the building blocks of the three secure
// speculation schemes the paper evaluates — Non-speculative Data Access with
// permissive propagation (NDA-P), Speculative Taint Tracking (STT), and
// Delay-on-Miss (DoM) — plus the unsafe baseline.
//
// The schemes share a common notion of speculation: an instruction is
// speculative while an older *shadow-casting* instruction is unresolved
// (unresolved control flow, or a store with an unresolved address). This is
// the shadow tracking of Ghost Loads / Delay-on-Miss, which the paper uses
// for all evaluated schemes. ShadowTracker implements it. TaintTracker
// implements STT's youngest-root-of-taint propagation over physical
// registers.
//
// Each scheme is one row of a registry: its name, its capability flags
// (Caps), its membership of the paper and figures scheme lists, and the
// weakenings planted into it. Every scheme list, name lookup and mutation
// target in the tree is derived from that table.
package secure

import "fmt"

// Scheme selects a secure speculation scheme.
type Scheme uint8

// The evaluated schemes.
const (
	// Unsafe is the unprotected out-of-order baseline: speculatively
	// loaded values propagate freely and can leak.
	Unsafe Scheme = iota
	// NDAP is NDA with permissive propagation: speculative loads issue
	// and complete, but their values do not propagate to dependents until
	// the load is non-speculative.
	NDAP
	// STT taints speculatively loaded values and delays only tainted
	// transmitters (loads, branch resolution); dependent non-transmitters
	// execute freely.
	STT
	// DoM (Delay-on-Miss) lets speculative loads that hit in the L1
	// proceed (with delayed replacement update) and delays L1 misses
	// until the load is non-speculative.
	DoM
	// NDAS is NDA with strict propagation: a load's value propagates only
	// once the load is the oldest instruction in flight, the conservative
	// variant the NDA paper offers for stronger threat models.
	NDAS
	// STTSpectre is STT under the Spectre threat model: only loads that
	// are control-speculative (younger than an unresolved branch) taint
	// their outputs; loads speculative merely through unresolved store
	// addresses do not. The paper's STT evaluation uses the futuristic
	// model (our STT); this variant reproduces the weaker model from the
	// STT paper for comparison.
	STTSpectre
	// Cleanup is a CleanupSpec-style *undo* scheme — the field's other
	// major design point next to the delay-based schemes above. Speculative
	// loads issue, propagate and fill caches exactly as on the unsafe
	// baseline; the hierarchy instead journals every speculative side
	// effect (fills, evictions, replacement-recency touches, MSHR
	// allocations, traffic counters) and a squash rolls the journal back
	// past the squash boundary, reinstating evicted victims. Protection is
	// therefore retrospective: the wrong path runs at full speed, and its
	// micro-architectural footprint is erased before non-transient code can
	// observe it.
	Cleanup

	numSchemes
)

// Caps are the protection mechanisms that tell the schemes apart. The
// pipeline consults only these, never a scheme's identity, so a scheme is
// fully described by its registry row.
type Caps struct {
	// DelaysPropagation withholds a speculative load's result from its
	// dependents until the load is safe (NDA).
	DelaysPropagation bool
	// PropagatesAtHead lets a load propagate only once it is the oldest
	// in-flight instruction (NDA strict propagation).
	PropagatesAtHead bool
	// TracksTaint taints speculatively loaded values and delays tainted
	// transmitters (STT).
	TracksTaint bool
	// ControlOnlyTaint keeps a taint live only under control speculation
	// (the Spectre threat model) rather than under every shadow.
	ControlOnlyTaint bool
	// DelaysOnMiss delays speculative loads that miss in the L1 until they
	// are non-speculative (DoM).
	DelaysOnMiss bool
	// UndoesSpeculation lets speculative accesses change the cache
	// hierarchy freely and rolls the changes back on squash (the
	// CleanupSpec design point) instead of delaying them up front.
	UndoesSpeculation bool
}

// planted is one planted weakening of a scheme and whether address
// prediction must be enabled for the weakening to be reachable.
type planted struct {
	mutation Mutation
	needAP   bool
}

// schemeRow is everything the simulator and its tools know about a scheme.
type schemeRow struct {
	name string
	caps Caps
	// paper marks the schemes the paper evaluates (Schemes).
	paper bool
	// figures marks the schemes of the figures matrix (FigureSchemes).
	figures bool
	// mutations lists the weakenings planted into this scheme, in
	// gauntlet order.
	mutations []planted
}

// registry is the single source of every scheme list, name and capability.
// Adding a scheme means adding its constant above and its row here.
var registry = [numSchemes]schemeRow{
	Unsafe: {name: "unsafe", paper: true, figures: true},
	NDAP: {name: "nda-p", caps: Caps{DelaysPropagation: true}, paper: true, figures: true,
		mutations: []planted{{mutation: MutNDAFreeProp}}},
	STT: {name: "stt", caps: Caps{TracksTaint: true}, paper: true, figures: true,
		mutations: []planted{{mutation: MutSTTNoTaint}}},
	DoM: {name: "dom", caps: Caps{DelaysOnMiss: true}, paper: true, figures: true,
		mutations: []planted{
			{mutation: MutDoMIssueMiss},
			// Speculative training only matters when the poisoned table
			// is consulted, i.e. with doppelganger loads enabled; DoM is
			// the scheme that lets a speculatively loaded value compute
			// the wrong-path address that poisons the table (L1-hit
			// propagation).
			{mutation: MutSpecTrain, needAP: true},
		}},
	NDAS:       {name: "nda-s", caps: Caps{DelaysPropagation: true, PropagatesAtHead: true}},
	STTSpectre: {name: "stt-spectre", caps: Caps{TracksTaint: true, ControlOnlyTaint: true}},
	Cleanup: {name: "cleanup", caps: Caps{UndoesSpeculation: true}, figures: true,
		mutations: []planted{{mutation: MutCleanupNoLRUUndo}, {mutation: MutCleanupDropEvicted}}},
}

// String returns the scheme's short name.
func (s Scheme) String() string {
	if s.Valid() {
		return registry[s].name
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Valid reports whether the scheme is defined.
func (s Scheme) Valid() bool { return s < numSchemes }

// Caps returns the scheme's protection capabilities (none for an invalid
// scheme).
func (s Scheme) Caps() Caps {
	if s.Valid() {
		return registry[s].caps
	}
	return Caps{}
}

// ParseScheme maps a name (as produced by String) back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for i := range registry {
		if registry[i].name == name {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("secure: unknown scheme %q", name)
}

// Schemes lists the paper's evaluated schemes in evaluation order.
func Schemes() []Scheme { return schemesWhere(func(r *schemeRow) bool { return r.paper }) }

// FigureSchemes lists the schemes of the figures matrix: the unsafe
// baseline, the paper's three delay-based schemes, then the undo-based
// Cleanup point of comparison.
func FigureSchemes() []Scheme { return schemesWhere(func(r *schemeRow) bool { return r.figures }) }

// AllSchemes additionally includes the variants this reproduction adds
// beyond the paper's evaluation (strict NDA, Spectre-model STT, and the
// CleanupSpec-style undo scheme).
func AllSchemes() []Scheme { return schemesWhere(func(*schemeRow) bool { return true }) }

// schemesWhere lists, in registry order, the schemes whose row satisfies
// keep.
func schemesWhere(keep func(*schemeRow) bool) []Scheme {
	var out []Scheme
	for i := range registry {
		if keep(&registry[i]) {
			out = append(out, Scheme(i))
		}
	}
	return out
}

// Names returns the schemes' names, in order.
func Names(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.String()
	}
	return out
}
