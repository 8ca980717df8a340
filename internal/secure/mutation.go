package secure

import "fmt"

// Mutation deliberately weakens one scheme's delay/taint logic. Mutations
// exist solely so the differential leakage checker (internal/leakcheck) can
// prove its oracle has teeth: a planted weakening must be reported as a
// leak. They must never be enabled outside tests and the leakcheck
// mutation mode.
type Mutation uint8

// The planted weakenings, one per protection mechanism.
const (
	// MutNone leaves the scheme intact.
	MutNone Mutation = iota
	// MutNDAFreeProp breaks NDA's propagation delay: speculatively loaded
	// values reach dependents immediately, as on the unsafe baseline.
	MutNDAFreeProp
	// MutSTTNoTaint breaks STT's taint sourcing: loads no longer taint
	// their outputs, so every transmitter sees untainted operands.
	MutSTTNoTaint
	// MutDoMIssueMiss breaks Delay-on-Miss: speculative loads that miss in
	// the L1 are performed as ordinary accesses instead of being delayed.
	MutDoMIssueMiss
	// MutSpecTrain breaks the doppelganger security anchor: the address
	// predictor is trained at address resolution (speculatively, including
	// wrong-path loads) instead of only at commit.
	MutSpecTrain
	// MutCleanupNoLRUUndo breaks half of Cleanup's rollback: speculative
	// fills are still undone on squash, but replacement-recency touches are
	// not, so a wrong-path hit leaves its line promoted in the LRU stack —
	// the classic incomplete-rollback bug an undo scheme can ship with.
	MutCleanupNoLRUUndo
	// MutCleanupDropEvicted breaks the other half: on squash the
	// speculative fill is invalidated, but the victim line it evicted is
	// not reinstated, so a wrong-path miss still leaves a secret-dependent
	// hole in the cache.
	MutCleanupDropEvicted

	numMutations
)

var mutationNames = [numMutations]string{
	MutNone:         "none",
	MutNDAFreeProp:  "nda-free-prop",
	MutSTTNoTaint:   "stt-no-taint",
	MutDoMIssueMiss: "dom-issue-miss",
	MutSpecTrain:    "spec-train",

	MutCleanupNoLRUUndo:   "cleanup-no-lru-undo",
	MutCleanupDropEvicted: "cleanup-drop-evicted",
}

// String returns the mutation's short name.
func (m Mutation) String() string {
	if int(m) < len(mutationNames) {
		return mutationNames[m]
	}
	return fmt.Sprintf("mutation(%d)", uint8(m))
}

// Valid reports whether the mutation is defined.
func (m Mutation) Valid() bool { return m < numMutations }

// ParseMutation maps a name (as produced by String) back to a Mutation.
func ParseMutation(name string) (Mutation, error) {
	for i, n := range mutationNames {
		if n == name {
			return Mutation(i), nil
		}
	}
	return 0, fmt.Errorf("secure: unknown mutation %q", name)
}

// Mutations lists the planted weakenings (excluding MutNone) in registry
// order: each scheme's planted mutations, scheme by scheme.
func Mutations() []Mutation {
	var out []Mutation
	for i := range registry {
		for _, p := range registry[i].mutations {
			out = append(out, p.mutation)
		}
	}
	return out
}

// DisablesPropagationDelay reports whether NDA's propagation delay is
// disabled.
func (m Mutation) DisablesPropagationDelay() bool { return m == MutNDAFreeProp }

// DisablesTaint reports whether STT's load-output tainting is disabled.
func (m Mutation) DisablesTaint() bool { return m == MutSTTNoTaint }

// DisablesDelayOnMiss reports whether DoM's miss delay is disabled.
func (m Mutation) DisablesDelayOnMiss() bool { return m == MutDoMIssueMiss }

// TrainsSpeculatively reports whether the address predictor is trained on
// speculative (pre-commit, possibly wrong-path) addresses.
func (m Mutation) TrainsSpeculatively() bool { return m == MutSpecTrain }

// SkipsLRUUndo reports whether Cleanup's rollback skips undoing
// replacement-recency touches (fills still roll back).
func (m Mutation) SkipsLRUUndo() bool { return m == MutCleanupNoLRUUndo }

// DropsEvictedLines reports whether Cleanup's rollback invalidates the
// speculative fill without reinstating the victim line it evicted.
func (m Mutation) DropsEvictedLines() bool { return m == MutCleanupDropEvicted }

// Target returns the scheme configuration the mutation is designed to
// weaken: the scheme whose registry row plants it, and whether address
// prediction must be enabled for the weakening to be reachable. Mutations
// no scheme plants (MutNone) target the unsafe baseline.
func (m Mutation) Target() (s Scheme, needAP bool) {
	for i := range registry {
		for _, p := range registry[i].mutations {
			if p.mutation == m {
				return Scheme(i), p.needAP
			}
		}
	}
	return Unsafe, false
}
