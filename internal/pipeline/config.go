// Package pipeline implements the cycle-level out-of-order core: fetch with
// branch prediction and real wrong-path execution, register renaming, a
// reorder buffer, instruction/load/store queues, store-to-load forwarding,
// memory-dependence speculation with violation squash, and in-order commit.
//
// The secure speculation schemes (NDA-P, STT, DoM) and the doppelganger
// load mechanism are implemented as issue/propagation/resolution gates over
// these structures, exactly as the paper describes: none of them modify the
// memory hierarchy.
package pipeline

import (
	"fmt"

	"doppelganger/internal/mem"
	"doppelganger/internal/predictor"
	"doppelganger/internal/secure"
)

// Config parameterises the core. DefaultConfig matches Table 1 of the paper
// (IceLake-like gem5 o3 configuration).
type Config struct {
	// Front end and windows.
	DecodeWidth int // instructions renamed/dispatched per cycle
	IssueWidth  int // instructions issued to execution per cycle
	CommitWidth int // instructions committed per cycle
	ROBSize     int
	IQSize      int
	LQSize      int
	SQSize      int
	LoadPorts   int // memory reads started per cycle (shared by doppelgangers)

	// Execution latencies in cycles.
	ALULatency uint64
	MulLatency uint64
	DivLatency uint64
	AGULatency uint64
	// STLFLatency is the store-to-load forwarding latency.
	STLFLatency uint64

	// Scheme selects the secure speculation scheme.
	Scheme secure.Scheme
	// AddressPrediction enables doppelganger loads.
	AddressPrediction bool
	// AddressPredictorKind selects the table(s) consulted in address
	// prediction mode: the paper's stride table, a first-order Markov
	// (context) table, or a hybrid that falls back from stride to context
	// — the "more advanced predictor" direction the paper leaves open.
	AddressPredictorKind AddressPredictorKind
	// ValuePrediction enables DoM+VP: delayed loads propagate a predicted
	// *value* and are validated (squashing on mismatch) when the real
	// access completes. Mutually exclusive with AddressPrediction and
	// only meaningful for DoM — it reproduces the paper's §2.3 point that
	// value prediction under-performed for Delay-on-Miss.
	ValuePrediction bool
	// BranchPredictorKind selects the direction predictor.
	BranchPredictorKind BranchPredictorKind
	// MemDepPrediction enables a store-set memory dependence predictor:
	// loads that have previously violated against a store wait for it
	// instead of speculating past its unresolved address (§4.4 assumes
	// memory dependence prediction is present).
	MemDepPrediction bool
	// ExceptionShadows additionally treats every load as a shadow caster
	// until its address translates (the E-shadows of Ghost Loads / DoM);
	// the paper's evaluation tracks control and store-address shadows
	// only, so this defaults to off.
	ExceptionShadows bool
	// SelfCheck validates pipeline invariants every cycle (rename map
	// consistency, queue cross-links, shadow-tracker agreement). Slow;
	// meant for tests and debugging.
	SelfCheck bool
	// Mutation plants a deliberate weakening of the active scheme's
	// delay/taint logic, so the leakage checker can prove it detects
	// broken protections. Must stay MutNone outside leakcheck's mutation
	// mode and tests.
	Mutation secure.Mutation
	// PrefetchDegree is how many consecutive stride targets the prefetcher
	// issues per triggering access (0 disables prefetching). The
	// prefetcher and address predictor share one table, trained only at
	// commit (the paper's security requirement).
	PrefetchDegree int
	// PrefetchDistance is how many strides ahead of the triggering access
	// the first prefetch target lies, giving the fill time to complete
	// before the stream arrives.
	PrefetchDistance int

	// Memory hierarchy configuration.
	Memory mem.HierarchyConfig
	// Stride configures the shared prefetcher/address-predictor table.
	Stride predictor.StrideConfig
	// Context configures the Markov address predictor (context/hybrid
	// kinds only).
	Context predictor.ContextConfig
	// Value configures the load value predictor (ValuePrediction only).
	Value predictor.ValueConfig
	// Branch configures the bimodal direction predictor.
	Branch predictor.BimodalConfig
	// GShare configures the gshare direction predictor.
	GShare predictor.GShareConfig
	// StoreSets configures the memory dependence predictor.
	StoreSets predictor.StoreSetsConfig
}

// AddressPredictorKind selects the address-prediction structure.
type AddressPredictorKind uint8

// Address predictor kinds.
const (
	// PredictorStride is the paper's PC-stride table shared with the
	// prefetcher.
	PredictorStride AddressPredictorKind = iota
	// PredictorContext is a first-order Markov table over addresses.
	PredictorContext
	// PredictorHybrid consults the stride table first and falls back to
	// the context table (a minimal "bouquet").
	PredictorHybrid
)

// BranchPredictorKind selects the direction predictor.
type BranchPredictorKind uint8

// Branch predictor kinds.
const (
	// BranchBimodal is a PC-indexed 2-bit-counter table.
	BranchBimodal BranchPredictorKind = iota
	// BranchGShare XORs a global history register into the index; the
	// core keeps a speculative history and repairs it on squashes.
	BranchGShare
)

// DefaultConfig returns the paper's Table 1 system configuration. The clock
// is nominally 4 GHz, making the 13.5 ns DRAM access 54 cycles beyond the
// L3 lookup.
func DefaultConfig() Config {
	return Config{
		DecodeWidth: 5,
		IssueWidth:  8,
		CommitWidth: 8,
		ROBSize:     352,
		IQSize:      160,
		LQSize:      128,
		SQSize:      72,
		LoadPorts:   2,

		ALULatency:  1,
		MulLatency:  3,
		DivLatency:  12,
		AGULatency:  1,
		STLFLatency: 2,

		Scheme:            secure.Unsafe,
		AddressPrediction: false,
		PrefetchDegree:    2,
		PrefetchDistance:  12,

		Memory: mem.HierarchyConfig{
			L1D:        mem.CacheConfig{SizeBytes: 48 << 10, Ways: 12, Latency: 5},
			L2:         mem.CacheConfig{SizeBytes: 2 << 20, Ways: 8, Latency: 15},
			L3:         mem.CacheConfig{SizeBytes: 16 << 20, Ways: 16, Latency: 40},
			MemLatency: 54,
			L1MSHRs:    16,
		},
		Stride:    predictor.DefaultStrideConfig(),
		Context:   predictor.DefaultContextConfig(),
		Value:     predictor.DefaultValueConfig(),
		Branch:    predictor.DefaultBimodalConfig(),
		GShare:    predictor.DefaultGShareConfig(),
		StoreSets: predictor.DefaultStoreSetsConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("pipeline: widths must be positive (decode %d, issue %d, commit %d)",
			c.DecodeWidth, c.IssueWidth, c.CommitWidth)
	}
	if c.ROBSize <= 0 || c.IQSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 {
		return fmt.Errorf("pipeline: queue sizes must be positive (rob %d, iq %d, lq %d, sq %d)",
			c.ROBSize, c.IQSize, c.LQSize, c.SQSize)
	}
	if c.LoadPorts <= 0 {
		return fmt.Errorf("pipeline: load ports must be positive, got %d", c.LoadPorts)
	}
	if !c.Scheme.Valid() {
		return fmt.Errorf("pipeline: invalid scheme %d", uint8(c.Scheme))
	}
	if !c.Mutation.Valid() {
		return fmt.Errorf("pipeline: invalid mutation %d", uint8(c.Mutation))
	}
	if c.ALULatency == 0 || c.AGULatency == 0 {
		return fmt.Errorf("pipeline: ALU/AGU latencies must be at least 1 cycle")
	}
	if err := c.Memory.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if err := c.Stride.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if c.AddressPredictorKind != PredictorStride {
		if err := c.Context.Validate(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.ValuePrediction {
		if c.AddressPrediction {
			return fmt.Errorf("pipeline: value prediction and address prediction are mutually exclusive")
		}
		if !c.Scheme.Caps().DelaysOnMiss {
			return fmt.Errorf("pipeline: value prediction is a DoM optimization (got %v)", c.Scheme)
		}
		if err := c.Value.Validate(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.BranchPredictorKind == BranchGShare {
		if err := c.GShare.Validate(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.MemDepPrediction {
		if err := c.StoreSets.Validate(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return nil
}
