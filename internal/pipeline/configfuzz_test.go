package pipeline

import (
	"testing"

	"doppelganger/internal/program"
	"doppelganger/internal/secure"
)

// TestFuzzRandomConfigurations runs random programs on randomly shaped
// machines (widths, window sizes, latencies, predictor kinds, schemes) with
// the invariant checker enabled — the broadest structural stress in the
// suite. Architectural state must always match the interpreter.
func TestFuzzRandomConfigurations(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	r := fuzzRNG(0xfeedface)
	for round := 0; round < rounds; round++ {
		cfg := DefaultConfig()
		cfg.DecodeWidth = 1 + r.intn(6)
		cfg.IssueWidth = 1 + r.intn(8)
		cfg.CommitWidth = 1 + r.intn(8)
		cfg.ROBSize = 8 + r.intn(64)
		cfg.IQSize = 4 + r.intn(32)
		cfg.LQSize = 2 + r.intn(16)
		cfg.SQSize = 2 + r.intn(12)
		cfg.LoadPorts = 1 + r.intn(3)
		cfg.MulLatency = 1 + uint64(r.intn(5))
		cfg.DivLatency = 1 + uint64(r.intn(20))
		cfg.PrefetchDegree = r.intn(4)
		cfg.PrefetchDistance = 1 + r.intn(24)
		cfg.Scheme = secure.AllSchemes()[r.intn(len(secure.AllSchemes()))]
		cfg.AddressPrediction = r.intn(2) == 0
		cfg.AddressPredictorKind = AddressPredictorKind(r.intn(3))
		cfg.BranchPredictorKind = BranchPredictorKind(r.intn(2))
		cfg.MemDepPrediction = r.intn(2) == 0
		cfg.ExceptionShadows = r.intn(2) == 0
		cfg.SelfCheck = true
		if cfg.Scheme.Caps().DelaysOnMiss && !cfg.AddressPrediction && r.intn(2) == 0 {
			cfg.ValuePrediction = true
		}

		p := randomProgram(uint64(round)*1013+7, 8+r.intn(16), 40+r.intn(60))
		ref := program.Run(p, 5_000_000)
		c, err := New(cfg, p)
		if err != nil {
			t.Fatalf("round %d: %v (config %+v)", round, err, cfg)
		}
		if err := c.Run(0, 500_000_000); err != nil {
			t.Fatalf("round %d (%v ap=%v vp=%v): %v",
				round, cfg.Scheme, cfg.AddressPrediction, cfg.ValuePrediction, err)
		}
		if c.ArchState().Checksum() != ref.Checksum() {
			t.Errorf("round %d (%v ap=%v vp=%v, rob=%d iq=%d lq=%d sq=%d): state mismatch",
				round, cfg.Scheme, cfg.AddressPrediction, cfg.ValuePrediction,
				cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize)
		}
	}
}
