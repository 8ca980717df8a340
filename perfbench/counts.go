package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"doppelganger/sim"
)

// modelCounts sums the simulator's exact statistics over a workload. They
// describe the modelled machine, not the host: a change that only speeds
// up the simulator leaves every one of them identical.
type modelCounts struct {
	Cycles, Insts, Squashed                         uint64
	L1Accesses, L1Misses, L2Misses, L3Misses, DRAM  uint64
	DoppPredictions, DoppVerified, DoppMispredicted uint64
	Prefetches                                      uint64
	DoMDelayed, STTStalls, Shadows                  uint64
}

func (m *modelCounts) add(st sim.Stats, ms sim.MemoryStats) {
	m.Cycles += st.Cycles
	m.Insts += st.Committed
	m.Squashed += st.Squashed
	m.L1Accesses += ms.L1Accesses
	m.L1Misses += ms.L1Misses
	m.L2Misses += ms.L2Misses
	m.L3Misses += ms.L3Misses
	m.DRAM += ms.DRAMAccesses
	m.DoppPredictions += st.DoppPredictions
	m.DoppVerified += st.DoppVerified
	m.DoppMispredicted += st.DoppMispredicted
	m.Prefetches += st.PrefetchesIssued
	m.DoMDelayed += st.DoMDelayedMisses
	m.STTStalls += st.STTTaintStalls
	m.Shadows += st.ShadowsCast
}

// metrics renders the counts under their per-layer metric names.
func (m *modelCounts) metrics(out map[string]float64) {
	out["pipeline.cycles"] = float64(m.Cycles)
	out["pipeline.insts"] = float64(m.Insts)
	out["pipeline.squashed_uops"] = float64(m.Squashed)
	out["mem.l1_accesses"] = float64(m.L1Accesses)
	out["mem.l1_misses"] = float64(m.L1Misses)
	out["mem.l2_misses"] = float64(m.L2Misses)
	out["mem.l3_misses"] = float64(m.L3Misses)
	out["mem.dram_accesses"] = float64(m.DRAM)
	out["predictor.dopp_predictions"] = float64(m.DoppPredictions)
	out["predictor.dopp_verified"] = float64(m.DoppVerified)
	if resolved := m.DoppVerified + m.DoppMispredicted; resolved > 0 {
		out["predictor.accuracy"] = float64(m.DoppVerified) / float64(resolved)
	}
	out["predictor.prefetches_issued"] = float64(m.Prefetches)
	out["secure.dom_delayed_misses"] = float64(m.DoMDelayed)
	out["secure.stt_taint_stalls"] = float64(m.STTStalls)
	out["secure.shadows_cast"] = float64(m.Shadows)
}

// digest folds labelled values into one short hex string. The model digest
// covers every exact count of every simulated run, in a fixed order; the
// output digest covers what a workload's users read (checksums, cycles,
// leak sets, coverage).
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// run folds one simulated run: its label, final checksum and every field
// of its statistics.
func (d *digest) run(label string, checksum uint64, st sim.Stats, ms sim.MemoryStats) {
	d.add(label, checksum)
	// Both structs hold only fixed-size integers, so binary.Write cannot
	// fail on a hash.
	_ = binary.Write(d.h, binary.LittleEndian, st)
	_ = binary.Write(d.h, binary.LittleEndian, ms)
}

// add folds arbitrary values through their printed form.
func (d *digest) add(vals ...any) {
	fmt.Fprintln(d.h, vals...)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
