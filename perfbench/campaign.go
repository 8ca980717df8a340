package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"doppelganger/internal/campaign"
	"doppelganger/internal/engine"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/obs"
	"doppelganger/internal/secure"
)

// The campaign workload is campaign.Run with the default configs and a
// fixed budget; the seed drives the scheduler, and each repetition gets a
// fresh file-backed corpus in a temporary directory. Chosen because it
// runs the same gadget simulations as leakcheck but through the engine,
// plus SHA-256 job keys, coverage hashing, the scheduler, minimization and
// corpus appends — it is the workload that writes, so a gain on
// leakcheck's in-process path that costs the engine or corpus path shows
// here.

// campaignBudget is one repetition's genome evaluations.
const campaignBudget = 24

type campaignBatch struct {
	opts campaign.Options
	dir  string
	eng  *engine.Engine
}

// setupCampaign checks that a gadget of every family the campaign can draw
// builds and halts under the reference interpreter, then creates the
// repetition's corpus directory and engine.
func setupCampaign(o *options, rep int) (batch, error) {
	return newCampaignBatch(o, rep, nil)
}

func newCampaignBatch(o *options, rep int, reg *obs.Metrics) (*campaignBatch, error) {
	seed := repSeed(o.seed, rep, 1)
	for _, k := range leakcheck.Kinds() {
		p := leakcheck.Generate(seed)
		p.Kind = k
		if err := checkHalts(p); err != nil {
			return nil, err
		}
	}
	tmp := filepath.Join(o.dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "corpus-")
	if err != nil {
		return nil, err
	}
	b := &campaignBatch{dir: dir, eng: engine.New(engine.Options{Workers: o.workers, Metrics: reg})}
	b.opts = campaign.Options{Budget: campaignBudget, Seed: seed,
		CorpusPath: filepath.Join(dir, "corpus.dgcf"), Engine: b.eng}
	if o.tiny {
		b.opts.Budget = 4
	}
	return b, nil
}

// close stops the engine and removes the corpus.
func (b *campaignBatch) close() {
	b.eng.Close()
	os.RemoveAll(b.dir)
}

// checkCampaign applies the failure rules: every pair check is an
// operation, any leak under an intact secure config fails, and so does a
// campaign that finds no unsafe leak. It returns the outputs' digest.
func checkCampaign(tl *tally, sum *campaign.Summary) string {
	tl.attempted += sum.Pairs
	unsafeLeaks := 0
	d := newDigest()
	d.add(sum.Evals, sum.Pairs, sum.Cells, sum.CorpusInputs, sum.NewLeaks, sum.DupLeaks)
	for _, lk := range sum.Leaks {
		d.add(lk.Config, lk.Key)
		if lk.Config.Secure() {
			tl.check(false, "SECURITY: %s leaks via %v (%s)", lk.Config, lk.Components, lk.Params)
		}
		if lk.Config.Scheme == secure.Unsafe && lk.Config.Mutation == secure.MutNone {
			unsafeLeaks++
		}
	}
	tl.check(unsafeLeaks > 0, "VACUOUS: campaign of %d evals found no unsafe leak", sum.Evals)
	return d.sum()
}

func (b *campaignBatch) run(tl *tally) repOut {
	t0 := time.Now()
	sum, err := campaign.Run(context.Background(), b.opts)
	wall := time.Since(t0)
	if err != nil {
		tl.fail(err)
		return repOut{wall: wall}
	}
	return repOut{wall: wall, checks: sum.Pairs, output: checkCampaign(tl, sum)}
}

// tracedCampaign runs the campaign untraced, then again under one
// campaign.Run span on an engine with a metrics registry, which supplies
// the exact model counts of every engine job. Both runs must agree.
func tracedCampaign(o *options, tl *tally) (*tracedRun, error) {
	pub, err := newCampaignBatch(o, 0, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	pubSum, err := campaign.Run(context.Background(), pub.opts)
	pubWall := time.Since(t0)
	pubStats := pub.eng.Stats()
	pub.close()
	if err != nil {
		return nil, err
	}
	pubOut := checkCampaign(tl, pubSum)

	reg := obs.NewMetrics()
	b, err := newCampaignBatch(o, 0, reg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	tr := newTracer(true)
	root := tr.begin("perfbench.campaign", -1)
	var sum *campaign.Summary
	tr.do("campaign.run", -1, func() { sum, err = campaign.Run(context.Background(), b.opts) })
	tr.end(root)
	if err != nil {
		return nil, err
	}
	var scratch tally
	tl.check(checkCampaign(&scratch, sum) == pubOut, "campaign: traced summary (%d cells) differs from the untraced one (%d cells)",
		sum.Cells, pubSum.Cells)
	info, err := os.Stat(b.opts.CorpusPath)
	if err != nil {
		return nil, err
	}

	out := make(map[string]float64)
	st := b.eng.Stats()
	counts := registryCounts(reg)
	// Engine activity comes from the untraced run; instructions exist only
	// in the traced run's registry, so sim_kips pairs them with its busy
	// time.
	engineMetrics(pubStats, pubWall, 0, out)
	if st.SimWall > 0 {
		out["engine.sim_kips"] = float64(counts.Insts) / 1e3 / st.SimWall.Seconds()
	}
	counts.metrics(out)
	runSpan := tr.spans[1]
	runS := seconds(runSpan.End - runSpan.Start)
	out["campaign.self_s"] = runS - st.SimWall.Seconds()/float64(st.Workers)
	out["campaign.evals_per_s"] = float64(pubSum.Evals) / pubWall.Seconds()
	out["campaign.coverage_cells"] = float64(sum.Cells)
	out["campaign.new_cells_per_eval"] = float64(sum.Cells) / float64(sum.Evals)
	if leaks := sum.NewLeaks + sum.DupLeaks; leaks > 0 {
		out["campaign.dup_leak_share"] = float64(sum.DupLeaks) / float64(leaks)
	}
	out["campaign.corpus_bytes"] = float64(info.Size())
	out["trace.wall_s"] = seconds(tr.spans[0].End - tr.spans[0].Start)
	out["trace.unattributed_s"] = out["trace.wall_s"] - runS
	out["trace.overhead_share"] = runS/pubWall.Seconds() - 1
	model := newDigest()
	model.add(*counts)
	return &tracedRun{layers: out, tr: tr, output: pubOut, model: model.sum()}, nil
}

// registryCounts reads the simulator counters the engine folded into its
// registry. The campaign's in-process minimization runs are not included.
func registryCounts(reg *obs.Metrics) *modelCounts {
	c := func(name string, labels ...obs.Label) uint64 { return reg.Counter(name, "", labels...).Value() }
	l1 := obs.L("level", "L1")
	return &modelCounts{
		Cycles:           c("sim_cycles_total"),
		Insts:            c("sim_instructions_total"),
		Squashed:         c("sim_squashed_uops_total"),
		L1Accesses:       c("sim_cache_hits_total", l1) + c("sim_cache_misses_total", l1),
		L1Misses:         c("sim_cache_misses_total", l1),
		L2Misses:         c("sim_cache_misses_total", obs.L("level", "L2")),
		L3Misses:         c("sim_cache_misses_total", obs.L("level", "L3")),
		DRAM:             c("sim_dram_reads_total"),
		DoppPredictions:  c("sim_dopp_predictions_total"),
		DoppVerified:     c("sim_dopp_verified_total"),
		DoppMispredicted: c("sim_dopp_mispredicted_total"),
		Prefetches:       c("sim_prefetches_total"),
		DoMDelayed:       c("sim_dom_delayed_misses_total"),
		STTStalls:        c("sim_stt_taint_stalls_total"),
		Shadows:          c("sim_shadows_cast_total"),
	}
}
