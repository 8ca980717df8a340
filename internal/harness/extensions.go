package harness

import (
	"context"
	"fmt"
	"io"

	"doppelganger/internal/pipeline"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// ExtensionRow is one configuration in the extensions appendix.
type ExtensionRow struct {
	Label  string
	Result sim.Result
}

// RunExtensions evaluates the reproduction's beyond-the-paper variants on
// one workload: the extra schemes, DoM value prediction, and the hybrid
// predictor, against the paper's configurations. Run options (e.g.
// sim.WithMetrics) apply to every run.
func RunExtensions(workloadName string, scale workload.Scale, runOpts ...sim.RunOption) ([]ExtensionRow, error) {
	w, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", workloadName)
	}
	prog := w.Build(scale)

	type cfgGen struct {
		label string
		make  func() sim.Config
	}
	plain := func(s secure.Scheme, ap bool) func() sim.Config {
		return func() sim.Config { return sim.Config{Scheme: s, AddressPrediction: ap} }
	}
	withCore := func(s secure.Scheme, ap bool, mutate func(*pipeline.Config)) func() sim.Config {
		return func() sim.Config {
			cc := sim.DefaultCoreConfig()
			mutate(&cc)
			return sim.Config{Scheme: s, AddressPrediction: ap, Core: &cc}
		}
	}
	// One row per scheme in registry order, each without and then with
	// address prediction; the unsafe baseline appears once, without AP, as
	// the "vs base" reference the other rows are measured against.
	var gens []cfgGen
	for _, s := range secure.AllSchemes() {
		gens = append(gens, cfgGen{s.String(), plain(s, false)})
		if s != secure.Unsafe {
			gens = append(gens, cfgGen{s.String() + "+AP", plain(s, true)})
		}
	}
	dom := secure.DoM.String()
	gens = append(gens,
		cfgGen{dom + "+VP", withCore(secure.DoM, false, func(c *pipeline.Config) { c.ValuePrediction = true })},
		cfgGen{dom + "+AP-hybrid", withCore(secure.DoM, true, func(c *pipeline.Config) {
			c.AddressPredictorKind = pipeline.PredictorHybrid
		})},
	)
	rows := make([]ExtensionRow, 0, len(gens))
	for _, g := range gens {
		res, err := sim.RunContext(context.Background(), prog, g.make(), runOpts...)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExtensionRow{Label: g.label, Result: res})
	}
	return rows, nil
}

// PrintExtensions renders the extensions appendix.
func PrintExtensions(w io.Writer, workloadName string, rows []ExtensionRow) {
	fmt.Fprintf(w, "Extensions appendix (beyond the paper), workload %q\n", workloadName)
	fmt.Fprintf(w, "  %-16s %10s %8s %10s\n", "configuration", "cycles", "IPC", "vs base")
	var base uint64
	for _, r := range rows {
		if base == 0 {
			base = r.Result.Cycles
		}
		fmt.Fprintf(w, "  %-16s %10d %8.2f %9.1f%%\n",
			r.Label, r.Result.Cycles, r.Result.IPC,
			float64(base)/float64(r.Result.Cycles)*100)
	}
}
