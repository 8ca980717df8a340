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

// SensitivityPoint is one machine configuration in a sensitivity sweep.
type SensitivityPoint struct {
	Label   string
	DoM     sim.Result
	DoMAP   sim.Result
	Recover float64 // fraction of the DoM slowdown recovered by AP
}

// RunSensitivity sweeps a machine parameter and reports how robust the
// doppelganger recovery is to it — the reviewer question the paper's fixed
// Table 1 configuration leaves open. Supported axes: "rob", "mshrs",
// "predictor", "ports". Run options (e.g. sim.WithMetrics) apply to every
// run of the sweep.
func RunSensitivity(axis, workloadName string, scale workload.Scale, runOpts ...sim.RunOption) ([]SensitivityPoint, error) {
	w, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", workloadName)
	}
	prog := w.Build(scale)

	type variant struct {
		label  string
		mutate func(*pipeline.Config)
	}
	var variants []variant
	switch axis {
	case "rob":
		for _, n := range []int{64, 128, 352, 512} {
			n := n
			variants = append(variants, variant{fmt.Sprintf("rob=%d", n),
				func(c *pipeline.Config) { c.ROBSize = n }})
		}
	case "mshrs":
		for _, n := range []int{4, 8, 16, 32} {
			n := n
			variants = append(variants, variant{fmt.Sprintf("mshrs=%d", n),
				func(c *pipeline.Config) { c.Memory.L1MSHRs = n }})
		}
	case "predictor":
		for _, n := range []int{128, 512, 1024, 4096} {
			n := n
			variants = append(variants, variant{fmt.Sprintf("entries=%d", n),
				func(c *pipeline.Config) { c.Stride.Entries = n }})
		}
	case "ports":
		for _, n := range []int{1, 2, 4} {
			n := n
			variants = append(variants, variant{fmt.Sprintf("ports=%d", n),
				func(c *pipeline.Config) { c.LoadPorts = n }})
		}
	default:
		return nil, fmt.Errorf("harness: unknown sensitivity axis %q (rob, mshrs, predictor, ports)", axis)
	}

	run := func(mutate func(*pipeline.Config), scheme secure.Scheme, ap bool) (sim.Result, error) {
		cc := sim.DefaultCoreConfig()
		mutate(&cc)
		cfg := sim.Config{Scheme: scheme, AddressPrediction: ap, Core: &cc}
		return sim.RunContext(context.Background(), prog, cfg, runOpts...)
	}

	points := make([]SensitivityPoint, 0, len(variants))
	for _, v := range variants {
		base, err := run(v.mutate, secure.Unsafe, false)
		if err != nil {
			return nil, err
		}
		dom, err := run(v.mutate, secure.DoM, false)
		if err != nil {
			return nil, err
		}
		domAP, err := run(v.mutate, secure.DoM, true)
		if err != nil {
			return nil, err
		}
		// Only meaningful when the scheme actually pays a slowdown at
		// this point (a saturated machine can make all three equal).
		rec := 0.0
		if float64(dom.Cycles) > 1.01*float64(base.Cycles) {
			rec = (float64(dom.Cycles) - float64(domAP.Cycles)) /
				(float64(dom.Cycles) - float64(base.Cycles))
		}
		points = append(points, SensitivityPoint{Label: v.label, DoM: dom, DoMAP: domAP, Recover: rec})
	}
	return points, nil
}

// PrintSensitivity renders a sweep.
func PrintSensitivity(w io.Writer, axis, workloadName string, points []SensitivityPoint) {
	fmt.Fprintf(w, "Sensitivity of DoM+AP recovery to %s (workload %q)\n", axis, workloadName)
	dom := secure.DoM.String()
	fmt.Fprintf(w, "  %-16s %12s %12s %12s\n", axis, dom+" cycles", dom+"+AP", "recovered")
	for _, p := range points {
		fmt.Fprintf(w, "  %-16s %12d %12d %11.0f%%\n",
			p.Label, p.DoM.Cycles, p.DoMAP.Cycles, p.Recover*100)
	}
}
