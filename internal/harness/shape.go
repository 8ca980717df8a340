package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"doppelganger/internal/secure"
)

// ShapeCheck is one qualitative claim from the paper's evaluation, tested
// against a measured matrix.
type ShapeCheck struct {
	// Name identifies the claim.
	Name string
	// Claim restates the paper's qualitative finding.
	Claim string
	// Pass reports whether the measured matrix satisfies it.
	Pass bool
	// Detail carries the measured numbers behind the verdict.
	Detail string
}

// CheckShape evaluates the paper's qualitative claims against a measured
// matrix: who wins, in what order, and where address prediction helps or
// hurts. It is the executable form of the EXPERIMENTS.md comparison and is
// run by the integration tests, so a regression in any scheme's behaviour
// fails the build rather than silently skewing the figures.
func CheckShape(m *Matrix) []ShapeCheck {
	gm := func(s secure.Scheme, ap bool) float64 { return m.GeomeanNormIPC(s, ap) }
	var out []ShapeCheck
	add := func(name, claim string, pass bool, detail string) {
		out = append(out, ShapeCheck{Name: name, Claim: claim, Pass: pass, Detail: detail})
	}

	nda, stt, dom := gm(secure.NDAP, false), gm(secure.STT, false), gm(secure.DoM, false)
	add("schemes-slow-down",
		"every secure scheme runs at or below baseline performance",
		nda <= 1.001 && stt <= 1.001 && dom <= 1.001,
		fmt.Sprintf("%v %.3f, %v %.3f, %v %.3f", secure.NDAP, nda, secure.STT, stt, secure.DoM, dom))
	add("dom-slowest",
		"DoM has the largest slowdown of the three schemes (paper: 81.8% vs 88.7%/90.5%)",
		dom <= nda && dom <= stt,
		fmt.Sprintf("%v %.3f vs %v %.3f, %v %.3f", secure.DoM, dom, secure.NDAP, nda, secure.STT, stt))
	add("stt-at-least-nda",
		"STT is at least as fast as NDA-P (it permits dependent ILP)",
		stt >= nda-0.005,
		fmt.Sprintf("%v %.3f vs %v %.3f", secure.STT, stt, secure.NDAP, nda))

	for _, s := range Schemes {
		if s.Caps().UndoesSpeculation {
			// Undo schemes never delay loads, so there is no slowdown for
			// doppelganger loads to recover; AP is near-neutral for them.
			continue
		}
		base, ap := gm(s, false), gm(s, true)
		add("ap-helps-"+s.String(),
			fmt.Sprintf("address prediction recovers part of %v's slowdown", s),
			ap > base,
			fmt.Sprintf("%.3f -> %.3f", base, ap))
	}

	// The undo-based point of comparison: Cleanup speculates like the
	// unsafe core and pays only rollback, so it must outrun the strictest
	// delay-based scheme while staying at or below baseline.
	cleanup := gm(secure.Cleanup, false)
	add("cleanup-outruns-delay",
		"the undo-based scheme is faster than DoM (it never delays a load)",
		cleanup >= dom-0.005,
		fmt.Sprintf("%v %.3f vs %v %.3f", secure.Cleanup, cleanup, secure.DoM, dom))
	add("cleanup-at-most-baseline",
		"undo-based speculation runs at or below baseline performance",
		cleanup <= 1.001,
		fmt.Sprintf("%v %.3f", secure.Cleanup, cleanup))

	// Per-benchmark signatures the paper calls out in §7.
	if has(m, "stream") && has(m, "pointer_chase") {
		sGain := m.NormIPC("stream", secure.DoM, true) - m.NormIPC("stream", secure.DoM, false)
		pGain := m.NormIPC("pointer_chase", secure.DoM, true) - m.NormIPC("pointer_chase", secure.DoM, false)
		add("libquantum-standout",
			"the streaming kernel gains far more from AP than the pointer chase (libquantum vs mcf)",
			sGain > pGain+0.05,
			fmt.Sprintf("stream +%.3f vs pointer_chase %+.3f", sGain, pGain))
	}
	if has(m, "pointer_chase") {
		cov := m.Get("pointer_chase", secure.DoM, true).Coverage
		add("mcf-low-coverage",
			"pointer chasing has near-zero stride coverage (paper: mcf 9%)",
			cov < 0.15,
			fmt.Sprintf("coverage %.3f", cov))
	}
	if has(m, "hash_irregular") {
		r := m.Get("hash_irregular", secure.DoM, true)
		add("xalancbmk-low-accuracy",
			"the hash-irregular kernel has markedly lower accuracy than the suite norm (paper: ~58%)",
			r.Stats.DoppPredictions > 0 && r.Accuracy < 0.9,
			fmt.Sprintf("accuracy %.3f over %d predictions", r.Accuracy, r.Stats.DoppPredictions))
	}
	if has(m, "stream") {
		l1 := m.NormL1("stream", secure.DoM, true)
		add("ap-raises-l1-traffic",
			"doppelganger accesses do not reduce L1 traffic (they add accesses)",
			l1 >= 0.95,
			fmt.Sprintf("normalized L1 accesses %.2f", l1))
	}
	return out
}

func has(m *Matrix, w string) bool {
	_, ok := m.Results[Key{w, secure.Unsafe, false}]
	return ok
}

// PrintShapeChecks renders the checks with PASS/FAIL verdicts and returns
// the number of failures.
func PrintShapeChecks(w io.Writer, checks []ShapeCheck) int {
	failures := 0
	fmt.Fprintln(w, "Shape checks (qualitative claims from the paper's evaluation):")
	for _, c := range checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "  [%s] %-24s %s\n         measured: %s\n", verdict, c.Name, c.Claim, c.Detail)
	}
	return failures
}

// WriteCSV exports the full matrix as CSV for external analysis: one row
// per (workload, scheme, ap) cell with the headline metrics.
func WriteCSV(w io.Writer, m *Matrix) error {
	cw := csv.NewWriter(w)
	header := []string{
		"workload", "scheme", "ap", "cycles", "instructions", "ipc",
		"norm_ipc", "coverage", "accuracy",
		"l1_accesses", "l2_accesses", "l3_accesses", "dram_accesses",
		"branch_mispredicts", "squashed", "dom_delayed", "stt_stalls",
		"dopp_issued", "dopp_verified", "dopp_mispredicted",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	schemes := secure.FigureSchemes()
	for _, name := range m.Workloads {
		for _, s := range schemes {
			for _, ap := range []bool{false, true} {
				r := m.Get(name, s, ap)
				row := []string{
					name, s.String(), strconv.FormatBool(ap),
					strconv.FormatUint(r.Cycles, 10),
					strconv.FormatUint(r.Insts, 10),
					fmt.Sprintf("%.4f", r.IPC),
					fmt.Sprintf("%.4f", m.NormIPC(name, s, ap)),
					fmt.Sprintf("%.4f", r.Coverage),
					fmt.Sprintf("%.4f", r.Accuracy),
					strconv.FormatUint(r.Memory.L1Accesses, 10),
					strconv.FormatUint(r.Memory.L2Accesses, 10),
					strconv.FormatUint(r.Memory.L3Accesses, 10),
					strconv.FormatUint(r.Memory.DRAMAccesses, 10),
					strconv.FormatUint(r.Stats.BranchMispredicts, 10),
					strconv.FormatUint(r.Stats.Squashed, 10),
					strconv.FormatUint(r.Stats.DoMDelayedMisses, 10),
					strconv.FormatUint(r.Stats.STTTaintStalls, 10),
					strconv.FormatUint(r.Stats.DoppIssued, 10),
					strconv.FormatUint(r.Stats.DoppVerified, 10),
					strconv.FormatUint(r.Stats.DoppMispredicted, 10),
				}
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
