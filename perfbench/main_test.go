package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doppelganger/internal/campaign"
	"doppelganger/internal/harness"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics and the
// declared ones in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics printed, %d declared", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: printed %s (%s), declared %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not defined", w.Name)
		}
	}
}

// TestTinyRuns runs every workload at tiny size, untraced and traced, and
// checks the printed result: exactly the contract's keys, every metric
// with its unit, and a clean failure count.
func TestTinyRuns(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace,
					"-tiny", "-dir", dir}
				if trace == "0" {
					args = append(args, "-cpuprofile", filepath.Join(dir, "cpu.pprof"),
						"-memprofile", filepath.Join(dir, "mem.pprof"))
				}
				var stdout, stderr bytes.Buffer
				if code := realMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatal(err)
				}
				if len(raw) != 4 {
					t.Errorf("result has keys %v, want correct, attempted, failed, metrics", raw)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d; stderr:\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.name)
					case m.Unit != s.unit:
						t.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
				if trace == "0" {
					for _, f := range []string{"cpu.pprof", "mem.pprof"} {
						if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
							t.Errorf("profile %s not written: %v", f, err)
						}
					}
				}
			})
		}
	}
}

// TestFailuresCounted feeds each workload's checker outputs that break its
// rules and checks that every broken rule counts one failed operation.
func TestFailuresCounted(t *testing.T) {
	t.Run("figures", func(t *testing.T) {
		names := []string{"k"}
		m := &harness.Matrix{Workloads: names, Results: map[harness.Key]sim.Result{}}
		for i, k := range figureCells(names) {
			m.Results[k] = sim.Result{Checksum: 7}
			if i == 3 {
				m.Results[k] = sim.Result{Checksum: 8}
			}
		}
		var tl tally
		fo := checkFigures(&tl, names, []uint64{7}, m, []harness.ShapeCheck{{Name: "a", Pass: true}, {Name: "b"}})
		if tl.failed != 2 || tl.attempted != 12 || fo.shapeFailures != 1 {
			t.Errorf("failed %d of %d (shape %d), want 2 of 12 (shape 1): %v", tl.failed, tl.attempted, fo.shapeFailures, tl.failures)
		}
	})
	t.Run("leakcheck", func(t *testing.T) {
		cfgs := []leakcheck.Config{{Scheme: secure.Unsafe}, {Scheme: secure.DoM}}
		leak := leakcheck.SeedLeak{Seed: 1, Leak: leakcheck.Leak{Config: cfgs[1], Components: []string{"L1"}}}
		lo := &leakOutcome{
			sweeps:    [][]leakcheck.SeedLeak{nil, {leak}},
			mutations: []leakcheck.MutationOutcome{{Mutation: secure.MutSTTNoTaint, SeedsTried: 4}},
		}
		var tl tally
		lo.check(&tl, cfgs, 4)
		// 8 pair checks, the unsafe verdict and the mutation; the DoM leak,
		// the silent unsafe config and the missed mutation fail.
		if tl.failed != 3 || tl.attempted != 10 {
			t.Errorf("failed %d of %d, want 3 of 10: %v", tl.failed, tl.attempted, tl.failures)
		}
	})
	t.Run("campaign", func(t *testing.T) {
		sum := &campaign.Summary{Evals: 2, Pairs: 16, Leaks: []campaign.LeakRecord{
			{Config: leakcheck.Config{Scheme: secure.STT}},
			{Config: leakcheck.Config{Scheme: secure.Unsafe, Mutation: secure.MutSpecTrain}},
		}}
		var tl tally
		checkCampaign(&tl, sum)
		if tl.failed != 2 || tl.attempted != 18 {
			t.Errorf("failed %d of %d, want 2 of 18: %v", tl.failed, tl.attempted, tl.failures)
		}
	})
}

// TestSelfTimes checks that a span's self time excludes its children and
// that a disabled tracer records nothing.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("root", -1)
	tr.do("child", 0, func() { time.Sleep(20 * time.Millisecond) })
	tr.do("child", 1, func() { time.Sleep(20 * time.Millisecond) })
	tr.end(root)
	totals := tr.selfTotals()
	rootNS := tr.spans[0].End - tr.spans[0].Start
	if got := totals["child"].SelfNS + totals["root"].SelfNS; got != rootNS {
		t.Errorf("self times sum to %d ns, root span is %d ns", got, rootNS)
	}
	if totals["child"].Calls != 2 || totals["child"].SelfNS < int64(40*time.Millisecond) {
		t.Errorf("child totals %+v", *totals["child"])
	}
	off := newTracer(false)
	off.do("x", 0, func() {})
	if len(off.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(off.spans))
	}
}
