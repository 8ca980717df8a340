// Command perfbench is the repository benchmark. It drives four workloads
// through the simulator's public entry points with tracing off, checks
// every output, and prints the end-to-end metrics; with -trace 1 it
// instead re-drives the same work through the layers' exported functions
// under in-memory spans and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
//	cd perfbench && go run . -workload leakcheck -seed 7 -seconds 10 -trace 1
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"}}}
//
// Every metric is printed on every workload. Per-layer metrics of a layer
// a workload does not reach read 0.
//
// End-to-end metrics (tracing off; timings are medians over repetitions):
//
//	setup_s       building one repetition's inputs and reference results
//	alloc_mb      heap bytes the public entry points allocate per repetition
//	peak_rss_mb   peak memory the Go runtime holds from the OS during one
//	              repetition (the resident set less the binary)
//	matrix_s      wall time of one repetition's fixed batch: the 140-cell
//	              figures matrix, the leakage sweep (plus the mutation
//	              gauntlet), or the budgeted campaign
//	checks_per_s  checked outputs per second: cells verified against the
//	              reference interpreter plus shape checks on figures,
//	              differential pair checks on the leakage and campaign
//	              workloads
//
// Each repetition uses a fresh engine and, for campaigns, a fresh corpus,
// so no repetition measures result-cache lookups. Simulated caches start
// empty; leakcheck_warm warms them inside every gadget run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricSpec names a printed metric and its unit.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"matrix_s", "s"},
	{"checks_per_s", "1/s"},
}

// perLayer lists the traced run's metrics. Times are self times in
// seconds summed over the run; counts are exact.
var perLayer = []metricSpec{
	{"pipeline.run_s.unsafe", "s"},
	{"pipeline.run_s.nda-p", "s"},
	{"pipeline.run_s.stt", "s"},
	{"pipeline.run_s.dom", "s"},
	{"pipeline.run_s.cleanup", "s"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.run_alloc_mb", "MB"},
	{"pipeline.run_alloc_mb.cleanup", "MB"},
	{"pipeline.new_s", "s"},
	{"pipeline.new_calls", "count"},
	{"pipeline.new_alloc_mb", "MB"},
	{"pipeline.micro_digest_s", "s"},
	{"pipeline.obs_traces_s", "s"},
	{"mem.occupied_sets_s", "s"},
	{"program.run_tainted_s", "s"},
	{"pipeline.drain_s", "s"},
	{"pipeline.capture_state_s", "s"},
	{"checkpoint.encode_s", "s"},
	{"pipeline.restore_s", "s"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.snapshots", "count"},
	{"sim.summarize_s", "s"},
	{"engine.jobs", "count"},
	{"engine.cache_hits", "count"},
	{"engine.busy_s", "s"},
	{"engine.idle_share", "ratio"},
	{"engine.sim_kips", "kinst/s"},
	{"campaign.self_s", "s"},
	{"campaign.evals_per_s", "1/s"},
	{"campaign.coverage_cells", "count"},
	{"campaign.new_cells_per_eval", "ratio"},
	{"campaign.dup_leak_share", "ratio"},
	{"campaign.corpus_bytes", "bytes"},
	{"workload.build_s", "s"},
	{"program.interpret_s", "s"},
	{"leakcheck.build_s", "s"},
	{"leakcheck.check_s", "s"},
	{"leakcheck.gauntlet_s", "s"},
	{"harness.check_shape_s", "s"},
	{"harness.shape_failures", "count"},
	{"pipeline.cycles", "count"},
	{"pipeline.insts", "count"},
	{"pipeline.squashed_uops", "count"},
	{"mem.l1_accesses", "count"},
	{"mem.l1_misses", "count"},
	{"mem.l2_misses", "count"},
	{"mem.l3_misses", "count"},
	{"mem.dram_accesses", "count"},
	{"predictor.dopp_predictions", "count"},
	{"predictor.dopp_verified", "count"},
	{"predictor.accuracy", "ratio"},
	{"predictor.prefetches_issued", "count"},
	{"secure.dom_delayed_misses", "count"},
	{"secure.stt_taint_stalls", "count"},
	{"secure.shadows_cast", "count"},
	{"trace.wall_s", "s"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_s", "s"},
}

// benchWorkload is one benchmark workload: a closed batch of fixed work.
type benchWorkload struct {
	// setup builds repetition rep's inputs; its duration is setup_s.
	// Seeded workloads give each repetition its own block of inputs
	// derived from the seed (see repSeed), so one run averages over more
	// inputs; figures repeats its fixed matrix.
	setup func(o *options, rep int) (batch, error)
	// seeded reports that repetitions differ; the outputs of a figures
	// repetition must equal the first one's exactly.
	seeded bool
	// traced runs the workload once untraced through its public entry
	// points, then re-drives it with tracing off and on and checks that
	// all three agree.
	traced func(o *options, tl *tally) (*tracedRun, error)
}

// tracedRun is what a traced run produced.
type tracedRun struct {
	layers map[string]float64
	tr     *tracer
	// output digests what users read; model digests every exact model
	// count, per cell or gadget pair where the layers expose them.
	output, model string
}

// batch is one repetition's prepared work.
type batch interface {
	// run executes the batch through the public entry points and checks
	// its outputs into tl.
	run(tl *tally) repOut
	// close releases the repetition's engine and files.
	close()
}

// repOut is what one repetition measured.
type repOut struct {
	wall   time.Duration // inside the public entry points
	checks int           // checked outputs, for checks_per_s
	output string        // digest of the outputs users read
	model  string        // digest of exact model counts; "" when not exposed
}

var workloads = map[string]benchWorkload{
	"figures":        {setup: setupFigures, traced: tracedFigures},
	"leakcheck":      {setup: setupLeakcheck(false), traced: tracedLeakcheck(false), seeded: true},
	"leakcheck_warm": {setup: setupLeakcheck(true), traced: tracedLeakcheck(true), seeded: true},
	"campaign":       {setup: setupCampaign, traced: tracedCampaign, seeded: true},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every batch to a few operations (for tests).
	tiny bool
	// workers is the engine and sweep parallelism: one per CPU.
	workers int
	// dir receives spans, result records and temporary corpora.
	dir string
}

// repSeed is the first seed of repetition rep's input block: blocks of
// one run follow each other, and runs with different seeds never share
// a block.
func repSeed(seed int64, rep, blockSize int) int64 {
	return seed*1_000_000 + int64(rep*blockSize)
}

// tally counts checked operations and failures.
type tally struct {
	attempted, failed int
	failures          []string
}

// check records one operation; a false ok counts it as failed.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// fail records a failed operation (an error).
func (t *tally) fail(err error) { t.check(false, "%v", err) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is recorded with every result, since timings compare only
// within one machine.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func host() hostInfo {
	h := hostInfo{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o          options
		traceFlag  int
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	fs.StringVar(&o.workload, "workload", "", "figures, leakcheck, leakcheck_warm or campaign")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (figures has none and ignores it)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the batch")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every batch to a few operations")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for spans, results and temporary corpora")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload figures|leakcheck|leakcheck_warm|campaign and -trace 0|1\n")
		return 2
	}
	o.trace = traceFlag == 1
	o.workers = runtime.NumCPU()
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	hi := host()
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%g trace=%d tiny=%v workers=%d | %s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		o.workload, o.seed, o.seconds, traceFlag, o.tiny, o.workers,
		hi.GoVersion, hi.GOMAXPROCS, hi.NumCPU, hi.CPUModel)

	res, record, err := run(&o, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	record["host"] = hi
	record["result"] = res
	path := filepath.Join(o.dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, traceFlag))
	if err := writeJSON(path, record); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *memProfile != "" {
		runtime.GC()
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// run measures the workload and assembles the printed result and the
// record written beside it.
func run(o *options, w benchWorkload, log io.Writer) (result, map[string]any, error) {
	var tl tally
	values := make(map[string]float64)
	record := map[string]any{"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "tiny": o.tiny}
	specs := endToEnd
	if o.trace {
		specs = perLayer
		tr, err := w.traced(o, &tl)
		if err != nil {
			return result{}, nil, err
		}
		values = tr.layers
		spans := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.tr.write(spans); err != nil {
			return result{}, nil, err
		}
		record["spans"] = spans
		record["output_digest"], record["model_digest"] = tr.output, tr.model
		fmt.Fprintf(log, "perfbench: output digest %s, model-count digest %s\n", tr.output, tr.model)
	} else {
		reps, err := measure(o, w, &tl, values)
		if err != nil {
			return result{}, nil, err
		}
		record["repetitions"] = reps
	}
	for _, f := range tl.failures {
		fmt.Fprintln(log, "perfbench: FAIL:", f)
	}
	res := result{
		Correct:   tl.failed == 0 && tl.attempted > 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		res.Metrics[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	record["failures"] = tl.failures
	return res, record, nil
}

// A run times at least minSetups set-ups, and keeps sampling for up to
// setupSampling or maxSetups samples in all; setup_s is their median.
const (
	minSetups     = 5
	maxSetups     = 200
	setupSampling = time.Second
)

// repRecord is one repetition's raw measurements.
type repRecord struct {
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	AllocMB float64 `json:"alloc_mb"`
	PeakMB  float64 `json:"peak_rss_mb"`
	Checks  int     `json:"checks"`
	Output  string  `json:"output_digest"`
	Model   string  `json:"model_digest,omitempty"`
}

// measure repeats the batch, each time on freshly set-up inputs, until
// about o.seconds have passed, and reports medians over the repetitions.
// Every figures repetition must reproduce the first one's outputs and
// model counts exactly.
func measure(o *options, w benchWorkload, tl *tally, values map[string]float64) ([]repRecord, error) {
	var reps []repRecord
	var setups []float64
	start := time.Now()
	for {
		repStart := time.Now()
		b, setupS, err := timedSetup(o, w, len(reps))
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupS)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		peak := watchMemory()
		out := b.run(tl)
		peakBytes := peak()
		runtime.ReadMemStats(&m1)
		b.close()
		r := repRecord{SetupS: setupS, WallS: out.wall.Seconds(),
			AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
			PeakMB:  float64(peakBytes) / 1e6,
			Checks:  out.checks, Output: out.output, Model: out.model}
		if len(reps) > 0 && !w.seeded {
			tl.check(r.Output == reps[0].Output, "repetition %d outputs %s differ from the first's %s",
				len(reps), r.Output, reps[0].Output)
			tl.check(r.Model == reps[0].Model, "repetition %d model counts %s differ from the first's %s",
				len(reps), r.Model, reps[0].Model)
		}
		reps = append(reps, r)
		// Stop when another repetition would end past the deadline by
		// more than half its length.
		repS := time.Since(repStart).Seconds()
		if time.Since(start).Seconds()+repS/2 >= o.seconds {
			break
		}
	}
	// Cheap set-ups are sampled more often, so their median is not one
	// noisy microsecond reading.
	for sampled := time.Now(); len(setups) < minSetups ||
		(len(setups) < maxSetups && time.Since(sampled) < setupSampling); {
		b, setupS, err := timedSetup(o, w, len(setups))
		if err != nil {
			return nil, err
		}
		b.close()
		setups = append(setups, setupS)
	}

	var walls, allocs, peaks, rates []float64
	for _, r := range reps {
		walls = append(walls, r.WallS)
		allocs = append(allocs, r.AllocMB)
		peaks = append(peaks, r.PeakMB)
		rates = append(rates, float64(r.Checks)/r.WallS)
	}
	values["setup_s"] = median(setups)
	values["alloc_mb"] = median(allocs)
	values["peak_rss_mb"] = median(peaks)
	values["matrix_s"] = median(walls)
	values["checks_per_s"] = median(rates)
	return reps, nil
}

// timedSetup builds one repetition's inputs, timing it from a collected
// heap so earlier garbage does not land in the measurement.
func timedSetup(o *options, w benchWorkload, rep int) (batch, float64, error) {
	runtime.GC()
	t0 := time.Now()
	b, err := w.setup(o, rep)
	return b, time.Since(t0).Seconds(), err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memorySamplePeriod is how often watchMemory samples.
const memorySamplePeriod = time.Millisecond

// watchMemory samples the memory the Go runtime holds from the operating
// system — heap, stacks and runtime metadata, minus what it has released —
// which is the process's resident set less its binary. The returned stop
// function ends the sampling and returns the peak. The process-lifetime
// peak from getrusage would fold set-up and every earlier repetition into
// one noisy maximum; a per-repetition peak has a median.
func watchMemory() (stop func() uint64) {
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() uint64 {
		metrics.Read(samples)
		return samples[0].Value.Uint64() - samples[1].Value.Uint64()
	}
	done := make(chan struct{})
	result := make(chan uint64)
	go func() {
		peak := read()
		tick := time.NewTicker(memorySamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, read())
			case <-done:
				result <- max(peak, read())
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seconds converts a span total to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// layerMetrics turns the traced run's span totals into per-layer metrics.
// cycles is the simulated cycle count the pipeline.run spans covered.
func layerMetrics(tr *tracer, offWall time.Duration, cycles uint64, out map[string]float64) {
	totals := tr.selfTotals()
	get := func(name string) *layerTotals {
		if lt := totals[name]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	var runNS int64
	var runAlloc uint64
	for name, lt := range totals {
		if scheme, ok := strings.CutPrefix(name, "pipeline.run."); ok {
			out["pipeline.run_s."+scheme] = seconds(lt.SelfNS)
			runNS += lt.SelfNS
			runAlloc += lt.SelfAlloc
		}
	}
	if cycles > 0 {
		out["pipeline.ns_per_cycle"] = float64(runNS) / float64(cycles)
	}
	out["pipeline.run_alloc_mb"] = float64(runAlloc) / 1e6
	out["pipeline.run_alloc_mb.cleanup"] = float64(get("pipeline.run.cleanup").SelfAlloc) / 1e6
	nw := get("pipeline.new")
	out["pipeline.new_s"] = seconds(nw.SelfNS)
	out["pipeline.new_calls"] = float64(nw.Calls)
	out["pipeline.new_alloc_mb"] = float64(nw.SelfAlloc) / 1e6
	for metricName, spanName := range map[string]string{
		"pipeline.micro_digest_s":  "pipeline.micro_digest",
		"pipeline.obs_traces_s":    "pipeline.obs_traces",
		"mem.occupied_sets_s":      "mem.occupied_sets",
		"program.run_tainted_s":    "program.run_tainted",
		"pipeline.drain_s":         "pipeline.drain",
		"pipeline.capture_state_s": "pipeline.capture_state",
		"checkpoint.encode_s":      "checkpoint.encode",
		"pipeline.restore_s":       "pipeline.restore",
		"sim.summarize_s":          "sim.summarize",
		"workload.build_s":         "workload.build",
		"program.interpret_s":      "program.interpret",
		"leakcheck.build_s":        "leakcheck.build",
		"leakcheck.check_s":        "leakcheck.check",
		"leakcheck.gauntlet_s":     "leakcheck.gauntlet",
		"harness.check_shape_s":    "harness.check_shape",
	} {
		out[metricName] = seconds(get(spanName).SelfNS)
	}
	out["checkpoint.snapshots"] = float64(get("checkpoint.encode").Calls)
	root := tr.spans[0]
	out["trace.wall_s"] = seconds(root.End - root.Start)
	out["trace.unattributed_s"] = seconds(get(root.Name).SelfNS)
	if offWall > 0 {
		out["trace.overhead_share"] = float64(root.End-root.Start)/float64(offWall) - 1
	}
}
