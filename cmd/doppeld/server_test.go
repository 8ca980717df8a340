package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"doppelganger/api"
	"doppelganger/internal/engine"
	"doppelganger/sim"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, nil).handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestRunRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var run api.RunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if run.ID == "" || run.Workload != "stream" || run.Scheme != "dom" || !run.AP {
		t.Errorf("unexpected response fields: %+v", run)
	}
	if run.Result.Cycles == 0 || run.Result.Insts == 0 {
		t.Errorf("empty result: %+v", run.Result)
	}

	// The stored result must round-trip byte-identically.
	resp2, stored := getJSON(t, ts.URL+"/v1/results/"+run.ID)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp2.StatusCode, stored)
	}
	if !bytes.Equal(body, stored) {
		t.Error("GET /v1/results body differs from the POST /v1/run body")
	}
}

func TestSweepRoundTripAndCacheHits(t *testing.T) {
	ts := newTestServer(t)
	req := `{"workloads":["matrix_blocked"],"schemes":["unsafe","dom"],"scale":"test"}`
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sweep api.SweepResponse
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(sweep.Cells) != 4 { // 1 workload x 2 schemes x 2 AP
		t.Fatalf("cells = %d, want 4", len(sweep.Cells))
	}
	if c := sweep.Cells[0]; c.Workload != "matrix_blocked" || c.Scheme != "unsafe" || c.AP {
		t.Errorf("first cell out of matrix order: %+v", c)
	}
	for _, c := range sweep.Cells {
		if c.Result.Cycles == 0 {
			t.Errorf("cell %s/%s/ap=%v is empty", c.Workload, c.Scheme, c.AP)
		}
		if c.NormIPC <= 0 {
			t.Errorf("cell %s/%s/ap=%v missing norm_ipc", c.Workload, c.Scheme, c.AP)
		}
	}
	if base := sweep.Cells[0].NormIPC; base != 1.0 {
		t.Errorf("baseline norm_ipc = %v, want 1", base)
	}

	// An identical sweep must be served from the engine's result cache.
	if resp, body := postJSON(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat sweep status %d: %s", resp.StatusCode, body)
	}
	_, statsBody := getJSON(t, ts.URL+"/stats")
	var stats struct {
		Engine engine.Stats `json:"engine"`
		Server struct {
			Runs   uint64 `json:"runs"`
			Sweeps uint64 `json:"sweeps"`
		} `json:"server"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, statsBody)
	}
	if stats.Engine.CacheHits == 0 {
		t.Errorf("repeated sweep reported no cache hits: %+v", stats.Engine)
	}
	if stats.Engine.JobsRun != 4 {
		t.Errorf("jobs run = %d, want 4 (second sweep fully cached)", stats.Engine.JobsRun)
	}
	if stats.Server.Sweeps != 2 {
		t.Errorf("sweeps = %d, want 2", stats.Server.Sweeps)
	}
}

func TestUnknownWorkloadIs400(t *testing.T) {
	ts := newTestServer(t)
	for _, ep := range []string{"/v1/run", "/v1/sweep"} {
		body := fmt.Sprintf(`{"workload%s":["nope"],"scale":"test"}`, "s")
		if ep == "/v1/run" {
			body = `{"workload":"nope","scale":"test"}`
		}
		resp, raw := postJSON(t, ts.URL+ep, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", ep, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s content type = %q", ep, ct)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "nope") {
			t.Errorf("%s error body = %s", ep, raw)
		}
	}
}

func TestBadRequestsAre400(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct{ ep, body string }{
		{"/v1/run", `{"workload":"stream","scheme":"bogus","scale":"test"}`},
		{"/v1/run", `{"workload":"stream","scale":"huge"}`},
		{"/v1/run", `{"typo_field":1}`},
		{"/v1/run", `{`},
		{"/v1/sweep", `{"ap":"maybe","scale":"test"}`},
	}
	for _, c := range cases {
		resp, raw := postJSON(t, ts.URL+c.ep, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status = %d, want 400 (%s)", c.ep, c.body, resp.StatusCode, raw)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: not a JSON error body: %s", c.ep, c.body, raw)
		}
	}
}

func TestResultsUnknownIDIs404(t *testing.T) {
	ts := newTestServer(t)
	resp, raw := getJSON(t, ts.URL+"/v1/results/run-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Errorf("not a JSON error body: %s", raw)
	}
}

// TestMetricsEndpoint mirrors main.go's wiring — one registry shared by the
// engine and the server — and checks an executed run surfaces simulator and
// engine metric families on /metrics.
func TestMetricsEndpoint(t *testing.T) {
	met := sim.NewMetrics()
	eng := engine.New(engine.Options{Workers: 2, Metrics: met})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, met).handler())
	t.Cleanup(ts.Close)

	if resp, body := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}

	resp, raw := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	out := string(raw)
	for _, family := range []string{
		"sim_cycles_total",
		"sim_cache_hits_total",
		"sim_shadow_lifetime_cycles",
		"engine_jobs_total",
		"engine_cache_misses_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}

// TestTracedRun checks trace:true returns per-run events and preserves the
// result, and that the event budget is clamped and reported.
func TestTracedRun(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test","trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var run api.RunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(run.Events) == 0 {
		t.Fatal("traced run returned no events")
	}
	if run.Result.Cycles == 0 || run.Result.Checksum == 0 {
		t.Errorf("traced run lost its result: %+v", run.Result)
	}
	for i, e := range run.Events {
		if e.Kind.String() == "" {
			t.Fatalf("event %d has no kind: %+v", i, e)
		}
	}

	// A tight budget keeps only the newest events and reports the drop.
	resp, body = postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test","trace":true,"trace_events":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var small api.RunResponse
	if err := json.Unmarshal(body, &small); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(small.Events) > 16 {
		t.Errorf("events = %d, want <= 16", len(small.Events))
	}
	if small.EventsDropped == 0 {
		t.Error("tight budget reported no dropped events")
	}
	if small.Result.Checksum != run.Result.Checksum {
		t.Error("trace budget changed the architectural result")
	}
}

func TestHealthzShape(t *testing.T) {
	ts := newTestServer(t)
	resp, raw := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		UptimeMS *int64 `json:"uptime_ms"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("bad healthz JSON: %v", err)
	}
	if h.Status != "ok" || h.UptimeMS == nil {
		t.Errorf("healthz = %s", raw)
	}
}

func TestStatsShape(t *testing.T) {
	ts := newTestServer(t)
	_, raw := getJSON(t, ts.URL+"/stats")
	var st struct {
		Engine *engine.Stats  `json:"engine"`
		Server map[string]any `json:"server"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, raw)
	}
	if st.Engine == nil || st.Engine.Workers != 4 {
		t.Errorf("engine stats missing or wrong workers: %s", raw)
	}
	for _, key := range []string{"uptime_ms", "runs", "sweeps", "results_stored"} {
		if _, ok := st.Server[key]; !ok {
			t.Errorf("server stats missing %q: %s", key, raw)
		}
	}
}

// TestParseAP pins the one "ap" parser every endpoint shares: each accepted
// value and the error text of a bad one.
func TestParseAP(t *testing.T) {
	cases := []struct {
		mode    string
		want    []bool
		wantErr string
	}{
		{"", []bool{false, true}, ""},
		{"both", []bool{false, true}, ""},
		{"off", []bool{false}, ""},
		{"on", []bool{true}, ""},
		{"maybe", nil, `unknown ap "maybe" (want "both", "on" or "off")`},
		{"ON", nil, `unknown ap "ON" (want "both", "on" or "off")`},
	}
	for _, c := range cases {
		got, err := parseAP(c.mode)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("parseAP(%q) error = %v, want %q", c.mode, err, c.wantErr)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("parseAP(%q) = %v, %v; want %v", c.mode, got, err, c.want)
		}
	}
}

// TestDefaultSchemeNames pins the scheme list a sweep, leakcheck or
// campaign request gets when it names none: the paper's schemes.
func TestDefaultSchemeNames(t *testing.T) {
	if got, want := fmt.Sprint(defaultSchemeNames()), "[unsafe nda-p stt dom]"; got != want {
		t.Errorf("defaultSchemeNames() = %s, want %s", got, want)
	}
}
