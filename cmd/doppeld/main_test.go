package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"doppelganger/api"
	"doppelganger/internal/engine"
)

// bootServer starts run() in-process and returns its base URL plus a stop
// function that cancels run's context and waits for it to return.
func bootServer(t *testing.T, args ...string) (baseURL string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), t.Logf, ready) }()
	select {
	case addr := <-ready:
		baseURL = "http://" + addr.String()
	case err := <-done:
		cancel()
		t.Fatalf("run(%v) exited before serving: %v", args, err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatalf("run(%v) never became ready", args)
	}
	stopped := false
	stop = func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(40 * time.Second):
			t.Fatal("run did not return after cancel")
			return nil
		}
	}
	t.Cleanup(func() { stop() })
	return baseURL, stop
}

// TestGracefulShutdownDrainsSweepStream starts a /v1/sweep of the stream
// workload, waits until the engine has accepted its jobs but not finished
// them, and cancels run's context mid-sweep. Shutdown must drain: the in-flight sweep completes
// with every cell before run returns (the engine closes as run returns, so
// a sweep that outlived run could not finish), and run reports no error.
func TestGracefulShutdownDrainsSweepStream(t *testing.T) {
	baseURL, stop := bootServer(t, "-workers", "1")

	const body = `{"workloads":["stream"],"scale":"test"}`
	type reply struct {
		status int
		resp   api.SweepResponse
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(baseURL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		r := reply{status: resp.StatusCode}
		r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
		replies <- r
	}()

	// One workload × the 4 default schemes × ±AP, submitted in one batch.
	const cells = 4 * 2
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st struct {
			Engine engine.Stats `json:"engine"`
		}
		_, raw := getJSON(t, baseURL+"/stats")
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("bad /stats JSON: %v", err)
		}
		if st.Engine.Submitted >= cells {
			if st.Engine.JobsRun >= cells {
				t.Fatalf("sweep finished before shutdown began (%d jobs run); enlarge it", st.Engine.JobsRun)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached the engine (submitted %d)", st.Engine.Submitted)
		}
		time.Sleep(time.Millisecond)
	}

	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	r := <-replies
	if r.err != nil {
		t.Fatalf("sweep severed instead of drained: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("drained sweep status %d", r.status)
	}
	if len(r.resp.Cells) != cells {
		t.Fatalf("drained sweep returned %d cells, want %d", len(r.resp.Cells), cells)
	}
	for _, c := range r.resp.Cells {
		if c.Result.Cycles == 0 {
			t.Errorf("cell %s/%s ap=%v has zero cycles", c.Workload, c.Scheme, c.AP)
		}
	}
}

// TestSingleRoleStillServes boots the server through run with default
// flags and checks it serves a simulation.
func TestSingleRoleStillServes(t *testing.T) {
	baseURL, _ := bootServer(t, "-workers", "1")
	resp, err := http.Post(baseURL+"/v1/run", "application/json",
		strings.NewReader(`{"workload":"stream","scale":"test"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	var out struct {
		Result struct {
			Cycles uint64 `json:"cycles"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Cycles == 0 {
		t.Error("single-role run returned zero cycles")
	}
}

// engineWorkers counts the live goroutines parked in or running an engine
// worker loop, across every engine in the process.
func engineWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "doppelganger/internal/engine.(*Engine).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestWorkerDeregistersOnShutdown pins the shutdown contract for the
// engine's worker pool: cancelling run's context stops every worker the
// server started before run returns, so no simulation goroutine outlives
// the server.
func TestWorkerDeregistersOnShutdown(t *testing.T) {
	before := engineWorkers()
	baseURL, stop := bootServer(t, "-workers", "3")
	if got := engineWorkers(); got < before+3 {
		t.Fatalf("server with -workers 3 runs %d engine workers, want at least %d", got, before+3)
	}
	resp, err := http.Post(baseURL+"/v1/run", "application/json",
		strings.NewReader(`{"workload":"stream","scale":"test"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}

	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The engine closed before run returned, so its workers are gone at
	// once: no polling, no grace period.
	if got := engineWorkers(); got > before {
		t.Errorf("%d engine workers still alive after run returned, want at most %d", got, before)
	}
}

// TestWorkerRoleRequiresCoordinator pins that the cluster worker and
// coordinator launch lines no longer start anything: doppeld has a single
// role, and each of the nine flags that configured a coordinator or a
// worker (-coordinator among them) is refused by name instead of being
// silently ignored.
func TestWorkerRoleRequiresCoordinator(t *testing.T) {
	removed := map[string]string{
		"-store":             "results.dgrs",
		"-rate-limit":        "10",
		"-rate-burst":        "20",
		"-max-queue":         "64",
		"-dispatch-parallel": "4",
		"-heartbeat":         "1s",
		"-coordinator":       "http://127.0.0.1:1",
		"-worker-id":         "w1",
		"-advertise":         "http://127.0.0.1:2",
	}
	for flag, value := range removed {
		ready := make(chan net.Addr, 1)
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", flag, value}, t.Logf, ready)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("run with %s %s: err = %v, want a refusal naming %s", flag, value, err, flag)
		}
		if len(ready) != 0 {
			t.Errorf("run with %s started serving", flag)
		}
	}
}

// TestUnknownRoleRejected pins that -role itself is gone: every role,
// including the former single default, is now an unknown flag, and run
// refuses it by name before listening.
func TestUnknownRoleRejected(t *testing.T) {
	for _, role := range []string{"single", "coordinator", "worker", "conductor"} {
		ready := make(chan net.Addr, 1)
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-role", role}, t.Logf, ready)
		if err == nil || !strings.Contains(err.Error(), "-role") {
			t.Errorf("-role %s: err = %v, want a refusal naming -role", role, err)
		}
		if len(ready) != 0 {
			t.Errorf("-role %s started serving", role)
		}
	}
}
