package pipeline

import "doppelganger/internal/obs"

// Tracing: the core emits typed obs.Events to an attached TraceSink. With
// no sink attached (the default), every emission site costs one predictable
// branch on c.tracing — the nil fast path benchmarked by
// BenchmarkSimulatorThroughput.

// SetTraceSink attaches a trace sink; pass nil to detach. Must be called
// before Run (the core is single-use and not safe for concurrent use).
// Sinks implementing obs.BatchSink receive events in buffered batches;
// buffered events are delivered at every Run exit (see FlushTrace).
func (c *Core) SetTraceSink(s obs.TraceSink) {
	c.FlushTrace()
	c.sink = s
	c.tracing = s != nil
	c.batchSink, _ = s.(obs.BatchSink)
	if c.batchSink != nil && c.traceBuf == nil {
		c.traceBuf = make([]obs.Event, 0, traceBatchSize)
	}
}

// traceBatchSize is how many events accumulate before a batched sink gets a
// delivery.
const traceBatchSize = 256

// FlushTrace delivers buffered trace events to the sink. Run flushes on
// every exit, so a sink read after a completed run always holds the full
// trace; call this directly only when inspecting the sink between manual
// Steps.
func (c *Core) FlushTrace() {
	if len(c.traceBuf) > 0 {
		c.batchSink.EmitBatch(c.traceBuf)
		c.traceBuf = c.traceBuf[:0]
	}
}

// SetCycleWindow restricts event emission to cycles in [from, to]
// (inclusive). A window may start at cycle 0; it limits which events reach
// the sink but does not itself enable tracing — attach a sink for that.
func (c *Core) SetCycleWindow(from, to uint64) {
	c.winOn, c.winFrom, c.winTo = true, from, to
}

// ClearCycleWindow removes the cycle window, so an attached sink sees every
// event.
func (c *Core) ClearCycleWindow() { c.winOn = false }

// emit stamps the current cycle and forwards the event to the sink,
// applying the cycle window. Callers must check c.tracing first.
func (c *Core) emit(e obs.Event) {
	if c.winOn && (c.cycle < c.winFrom || c.cycle > c.winTo) {
		return
	}
	e.Cycle = c.cycle
	if c.batchSink != nil {
		c.traceBuf = append(c.traceBuf, e)
		if len(c.traceBuf) == cap(c.traceBuf) {
			c.FlushTrace()
		}
		return
	}
	c.sink.Emit(e)
}

// noteShadowOpen records that u began casting a speculation shadow.
func (c *Core) noteShadowOpen(u *uop) {
	u.shadowAt = c.cycle
	if c.tracing {
		c.emit(obs.Event{Kind: obs.KindShadowOpen, Seq: u.seq, PC: u.pc})
	}
}

// noteShadowClose records that u's shadow resolved, observing its lifetime.
// Shadows removed by a squash never reach here (their lifetime is not a
// resolution).
func (c *Core) noteShadowClose(u *uop) {
	life := c.cycle - u.shadowAt
	if c.met != nil {
		c.met.shadowLifetime.Observe(life)
	}
	if c.tracing {
		c.emit(obs.Event{Kind: obs.KindShadowClose, Seq: u.seq, PC: u.pc, Lat: life})
	}
}

// coreMetrics caches per-run histogram batches for the per-event and
// per-cycle observations; nil when no registry is attached. Batches
// accumulate without atomics and fold into the shared registry on
// FlushMetrics (every Run exit does this).
type coreMetrics struct {
	shadowLifetime *obs.HistogramBatch
	loadLatency    *obs.HistogramBatch
	robOcc         *obs.HistogramBatch
	iqOcc          *obs.HistogramBatch
}

// SetMetrics attaches a metrics registry: the core observes shadow
// lifetimes, demand-load latencies and per-cycle ROB/IQ occupancy into
// scheme/ap-labeled histograms, and the memory hierarchy counts per-level
// hits and misses. Pass nil to detach (pending batched observations are
// flushed first). End-of-run counters are flushed separately via
// RecordStats (the sim package does both).
func (c *Core) SetMetrics(m *obs.Metrics) {
	if m == nil {
		c.FlushMetrics()
		c.met = nil
		c.hier.SetMetrics(nil)
		return
	}
	ap := "false"
	if c.cfg.AddressPrediction {
		ap = "true"
	}
	ls := []obs.Label{obs.L("scheme", c.cfg.Scheme.String()), obs.L("ap", ap)}
	c.met = &coreMetrics{
		shadowLifetime: m.Histogram("sim_shadow_lifetime_cycles",
			"Cycles each speculation shadow stayed open, from cast to resolution.",
			obs.LifetimeBuckets, ls...).Batch(),
		loadLatency: m.Histogram("sim_load_latency_cycles",
			"Round-trip latency of issued demand loads.",
			obs.LatencyBuckets, ls...).Batch(),
		robOcc: m.Histogram("sim_rob_occupancy",
			"Per-cycle reorder-buffer occupancy.",
			obs.OccupancyBuckets, ls...).Batch(),
		iqOcc: m.Histogram("sim_iq_occupancy",
			"Per-cycle issue-queue occupancy.",
			obs.OccupancyBuckets, ls...).Batch(),
	}
	c.hier.SetMetrics(m)
}

// FlushMetrics folds the core's and the hierarchy's locally batched
// observations into the attached registry. Run does this on every exit;
// call it directly only when scraping the registry between manual Steps.
func (c *Core) FlushMetrics() {
	if c.met != nil {
		c.met.shadowLifetime.Flush()
		c.met.loadLatency.Flush()
		c.met.robOcc.Flush()
		c.met.iqOcc.Flush()
	}
	c.hier.FlushMetrics()
}

// flushObs delivers all buffered observability state (trace events and
// batched metrics) at the end of a run segment.
func (c *Core) flushObs() {
	c.FlushTrace()
	c.FlushMetrics()
}
