package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded by the traced re-drive.
// Spans nest strictly (the re-drive is serial), so a span's parent is the
// span open when it began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Op     int    `json:"op"`     // per-operation id: the cell or gadget pair it serves
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated while open
}

// tracer records spans in memory. A disabled tracer records nothing, so
// the same re-drive code runs with tracing off to measure the overhead
// and to prove that spans do not change what the layers compute.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:     on,
		t0:     time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// allocated reads the process's cumulative heap allocation. The re-drive
// is serial, so the delta over a span is that span's allocation.
func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, op int) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Alloc: t.allocated(), Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans must close innermost first.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Alloc = t.allocated() - s.Alloc
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, op int, f func()) {
	id := t.begin(name, op)
	f()
	t.end(id)
}

// layerTotals is one span name's aggregate: summed self time and self
// allocation (the span's own figures minus its children's), and the
// number of spans.
type layerTotals struct {
	SelfNS    int64
	SelfAlloc uint64
	Calls     int
}

// selfTotals aggregates self time and self allocation by span name. The
// root's self time is the part of the traced wall time no layer span
// covers.
func (t *tracer) selfTotals() map[string]*layerTotals {
	childNS := make([]int64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.SelfNS += s.End - s.Start - childNS[i]
		lt.SelfAlloc += s.Alloc - childAlloc[i]
		lt.Calls++
	}
	return out
}

// write stores every span as one JSON line, in start order (the order
// begin appended them).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
