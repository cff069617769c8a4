package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// tracer times the layers of an offline decode from outside the engine:
// LM forward passes through a core.BatchLM wrapper, and the mask step as the
// span from Config.FaultHook to Config.TraceHook, which bracket the
// admissible-set computation and the masked sampling of one decoding step.
//
// Several lock-step groups decode at once, one per worker goroutine, and the
// hooks do not say which lane called them. Each step calls FaultHook and
// then TraceHook on the same goroutine, so the sum of the TraceHook clock
// readings minus the sum of the FaultHook readings is the total mask time,
// however the calls of different groups interleave. The count of each must
// match for that to hold; check verifies it.
//
// The wrapper hides the concrete nn-backed LM from core, which turns off
// the prefix cache, speculation and kernel sharding. The offline workloads
// use none of them, and the traced run checks that its outputs and counters
// equal the untraced run's.
type tracer struct {
	base time.Time

	faultNs, traceNs atomic.Int64
	faults, traces   atomic.Int64
	soloSessions     atomic.Int64

	mu     sync.Mutex
	groups []*timedBatch
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) faultHook(core.FaultSite) error {
	t.faultNs.Add(t.now())
	t.faults.Add(1)
	return nil
}

func (t *tracer) traceHook(core.TraceStep) {
	t.traceNs.Add(t.now())
	t.traces.Add(1)
}

// instrument returns cfg with its LM wrapped and both hooks installed.
func (t *tracer) instrument(cfg core.Config) core.Config {
	cfg.LM = timedLM{inner: cfg.LM.(core.BatchLM), t: t}
	cfg.FaultHook = t.faultHook
	cfg.TraceHook = t.traceHook
	return cfg
}

// layerTimes are the summed per-layer spans of one traced pass, in
// goroutine-seconds: two groups decoding for one second count two.
type layerTimes struct {
	decode, forward, mask time.Duration
	forwardCalls, lanes   int64
	steps                 int64
}

// collect sums the spans recorded since the last collect and resets them.
func (t *tracer) collect() layerTimes {
	t.mu.Lock()
	groups := t.groups
	t.groups = nil
	t.mu.Unlock()
	var lt layerTimes
	for _, g := range groups {
		if g.calls == 0 {
			continue
		}
		lt.decode += g.last.Sub(g.start)
		lt.forward += g.forward
		lt.forwardCalls += g.calls
		lt.lanes += g.lanes
	}
	lt.mask = time.Duration(t.traceNs.Swap(0) - t.faultNs.Swap(0))
	lt.steps = t.traces.Load()
	return lt
}

// check reports a hook or path mismatch that would make the spans wrong.
func (t *tracer) check() error {
	if f, tr := t.faults.Swap(0), t.traces.Swap(0); f != tr {
		return fmt.Errorf("tracer: %d FaultHook calls but %d TraceHook calls; a step failed between them", f, tr)
	}
	if n := t.soloSessions.Load(); n > 0 {
		return fmt.Errorf("tracer: %d records took the solo decode path, which the spans do not cover", n)
	}
	return nil
}

// timedLM wraps a batch-capable LM so every forward pass is timed.
type timedLM struct {
	inner core.BatchLM
	t     *tracer
}

func (l timedLM) VocabSize() int { return l.inner.VocabSize() }

func (l timedLM) NewSession() core.Session {
	l.t.soloSessions.Add(1)
	return l.inner.NewSession()
}

func (l timedLM) NewBatchSession(n int) core.BatchSession {
	b := &timedBatch{inner: l.inner.NewBatchSession(n), start: time.Now()}
	l.t.mu.Lock()
	l.t.groups = append(l.t.groups, b)
	l.t.mu.Unlock()
	return b
}

// timedBatch is one lock-step group's session. Its span runs from its
// creation, when core starts the group, to the return of its last forward
// pass; only the group's own goroutine touches it.
type timedBatch struct {
	inner       core.BatchSession
	start, last time.Time
	forward     time.Duration
	calls       int64
	lanes       int64
}

func (b *timedBatch) AppendBatch(lanes, toks []int) error {
	t0 := time.Now()
	err := b.inner.AppendBatch(lanes, toks)
	b.last = time.Now()
	b.forward += b.last.Sub(t0)
	b.calls++
	b.lanes += int64(len(lanes))
	return err
}

func (b *timedBatch) Logits(lane int) []float32 { return b.inner.Logits(lane) }
func (b *timedBatch) Len(lane int) int          { return b.inner.Len(lane) }
