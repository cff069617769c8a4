package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/nn"
)

// This file implements the lock-step batched decode path: all eligible
// records of a DecodeRequests batch step through one shared BatchSession,
// so each transformer weight block is streamed from memory once per token
// step (a GEMM) instead of once per record (B independent matrix-vector
// passes). The solver side stays strictly per-lane — each lane drives its
// own laneDecoder on its own pooled engine clone — so a record's sequence
// of solver probes and RNG draws is exactly the per-record path's, and its
// output is bit-identical to a solo decode (enforced by tests).
//
// Fallback rules: records that carry a per-request Decode override (beam,
// diagnose, baseline modes), batches whose decode fn is not the default
// guided decoder, and LMs that do not implement BatchLM all take the
// existing per-record worker pool. Within a lock-step group, a lane that
// fails mid-flight (context cancelled, NN context length exceeded, ...)
// is retired alone; its batch-mates keep stepping.

// acquireClone hands out an engine dedicated to one lane, reusing a pooled
// clone when one is idle. Clones share the compiled rule formula and the LM
// weights; everything mutable is per-clone, so pooling only skips the
// construction cost, not any per-record state reset (Push/Pop handles that).
func (e *Engine) acquireClone() (*Engine, error) {
	e.poolMu.Lock()
	if n := len(e.pool); n > 0 {
		c := e.pool[n-1]
		e.pool = e.pool[:n-1]
		e.poolMu.Unlock()
		return c, nil
	}
	e.poolMu.Unlock()
	return e.Clone()
}

// releaseClone returns a lane engine to the pool for the next batch. The
// pool is bounded at max(2×NumCPU, observed batch demand): the CPU term
// keeps a one-time burst of unrelated lanes from permanently retaining every
// clone and its KV-cache scratch, while the demand term — the largest batch
// size DecodeRequests has actually seen (notePoolDemand) — stops a steady
// stream of large micro-batches on a small host from re-cloning most of its
// lanes every batch. Excess clones are dropped for the GC.
func (e *Engine) releaseClone(c *Engine) {
	e.poolMu.Lock()
	limit := 2 * runtime.NumCPU()
	if e.poolDemand > limit {
		limit = e.poolDemand
	}
	if len(e.pool) < limit {
		e.pool = append(e.pool, c)
	}
	e.poolMu.Unlock()
}

// notePoolDemand records that n lanes may need clones concurrently, raising
// the pool's retention cap (never lowering it — demand is a high-water mark).
func (e *Engine) notePoolDemand(n int) {
	e.poolMu.Lock()
	if n > e.poolDemand {
		e.poolDemand = n
	}
	e.poolMu.Unlock()
}

// prefixBatchSession is the optional BatchSession extension the prefix cache
// needs: seeding a fresh lane from a frozen solo session and freezing a lane
// back out as one. *nn.BatchSession implements it; a BatchLM whose sessions
// do not simply decodes cold (any unclaimed hit is released by finish).
type prefixBatchSession interface {
	SeedLane(lane int, src *nn.Session) error
	CloneLane(lane int) *nn.Session
}

// lsLane is one record in flight inside a lock-step group.
type lsLane struct {
	out  *BatchResult
	eng  *Engine
	ld   *laneDecoder
	slot int // lane index in the group's BatchSession
	tok  int // token pending in the current step
}

// settle records the lane's outcome and recycles its engine.
func (e *Engine) settle(la *lsLane) {
	la.ld.finish()
	la.out.Res, la.out.Err = la.ld.result()
	e.releaseClone(la.eng)
}

// failLane retires la with err. A recovered panic (*PanicError) means the
// lane's engine is suspect — its solver stack may have been mid-mutation
// when the panic unwound — so the clone is discarded instead of pooled, and
// even the finish bookkeeping is guarded. Clean failures settle normally.
func (e *Engine) failLane(la *lsLane, err error) {
	var pe *PanicError
	if !errors.As(err, &pe) {
		la.ld.fail(err)
		e.settle(la)
		return
	}
	func() {
		defer func() { recover() }()
		la.ld.fail(err)
	}()
	la.ld.finished = true
	la.out.Res, la.out.Err = la.ld.res, err
}

// decodeLockStep decodes reqs[i] for every i in idxs through one shared
// BatchSession, writing outcomes into out. Seeds, per-request contexts, and
// all decoding decisions are per-lane, so results do not depend on which
// records share a batch. plans[i], when non-nil, is request i's pre-encoded
// prompt (shared read-only across lanes with identical prompts).
func (e *Engine) decodeLockStep(ctx context.Context, reqs []BatchRequest, idxs []int, seed int64, out []BatchResult, blm BatchLM, plans []*promptPlan) {
	bs := blm.NewBatchSession(len(idxs))
	lanes := make([]*lsLane, 0, len(idxs))
	for slot, i := range idxs {
		rctx := reqs[i].Ctx
		if rctx == nil {
			rctx = ctx
		}
		// A request whose context is already done is not decoded at all,
		// mirroring the per-record path.
		if err := rctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		if reqs[i].NoPrefixCache {
			rctx = DisablePrefixCache(rctx)
		}
		eng, err := e.acquireClone()
		if err != nil {
			out[i].Err = err
			continue
		}
		s := batchSeed(seed, i)
		if reqs[i].Seed != nil {
			s = *reqs[i].Seed
		}
		var plan *promptPlan
		if plans != nil {
			plan = plans[i]
		}
		la := &lsLane{out: &out[i], eng: eng, slot: slot}
		pbs, canWarm := bs.(prefixBatchSession)
		if perr := guardLane(func() error {
			la.ld = eng.newLaneDecoderPlan(rctx, reqs[i].Prompt, rand.New(rand.NewSource(s)), plan)
			if la.ld.done() {
				return nil
			}
			if !canWarm {
				return nil
			}
			// A prefix-cache hit seeds the lane's KV block and position
			// directly; the laneDecoder has already dropped the restored
			// tokens from its feed queue. Snapshot capture copies the lane
			// back out of the batch at slot boundaries.
			if ws := la.ld.applyWarm(); ws != nil {
				err := pbs.SeedLane(slot, ws)
				ws.Release()
				if err != nil {
					return err
				}
			}
			la.ld.capture = func() *nn.Session { return pbs.CloneLane(la.slot) }
			return nil
		}); perr != nil {
			// Setup panicked or the warm seed failed: a seeded-then-failed
			// lane cannot fall back to cold (its prompt queue is already
			// truncated), so record the error and discard the clone unpooled.
			out[i].Err = perr
			continue
		}
		if la.ld.done() {
			e.settle(la)
			continue
		}
		lanes = append(lanes, la)
	}

	stepLanes := make([]int, 0, len(lanes))
	stepToks := make([]int, 0, len(lanes))
	stepRefs := make([]*lsLane, 0, len(lanes))
	for len(lanes) > 0 {
		// Phase 1, per lane: solver probes + masked sampling decide the
		// lane's next token (prompt tokens need no logits; the BOS is always
		// fed before the first sampled token).
		stepLanes, stepToks, stepRefs = stepLanes[:0], stepToks[:0], stepRefs[:0]
		for _, la := range lanes {
			var logits []float32
			if bs.Len(la.slot) > 0 {
				logits = bs.Logits(la.slot)
			}
			var tok int
			err := guardLane(func() error {
				var nerr error
				tok, nerr = la.ld.next(logits)
				return nerr
			})
			if err != nil {
				e.failLane(la, err)
				continue
			}
			la.tok = tok
			stepLanes = append(stepLanes, la.slot)
			stepToks = append(stepToks, tok)
			stepRefs = append(stepRefs, la)
		}

		// Phase 2: one GEMM forward for every surviving lane. A *LaneError
		// means AppendBatch validated and refused one lane without touching
		// any state: retire that lane and retry the rest.
		for len(stepLanes) > 0 {
			err := guardLane(func() error { return bs.AppendBatch(stepLanes, stepToks) })
			if err == nil {
				break
			}
			var le *nn.LaneError
			bad := -1
			if errors.As(err, &le) {
				for j, s := range stepLanes {
					if s == le.Lane {
						bad = j
						break
					}
				}
			}
			if bad < 0 {
				// Whole-batch failure (or a panic inside the forward pass,
				// which leaves the shared session unattributable and
				// suspect): no lane advanced; fail them all.
				for _, la := range stepRefs {
					e.failLane(la, err)
				}
				stepRefs = stepRefs[:0]
				stepLanes = stepLanes[:0]
				break
			}
			la := stepRefs[bad]
			la.ld.fail(err)
			e.settle(la)
			stepLanes = append(stepLanes[:bad], stepLanes[bad+1:]...)
			stepToks = append(stepToks[:bad], stepToks[bad+1:]...)
			stepRefs = append(stepRefs[:bad], stepRefs[bad+1:]...)
		}

		// Phase 3, per lane: post-append bookkeeping (value pinning, record
		// assembly). Lanes compact without reordering: finished ones drop
		// out, the rest keep their BatchSession slot.
		next := lanes[:0]
		for _, la := range stepRefs {
			err := guardLane(func() error { return la.ld.advance(la.tok) })
			var pe *PanicError
			if errors.As(err, &pe) {
				e.failLane(la, err)
				continue
			}
			if err != nil {
				la.ld.fail(err)
			}
			if la.ld.done() {
				e.settle(la)
				continue
			}
			next = append(next, la)
		}
		lanes = next
	}
}

// decodeRequestsLockStep is the batched front half of DecodeRequests:
// records without a per-request Decode override step through shared
// BatchSessions (split into at most `workers` groups, each on its own
// goroutine), while override records take the per-record path concurrently.
// Grouping never affects output: every record's seed, engine, and decoder
// are its own.
func (e *Engine) decodeRequestsLockStep(ctx context.Context, reqs []BatchRequest, workers int, seed int64, decode DecodeCtxFn, out []BatchResult, blm BatchLM) {
	batched := make([]int, 0, len(reqs))
	var rest []int
	for i := range reqs {
		if reqs[i].Decode == nil {
			batched = append(batched, i)
		} else {
			rest = append(rest, i)
		}
	}
	// Hoist prompt rendering + tokenization out of lane setup: identical
	// prompts in one batch (the common serving shape — many requests
	// conditioned on the same coarse counters) are encoded exactly once and
	// the plan shared read-only across their lanes.
	plans := make([]*promptPlan, len(reqs))
	byText := make(map[string]*promptPlan, len(batched))
	for _, i := range batched {
		text, fromSlot, err := e.promptFor(reqs[i].Prompt)
		if err != nil {
			plans[i] = &promptPlan{err: err}
			continue
		}
		if p, ok := byText[text]; ok && p.fromSlot == fromSlot {
			plans[i] = p
			continue
		}
		p := &promptPlan{text: text, fromSlot: fromSlot}
		p.ids, p.err = e.cfg.Tok.Encode(text)
		byText[text] = p
		plans[i] = p
	}
	groups := workers
	if groups > len(batched) {
		groups = len(batched)
	}
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		// Contiguous split: group g takes batched[lo:hi].
		lo := g * len(batched) / groups
		hi := (g + 1) * len(batched) / groups
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			e.decodeLockStep(ctx, reqs, idxs, seed, out, blm, plans)
		}(batched[lo:hi])
	}
	// Per-request Decode overrides keep the per-record path, sharing the
	// clone pool; at most one extra goroutine beyond the group budget.
	if len(rest) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rest {
				eng, err := e.acquireClone()
				if err != nil {
					out[i].Err = err
					continue
				}
				if e.runRequest(ctx, reqs, i, seed, decode, eng, out) {
					// Poisoned by a recovered panic: discard, never pool.
					continue
				}
				e.releaseClone(eng)
			}
		}()
	}
	wg.Wait()
}
