package core

import (
	"context"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/rules"
)

// Impute generates the slots not covered by known, conditioned on the known
// prefix (the paper's telemetry-imputation task: coarse counters in, fine
// series out), enforcing the rule set Just-In-Time.
func (e *Engine) Impute(known rules.Record, rng *rand.Rand) (Result, error) {
	return e.guided(context.Background(), known, rng)
}

// ImputeCtx is Impute under a context: a cancelled or expired context stops
// the decode at the next token boundary — before the next round of solver
// probes — and returns the context's error.
func (e *Engine) ImputeCtx(ctx context.Context, known rules.Record, rng *rand.Rand) (Result, error) {
	return e.guided(ctx, known, rng)
}

// Generate produces a full record unconditionally (the synthetic-data task),
// enforcing the rule set Just-In-Time.
func (e *Engine) Generate(rng *rand.Rand) (Result, error) {
	return e.guided(context.Background(), nil, rng)
}

// GenerateCtx is Generate under a context (see ImputeCtx).
func (e *Engine) GenerateCtx(ctx context.Context, rng *rand.Rand) (Result, error) {
	return e.guided(ctx, nil, rng)
}

// guided is the LeJIT decoding loop (paper Fig 1b):
//
//  1. Compile-once rules live on the engine's solver; the known prefix is
//     asserted under a Push frame.
//  2. For each remaining slot, a character-level transition system
//     (internal/transition, paper Fig 2) asks the solver range-feasibility
//     queries — "does a rule-compliant completion exist in which this
//     variable's value starts with these digits?" — which perform the
//     lookahead over unfixed suffix variables for free, because the solver
//     treats them as existentially quantified.
//  3. Admissible tokens keep their model logits; everything else is masked
//     and the remainder renormalized. When the value terminates, its
//     equality is asserted, activating/deactivating rules for later slots
//     (dynamic partial instantiation, §3 step ①–②).
//
// The loop itself lives in laneDecoder (lane.go), a token-at-a-time state
// machine that the per-record path here and the lock-step batch scheduler
// (lockstep.go) drive identically: guided feeds it a private Session, the
// scheduler feeds many lanes from one shared BatchSession.
func (e *Engine) guided(ctx context.Context, known rules.Record, rng *rand.Rand) (Result, error) {
	ld := e.newLaneDecoder(ctx, known, rng)
	defer ld.finish()
	if !ld.done() {
		var sess Session
		var logits []float32
		if ws := ld.applyWarm(); ws != nil {
			// Prefix-cache hit: decode directly on the restored session. Its
			// logits are the model's output after the cached prefix, exactly
			// what a cold decode would have computed token by token.
			sess = ws
			logits = ws.Logits()
		} else {
			sess = e.cfg.LM.NewSession()
		}
		if ns, ok := sess.(*nn.Session); ok {
			// Snapshot capture at slot boundaries is a COW clone: pages are
			// shared, so the cost is O(pages) bookkeeping, not a KV copy.
			ld.capture = ns.Clone
			defer ns.Release()
		}
		for !ld.done() {
			tok, err := ld.next(logits)
			if err != nil {
				ld.fail(err)
				break
			}
			if err := sess.Append(tok); err != nil {
				ld.fail(err)
				break
			}
			if err := ld.advance(tok); err != nil {
				ld.fail(err)
				break
			}
			logits = sess.Logits()
		}
	}
	return ld.result()
}
