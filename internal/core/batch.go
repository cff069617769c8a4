package core

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/rules"
)

// DecodeFn decodes one prompt on an engine. DecodeBatch calls it with a
// worker-local engine and a per-prompt RNG; implementations must not retain
// either across calls. Method expressions over *Engine fit directly, e.g.
// (*Engine).Vanilla.
type DecodeFn func(e *Engine, known rules.Record, rng *rand.Rand) (Result, error)

// DecodeCtxFn is the context-aware form of DecodeFn. The context is the
// per-record one (see BatchRequest.Ctx); implementations should abandon the
// decode promptly once it is cancelled.
type DecodeCtxFn func(ctx context.Context, e *Engine, known rules.Record, rng *rand.Rand) (Result, error)

// BatchRequest is one record's worth of work for DecodeRequests. The zero
// value (plus a Prompt) behaves exactly like an entry of DecodeBatch's
// prompt slice.
type BatchRequest struct {
	// Prompt is the known prefix; nil means unconditional generation.
	Prompt rules.Record
	// Ctx cancels just this record. nil means the batch context. A request
	// whose context is already done is not decoded at all; its BatchResult
	// carries the context's error.
	Ctx context.Context
	// Seed, when non-nil, overrides the index-derived RNG seed. This is what
	// lets a serving layer coalesce requests from independent callers into
	// one batch while keeping each caller's output a deterministic function
	// of its own seed, not of batch composition (DESIGN.md §8).
	Seed *int64
	// Decode, when non-nil, overrides the batch-level decode function for
	// this record (e.g. a per-request baseline mode).
	Decode DecodeCtxFn
	// NoPrefixCache opts this record out of the engine's cross-request
	// prefix cache: no warm start and no snapshot capture. Output is
	// unaffected either way (warm decodes are bit-identical); the knob
	// exists for isolation — e.g. keeping a tenant's prompts out of shared
	// cache state — and for cold-path measurement.
	NoPrefixCache bool
}

// prefixCacheOffKey marks a context whose decodes must skip the prefix
// cache (see DisablePrefixCache).
type prefixCacheOffKey struct{}

// DisablePrefixCache returns a context under which guided decodes neither
// consult nor populate the engine's prefix cache. Used by the serving layer
// for per-request opt-out; callers invoking ImputeCtx/GenerateCtx directly
// can use it too.
func DisablePrefixCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, prefixCacheOffKey{}, true)
}

func prefixCacheDisabled(ctx context.Context) bool {
	off, _ := ctx.Value(prefixCacheOffKey{}).(bool)
	return off
}

// emitKey carries a per-request slot-emit hook (streaming responses).
type emitKey struct{}

// EmitFn receives one completed slot's rendered text (digits plus trailing
// separator) as soon as the decode has proven it exact. Chunks arrive in slot
// order and their concatenation equals the full rendered line byte for byte.
// Implementations run on the decoding goroutine and must not block.
type EmitFn func(slot int, text string)

// WithEmit returns a context under which guided decodes stream each
// completed slot to fn as soon as its separator is decoded (DESIGN.md §16). The serving layer uses it for SSE
// responses; callers invoking ImputeCtx/GenerateCtx directly can too.
func WithEmit(ctx context.Context, fn EmitFn) context.Context {
	return context.WithValue(ctx, emitKey{}, fn)
}

// emitFor resolves the slot-emit hook for a decode (nil → no streaming).
func emitFor(ctx context.Context) EmitFn {
	fn, _ := ctx.Value(emitKey{}).(EmitFn)
	return fn
}

// BatchResult pairs one prompt's decode outcome with its index.
type BatchResult struct {
	Index int
	Res   Result
	Err   error
}

// MixSeed derives the RNG seed for record i of a batch seeded with seed.
// Seeding by index rather than by decode order is what makes batch output
// independent of worker count and scheduling. The finalizer is splitmix64:
// unlike the earlier affine seed+i*7919 scheme, distinct (seed, i) pairs
// cannot collide by construction of a small seed delta, so two nearby batch
// seeds never share per-record RNG streams.
func MixSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

func batchSeed(seed int64, i int) int64 { return MixSeed(seed, i) }

// defaultDecode selects ImputeCtx/GenerateCtx by prompt presence.
func defaultDecode(ctx context.Context, e *Engine, known rules.Record, rng *rand.Rand) (Result, error) {
	if known == nil {
		return e.GenerateCtx(ctx, rng)
	}
	return e.ImputeCtx(ctx, known, rng)
}

// DecodeBatch decodes prompts[i] for every i and returns results in prompt
// order. A nil prompt means unconditional generation; a nil decode selects
// Generate/Impute accordingly. workers < 1 means runtime.GOMAXPROCS(0).
//
// Determinism contract: prompt i is decoded with
// rand.NewSource(MixSeed(seed, i)) on an engine equivalent to the receiver
// (the receiver itself when workers == 1, a Clone otherwise), so for a fixed
// seed the returned records are byte-identical for every worker count.
// Engines are single-threaded; each worker gets its own clone, while the LM
// weights and the compiled rule formula are shared read-only.
func (e *Engine) DecodeBatch(prompts []rules.Record, workers int, seed int64, decode DecodeFn) ([]BatchResult, error) {
	var dc DecodeCtxFn
	if decode != nil {
		dc = func(_ context.Context, eng *Engine, known rules.Record, rng *rand.Rand) (Result, error) {
			return decode(eng, known, rng)
		}
	}
	return e.DecodeBatchCtx(context.Background(), prompts, workers, seed, dc)
}

// DecodeBatchCtx is DecodeBatch under a context: cancelling ctx stops
// in-flight decodes at the next token boundary and skips records not yet
// started (their BatchResult.Err is the context error).
func (e *Engine) DecodeBatchCtx(ctx context.Context, prompts []rules.Record, workers int, seed int64, decode DecodeCtxFn) ([]BatchResult, error) {
	reqs := make([]BatchRequest, len(prompts))
	for i, p := range prompts {
		reqs[i].Prompt = p
	}
	return e.DecodeRequests(ctx, reqs, workers, seed, decode)
}

// DecodeRequests is the most general batch entry point: each request may
// carry its own context, seed, and decode function (see BatchRequest). It
// preserves DecodeBatch's determinism contract — request i without an
// explicit seed uses rand.NewSource(MixSeed(seed, i)) — while letting a
// serving layer cancel or time out individual records without aborting the
// batch. The returned error reports only batch-level failures (engine
// cloning); per-record failures, including context cancellation, land in
// BatchResult.Err.
//
// When the engine's LM implements BatchLM, the batch-level decode function
// is the default guided decoder, and at least two requests carry no
// per-request Decode override, those requests are decoded lock-step through
// a shared BatchSession (lockstep.go): each transformer weight block is
// streamed once per token step for the whole group instead of once per
// record. The determinism contract is unchanged — outputs are bit-identical
// to the per-record path for every batch composition.
func (e *Engine) DecodeRequests(ctx context.Context, reqs []BatchRequest, workers int, seed int64, decode DecodeCtxFn) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defaultPath := decode == nil
	if decode == nil {
		decode = defaultDecode
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	out := make([]BatchResult, len(reqs))
	for i := range out {
		out[i].Index = i
	}
	if len(reqs) == 0 {
		return out, nil
	}
	e.notePoolDemand(len(reqs))
	if blm, ok := e.cfg.LM.(BatchLM); ok && defaultPath {
		eligible := 0
		for i := range reqs {
			if reqs[i].Decode == nil {
				eligible++
			}
		}
		if eligible >= 2 {
			e.decodeRequestsLockStep(ctx, reqs, workers, seed, decode, out, blm)
			return out, nil
		}
	}
	if workers == 1 {
		for i := range reqs {
			e.runRequest(ctx, reqs, i, seed, decode, e, out)
		}
		return out, nil
	}

	engines := make([]*Engine, workers)
	for w := range engines {
		eng, err := e.Clone()
		if err != nil {
			return nil, err
		}
		engines[w] = eng
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for _, eng := range engines {
		wg.Add(1)
		go func(eng *Engine) {
			defer wg.Done()
			for i := range idx {
				if e.runRequest(ctx, reqs, i, seed, decode, eng, out) {
					// The worker's engine absorbed a panic: replace it for
					// the remaining records. If cloning fails, keep the old
					// one — its solver frames were rebalanced by the guided
					// path's deferred cleanup, so best-effort reuse beats
					// failing every remaining record.
					if fresh, cerr := e.Clone(); cerr == nil {
						eng = fresh
					}
				}
			}
		}(eng)
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, nil
}

// runRequest decodes reqs[i] on eng via the per-record path, resolving the
// request's context, seed, and decode overrides. Shared by the worker pool
// above and the lock-step scheduler's fallback lanes. A panic inside the
// decode is converted into a per-record *PanicError and reported via the
// poisoned return: the caller should retire eng (the panic unwound through
// its solver and session state) rather than reuse or pool it. The guided
// path defers its frame cleanup, so even a poisoned engine has had its
// solver stack rebalanced — reuse is a last resort, not instant corruption.
func (e *Engine) runRequest(ctx context.Context, reqs []BatchRequest, i int, seed int64, decode DecodeCtxFn, eng *Engine, out []BatchResult) (poisoned bool) {
	rctx := reqs[i].Ctx
	if rctx == nil {
		rctx = ctx
	}
	if err := rctx.Err(); err != nil {
		out[i].Err = err
		return false
	}
	if reqs[i].NoPrefixCache {
		rctx = DisablePrefixCache(rctx)
	}
	s := batchSeed(seed, i)
	if reqs[i].Seed != nil {
		s = *reqs[i].Seed
	}
	d := reqs[i].Decode
	if d == nil {
		d = decode
	}
	rng := rand.New(rand.NewSource(s))
	defer func() {
		if r := recover(); r != nil {
			out[i].Res = Result{}
			out[i].Err = &PanicError{Value: r, Stack: debug.Stack()}
			poisoned = true
		}
	}()
	out[i].Res, out[i].Err = d(rctx, eng, reqs[i].Prompt, rng)
	return false
}

// BatchImpute builds an engine from cfg and imputes every prompt via
// DecodeBatch. Kept as the package-level convenience entry point; callers
// that already hold an engine should use DecodeBatch directly and skip the
// construction cost.
func BatchImpute(cfg Config, prompts []rules.Record, workers int, seed int64) ([]BatchResult, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return eng.DecodeBatch(prompts, workers, seed, nil)
}
