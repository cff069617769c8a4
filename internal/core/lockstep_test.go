package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// --- NN-backed fixtures -----------------------------------------------------
//
// The mock LMs above don't implement BatchLM, so every other test in this
// package exercises the per-record fallback. These tests build a real (tiny,
// untrained) transformer: WrapNN's adapter implements BatchLM, which routes
// eligible DecodeRequests batches through the lock-step scheduler.

var (
	nnModelOnce sync.Once
	nnModelVal  *nn.Model
	nnModelErr  error
)

func nnTestModel(tb testing.TB) *nn.Model {
	tb.Helper()
	nnModelOnce.Do(func() {
		nnModelVal, nnModelErr = nn.New(nn.Config{
			Vocab: vocab.Telemetry().Size(), Ctx: 48, Dim: 16, Heads: 2, Layers: 2,
		}, 7)
	})
	if nnModelErr != nil {
		tb.Fatal(nnModelErr)
	}
	return nnModelVal
}

func nnTestEngine(tb testing.TB) *Engine {
	tb.Helper()
	schema := rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
	rs, err := rules.ParseRuleSet(testRules, schema)
	if err != nil {
		tb.Fatal(err)
	}
	slots, err := TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: WrapNN(nnTestModel(tb)), Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: LeJIT,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// soloDecode runs reqs[i] exactly as the per-record path would, on a fresh
// clone so the comparison engine carries no state from other records.
func soloDecode(tb testing.TB, e *Engine, req BatchRequest, seed int64, i int) (Result, error) {
	tb.Helper()
	eng, err := e.Clone()
	if err != nil {
		tb.Fatal(err)
	}
	s := MixSeed(seed, i)
	if req.Seed != nil {
		s = *req.Seed
	}
	rctx := req.Ctx
	if rctx == nil {
		rctx = context.Background()
	}
	rng := rand.New(rand.NewSource(s))
	if req.Prompt == nil {
		return eng.GenerateCtx(rctx, rng)
	}
	return eng.ImputeCtx(rctx, req.Prompt, rng)
}

// checkMatchesSolo asserts every lock-step outcome equals the per-record one:
// same record, same sampled-token count, same error-ness.
func checkMatchesSolo(t *testing.T, e *Engine, reqs []BatchRequest, out []BatchResult, seed int64) {
	t.Helper()
	for i := range reqs {
		res, err := soloDecode(t, e, reqs[i], seed, i)
		if (err != nil) != (out[i].Err != nil) {
			t.Errorf("record %d: lock-step err %v, solo err %v", i, out[i].Err, err)
			continue
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(out[i].Res.Rec, res.Rec) {
			t.Errorf("record %d: lock-step %v != solo %v", i, out[i].Res.Rec, res.Rec)
		}
		if out[i].Res.Stats.Tokens != res.Stats.Tokens {
			t.Errorf("record %d: lock-step sampled %d tokens, solo %d", i, out[i].Res.Stats.Tokens, res.Stats.Tokens)
		}
	}
}

// TestLockStepMatchesSolo: batches of every small size and mixed prompt
// shapes (imputation, generation, per-request seeds) decode to records
// byte-identical to the per-record path. This is the golden equivalence the
// GEMM decode path promises: batch composition never changes any record.
func TestLockStepMatchesSolo(t *testing.T) {
	e := nnTestEngine(t)
	override := int64(12345)
	for _, n := range []int{2, 3, 5} {
		reqs := make([]BatchRequest, n)
		for i := range reqs {
			switch i % 3 {
			case 0:
				reqs[i].Prompt = rules.Record{"TotalIngress": {120}, "Congestion": {10}}
			case 1:
				reqs[i].Prompt = rules.Record{"TotalIngress": {60 + int64(i)}, "Congestion": {0}}
			default:
				// Unconditional generation shares the batch with imputations.
			}
			if i == n-1 {
				reqs[i].Seed = &override
			}
		}
		out, err := e.DecodeRequests(context.Background(), reqs, 1, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesSolo(t, e, reqs, out, 42)
	}
}

// TestLockStepGroupingInvariance: the same requests decoded with different
// worker counts (different group splits) and different batch-mates produce
// identical records — output is a function of (request, seed, index) only.
func TestLockStepGroupingInvariance(t *testing.T) {
	e := nnTestEngine(t)
	reqs := make([]BatchRequest, 6)
	for i := range reqs {
		reqs[i].Prompt = rules.Record{"TotalIngress": {100 + 20*int64(i)}, "Congestion": {5}}
	}
	base, err := e.DecodeRequests(context.Background(), reqs, 1, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 6} {
		out, err := e.DecodeRequests(context.Background(), reqs, workers, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if (out[i].Err != nil) != (base[i].Err != nil) {
				t.Fatalf("workers=%d record %d: err %v vs base %v", workers, i, out[i].Err, base[i].Err)
			}
			if !reflect.DeepEqual(out[i].Res.Rec, base[i].Res.Rec) {
				t.Errorf("workers=%d record %d: %v != %v", workers, i, out[i].Res.Rec, base[i].Res.Rec)
			}
		}
	}
	// Pinning the seed pins the record regardless of batch-mates: the same
	// request decoded in a different batch keeps its output.
	s := int64(7)
	lone := []BatchRequest{{Prompt: reqs[2].Prompt, Seed: &[]int64{MixSeed(s, 2)}[0]}, {Prompt: rules.Record{"TotalIngress": {33}, "Congestion": {1}}}}
	out, err := e.DecodeRequests(context.Background(), lone, 1, 999, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[0].Res.Rec, base[2].Res.Rec) {
		t.Errorf("seed-pinned record changed with batch composition: %v != %v", out[0].Res.Rec, base[2].Res.Rec)
	}
}

// TestLockStepMixedOverrides: per-request Decode overrides fall back to the
// per-record path while their batch-mates stay lock-step, all in one call.
func TestLockStepMixedOverrides(t *testing.T) {
	e := nnTestEngine(t)
	calls := 0
	reqs := []BatchRequest{
		{Prompt: rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{Prompt: rules.Record{"TotalIngress": {90}, "Congestion": {0}}, Decode: func(ctx context.Context, eng *Engine, known rules.Record, rng *rand.Rand) (Result, error) {
			calls++
			return eng.ImputeCtx(ctx, known, rng)
		}},
		{Prompt: rules.Record{"TotalIngress": {150}, "Congestion": {20}}},
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("override decode called %d times, want 1", calls)
	}
	checkMatchesSolo(t, e, reqs, out, 11)
}

// TestLockStepLaneFailure: a lane whose per-request context is already dead
// must not decode, and a lane cancelled mid-flight must not disturb its
// batch-mates' outputs.
func TestLockStepLaneFailure(t *testing.T) {
	e := nnTestEngine(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []BatchRequest{
		{Prompt: rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{Prompt: rules.Record{"TotalIngress": {90}, "Congestion": {0}}, Ctx: dead},
		{Prompt: rules.Record{"TotalIngress": {150}, "Congestion": {20}}},
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Err != context.Canceled {
		t.Errorf("dead-ctx lane err %v, want context.Canceled", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		res, err := soloDecode(t, e, reqs[i], 5, i)
		if err != nil || out[i].Err != nil {
			t.Fatalf("record %d: solo err %v, batched err %v", i, err, out[i].Err)
		}
		if !reflect.DeepEqual(out[i].Res.Rec, res.Rec) {
			t.Errorf("record %d changed by a failing batch-mate: %v != %v", i, out[i].Res.Rec, res.Rec)
		}
	}
}

// TestLockStepConcurrentGroups drives several lock-step groups plus fallback
// lanes at once; its real assertions run under the race detector (make
// verify runs this package with -race).
func TestLockStepConcurrentGroups(t *testing.T) {
	e := nnTestEngine(t)
	reqs := make([]BatchRequest, 12)
	for i := range reqs {
		if i%4 == 3 {
			reqs[i].Decode = func(ctx context.Context, eng *Engine, known rules.Record, rng *rand.Rand) (Result, error) {
				return eng.ImputeCtx(ctx, known, rng)
			}
		}
		reqs[i].Prompt = rules.Record{"TotalIngress": {60 + 10*int64(i)}, "Congestion": {int64(i % 3)}}
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 4, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Err != nil {
			t.Errorf("record %d: %v", i, r.Err)
		}
	}
}

// FuzzLockStepMatchesSolo randomizes batch composition and seeds and asserts
// every record's lock-step outcome (including infeasible-prompt errors)
// matches its solo decode.
func FuzzLockStepMatchesSolo(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(42), uint8(5), uint8(0xA5))
	f.Add(int64(-9), uint8(3), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seed int64, n, mix uint8) {
		e := nnTestEngine(t)
		lanes := int(n)%6 + 2
		reqs := make([]BatchRequest, lanes)
		for i := range reqs {
			switch (int(mix) >> (i % 8)) & 1 {
			case 0:
				reqs[i].Prompt = rules.Record{
					"TotalIngress": {int64(uint(seed)+uint(i)*37) % 301},
					"Congestion":   {int64(uint(mix)+uint(i)) % 101},
				}
			default:
				reqs[i].Prompt = nil
			}
		}
		out, err := e.DecodeRequests(context.Background(), reqs, 1+int(mix)%3, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesSolo(t, e, reqs, out, seed)
	})
}

// TestLockStepClonePool: pooled engine clones are reused across batches and
// leave no residue — back-to-back batches on one engine decode identically.
func TestLockStepClonePool(t *testing.T) {
	e := nnTestEngine(t)
	reqs := []BatchRequest{
		{Prompt: rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{Prompt: rules.Record{"TotalIngress": {60}, "Congestion": {0}}},
	}
	first, err := e.DecodeRequests(context.Background(), reqs, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.poolMu.Lock()
	pooled := len(e.pool)
	e.poolMu.Unlock()
	if pooled == 0 {
		t.Fatal("no engine clones returned to the pool")
	}
	second, err := e.DecodeRequests(context.Background(), reqs, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if fmt.Sprint(first[i].Res.Rec) != fmt.Sprint(second[i].Res.Rec) {
			t.Errorf("record %d drifted across pooled batches: %v != %v", i, first[i].Res.Rec, second[i].Res.Rec)
		}
	}
}

// TestReleaseClonePoolCap: the pool retains up to max(2×NumCPU, observed
// batch demand) clones — the demand high-water mark lifts the CPU-derived
// cap so a large micro-batch on a small host keeps its lane engines.
func TestReleaseClonePoolCap(t *testing.T) {
	e := nnTestEngine(t)
	drain := func() {
		e.poolMu.Lock()
		e.pool = nil
		e.poolDemand = 0
		e.poolMu.Unlock()
	}
	drain()
	defer drain()

	baseCap := 2 * runtime.NumCPU()
	want := baseCap + 3
	clones := make([]*Engine, want+2)
	for i := range clones {
		c, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		clones[i] = c
	}

	for _, c := range clones {
		e.releaseClone(c)
	}
	e.poolMu.Lock()
	got := len(e.pool)
	e.poolMu.Unlock()
	if got != baseCap {
		t.Fatalf("pool retained %d clones with no recorded demand, want %d", got, baseCap)
	}

	drain()
	e.notePoolDemand(want)
	e.notePoolDemand(1) // a smaller batch must not lower the high-water mark
	for _, c := range clones {
		e.releaseClone(c)
	}
	e.poolMu.Lock()
	got = len(e.pool)
	e.poolMu.Unlock()
	if got != want {
		t.Fatalf("pool retained %d clones with demand %d, want %d", got, want, want)
	}
}
