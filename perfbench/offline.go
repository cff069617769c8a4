package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	metricspkg "repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/smt"
)

// batchSize is how many records go into one DecodeRequests call, as a bulk
// caller of the library would send them.
const batchSize = 32

// tracedLaps is how many laps over the test windows each pass of a traced
// run decodes. The traced run does a fixed amount of work, whatever
// -seconds says, so its per-layer totals measure the program and not how
// much of it fit into the time.
const tracedLaps = 4

// offline is one offline workload over a built corpus: an endless stream of
// requests in batches. Request j takes the prompt of test window j mod 600,
// in an order drawn from the seed (imputation), or none (synthesis), and its
// own sampling seed, so each lap over the test windows draws new samples and
// a run averages over thousands of them rather than repeating one lap.
type offline struct {
	impute  bool
	c       *corpus
	seed    int64
	prompts []rules.Record // per lap position; all nil for synthesis
	truth   []rules.Record // imputation ground truth per lap position
	// truthViolates marks lap positions whose ground-truth record breaks a
	// mined rule. Only these prompts may be refused as infeasible: a
	// compliant ground truth is itself a witness of feasibility.
	truthViolates []bool
}

func newOffline(impute bool, c *corpus, seed int64) (*offline, error) {
	o := &offline{impute: impute, c: c, seed: seed, prompts: make([]rules.Record, len(c.test))}
	if !impute {
		return o, nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i, w := range rng.Perm(len(c.test)) {
		rec := c.test[w].Rec
		o.prompts[i] = experiments.CoarseOf(rec)
		o.truth = append(o.truth, rec)
		v, err := c.rules.Violations(rec)
		if err != nil {
			return nil, err
		}
		o.truthViolates = append(o.truthViolates, len(v) > 0)
	}
	return o, nil
}

// batch returns the k-th DecodeRequests call of the stream: requests
// k*batchSize up to (k+1)*batchSize.
func (o *offline) batch(k int) []core.BatchRequest {
	reqs := make([]core.BatchRequest, batchSize)
	for i := range reqs {
		j := k*batchSize + i
		s := core.MixSeed(o.seed, j)
		reqs[i] = core.BatchRequest{Prompt: o.prompts[j%len(o.prompts)], Seed: &s}
	}
	return reqs
}

// outcome is what one request returned, reduced to what the checks compare.
type outcome struct {
	line    string // rendered record, or "refused" for a verified infeasible prompt
	stats   core.Stats
	ok      bool
	refused bool
}

// pass is one timed run of whole batches.
type pass struct {
	// decode and cpu cover the DecodeRequests calls only, without the
	// benchmark's own checking.
	decode, cpu  time.Duration
	batchLatency []float64 // ms per DecodeRequests call
	outcomes     []outcome // outcome j is request j's: every pass starts at batch 0
	records      int
	ok, refused  int
	failed       int
	violations   int      // records that break a rule or change their prompt
	failures     []string // errors and wrong records; each fails the run
	mismatches   []string
	stats        core.Stats // summed over successful records
	solver       smt.Stats
	allocBytes   float64
	gcCPU        float64
}

// run decodes batches 0, 1, ... on eng until `seconds` have passed, or
// exactly nBatches batches when nBatches > 0. first holds the first outcome
// seen per request across passes; a later outcome that differs is a
// mismatch.
func (o *offline) run(ctx context.Context, eng *core.Engine, seconds float64, nBatches int, first map[int]outcome) (*pass, error) {
	p := &pass{}
	rt0 := readRuntime()
	solver0 := eng.SolverStats()
	start := time.Now()
	for k := 0; ; k++ {
		if nBatches > 0 && k == nBatches {
			break
		}
		if nBatches <= 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		reqs := o.batch(k)
		t, cpu0 := time.Now(), processCPU()
		res, err := eng.DecodeRequests(ctx, reqs, 0, 0, nil)
		d := time.Since(t)
		p.cpu += processCPU() - cpu0
		p.decode += d
		p.batchLatency = append(p.batchLatency, ms(d))
		if err != nil {
			return nil, fmt.Errorf("DecodeRequests: %w", err)
		}
		for i, r := range res {
			p.outcomes = append(p.outcomes, o.check(k*batchSize+i, r, p))
		}
	}
	p.solver = subSolver(eng.SolverStats(), solver0)
	rt := readRuntime()
	p.allocBytes = rt.alloc - rt0.alloc
	p.gcCPU = rt.gcCPU - rt0.gcCPU
	for j, oc := range p.outcomes {
		if f, seen := first[j]; !seen {
			first[j] = oc
		} else if f.line != oc.line {
			p.mismatches = append(p.mismatches, fmt.Sprintf("request %d decoded %q, earlier %q", j, oc.line, f.line))
		}
	}
	return p, nil
}

// check verifies request j's result against the rules and the prompt.
// Refusing a prompt as infeasible is correct only when its ground truth
// breaks a mined rule; a compliant ground truth proves the prompt feasible.
// A decode cut off by the run's deadline counts as failed; any other error
// or a wrong record fails the run.
func (o *offline) check(j int, r core.BatchResult, p *pass) outcome {
	p.records++
	i := j % len(o.prompts)
	if r.Err != nil {
		var inf core.ErrInfeasible
		if o.impute && errors.As(r.Err, &inf) && o.truthViolates[i] {
			p.refused++
			return outcome{line: "refused", refused: true}
		}
		p.failed++
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			p.failures = append(p.failures, fmt.Sprintf("request %d: %v", j, r.Err))
		}
		return outcome{line: "error: " + r.Err.Error()}
	}
	rec := r.Res.Rec
	if err := checkRecord(o.c.rules, o.prompts[i], rec); err != nil {
		p.violations++
		p.failures = append(p.failures, fmt.Sprintf("request %d: %q %v", j, dataset.Format(rec), err))
	}
	p.ok++
	addStats(&p.stats, r.Res.Stats)
	return outcome{line: dataset.Format(rec), stats: r.Res.Stats, ok: true}
}

// checkRecord returns why rec is not a correct answer to prompt under rs:
// it breaks a rule or changes a prompt field. prompt is nil for synthesis.
func checkRecord(rs *rules.RuleSet, prompt, rec rules.Record) error {
	v, err := rs.Violations(rec)
	if err != nil {
		return err
	}
	if len(v) > 0 {
		return fmt.Errorf("violates %v", v)
	}
	for f, want := range prompt {
		if fmt.Sprint(rec[f]) != fmt.Sprint(want) {
			return fmt.Errorf("prompt field %s changed from %v to %v", f, want, rec[f])
		}
	}
	return nil
}

func addStats(s *core.Stats, a core.Stats) {
	s.Tokens += a.Tokens
	s.MaskedSteps += a.MaskedSteps
	s.ForcedSteps += a.ForcedSteps
	s.SolverChecks += a.SolverChecks
	s.OracleQueries += a.OracleQueries
	s.OracleFastPath += a.OracleFastPath
	s.OracleProbes += a.OracleProbes
	s.PrefixHitTokens += a.PrefixHitTokens
	s.SpecAcceptedTokens += a.SpecAcceptedTokens
}

func subSolver(a, b smt.Stats) smt.Stats {
	return smt.Stats{
		Checks: a.Checks - b.Checks, Nodes: a.Nodes - b.Nodes,
		Propagations: a.Propagations - b.Propagations, Conflicts: a.Conflicts - b.Conflicts,
		WarmStarts: a.WarmStarts - b.WarmStarts, BudgetStops: a.BudgetStops - b.BudgetStops,
	}
}

// quality is the workload's fidelity measure over a pass's records:
// imputation MAE of the fine series against ground truth, or the synthesis
// mean JSD of the coarse fields against the test split.
func (o *offline) quality(p *pass) (string, float64, error) {
	var recs []rules.Record
	var truth [][]int64
	for j, oc := range p.outcomes {
		if !oc.ok {
			continue
		}
		rec, err := dataset.ParseLine(oc.line)
		if err != nil {
			return "", 0, err
		}
		recs = append(recs, rec)
		if o.impute {
			truth = append(truth, o.truth[j%len(o.prompts)][dataset.FineField])
		}
	}
	if o.impute {
		pred := make([][]int64, len(recs))
		for i, rec := range recs {
			pred[i] = rec[dataset.FineField]
		}
		mae, err := metricspkg.MAE(pred, truth)
		return "impute_mae", mae, err
	}
	var sum float64
	for _, fname := range dataset.CoarseFields() {
		f, _ := o.c.schema.Field(fname)
		var synth, ref []float64
		for _, rec := range recs {
			synth = append(synth, float64(rec[fname][0]))
		}
		for _, w := range o.c.test {
			ref = append(ref, float64(w.Rec[fname][0]))
		}
		sum += metricspkg.JSD(synth, ref, 24, float64(f.Lo), float64(f.Hi))
	}
	return "synth_mean_jsd", sum / float64(len(dataset.CoarseFields())), nil
}

// runtimeSample holds the Go runtime counters the offline passes report.
type runtimeSample struct{ alloc, gcCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{alloc: val(0), gcCPU: val(1)}
}

// runOffline runs impute-batch (impute) or synthesize-batch.
func runOffline(env runEnv, rep *report, impute bool) error {
	var (
		c      *corpus
		cfg    core.Config
		eng    *core.Engine
		setups []setupTimes
	)
	for k := 0; k < setupRuns; k++ {
		cpu0 := processCPU()
		cc, st, err := loadCorpus(experiments.DefaultScale(), !impute, env.modelFile)
		if err != nil {
			return err
		}
		t := time.Now()
		cfg, err = cc.engineConfig(core.WrapNN(cc.model))
		if err != nil {
			return err
		}
		if eng, err = core.NewEngine(cfg); err != nil {
			return err
		}
		st.engine = time.Since(t)
		st.cpu = processCPU() - cpu0
		c = cc
		setups = append(setups, st)
	}
	reportSetup(rep, setups)
	rep.info("rules", fmt.Sprint(c.rules.Len()))

	o, err := newOffline(impute, c, env.seed)
	if err != nil {
		return err
	}
	first := map[int]outcome{}
	// The first batch fills the engine's clone pool, a cost paid once per
	// engine; decoding it untimed keeps that out of the figures. Every pass
	// starts with the same batch again, so its answers are checked for being
	// the same.
	warm, err := o.run(env.ctx, eng, 0, 1, first)
	if err != nil {
		return err
	}
	if !env.traced {
		p, err := o.run(env.ctx, eng, env.seconds, 0, first)
		if err != nil {
			return err
		}
		o.checkPass(rep, p)
		o.checkPass(rep, warm)
		rep.set("records_per_s", float64(p.records)/p.decode.Seconds(), "1/s")
		rep.set("cpu_ms_per_record", ms(p.cpu)/float64(p.ok), "ms")
		rep.set("latency_p50_ms", median(p.batchLatency), "ms")
		rep.set("latency_p99_ms", percentile(p.batchLatency, 99), "ms")
		rep.info("latency_samples", fmt.Sprintf("%d batches of up to %d records", len(p.batchLatency), batchSize))
		rep.set("peak_rss_mb", peakRSSMB(0), "MiB")
		o.reportQuality(rep, p)
		return nil
	}

	// Traced run: an untraced pass, then the same batches on an engine whose
	// LM and hooks are instrumented. Outputs and counters must agree.
	nBatches := tracedLaps * len(o.prompts) / batchSize
	pu, err := o.run(env.ctx, eng, 0, nBatches, first)
	if err != nil {
		return err
	}
	tr := newTracer()
	teng, err := core.NewEngine(tr.instrument(cfg))
	if err != nil {
		return err
	}
	if _, err := o.run(env.ctx, teng, 0, 1, first); err != nil {
		return err
	}
	tr.collect()
	if err := tr.check(); err != nil {
		return err
	}
	pt, err := o.run(env.ctx, teng, 0, nBatches, first)
	if err != nil {
		return err
	}
	lt := tr.collect()
	if err := tr.check(); err != nil {
		rep.fail("%v", err)
	}
	o.checkPass(rep, warm)
	o.checkPass(rep, pu)
	o.checkPass(rep, pt)
	compareCounters(rep, pu, pt)
	s := pt.stats
	if s.PrefixHitTokens != 0 || s.SpecAcceptedTokens != 0 {
		rep.fail("traced run used the prefix cache (%d tokens) or speculation (%d tokens)", s.PrefixHitTokens, s.SpecAcceptedTokens)
	}
	tokens := float64(s.Tokens)
	self := lt.decode - lt.forward - lt.mask
	rep.set("core.decode_s", lt.decode.Seconds(), "s")
	rep.set("nn.forward_s", lt.forward.Seconds(), "s")
	rep.set("transition.mask_s", lt.mask.Seconds(), "s")
	rep.set("core.self_s", self.Seconds(), "s")
	rep.set("core.decode_wall_s", pt.decode.Seconds(), "s")
	rep.set("nn.forward_us_per_token", float64(lt.forward.Microseconds())/tokens, "us")
	rep.set("transition.mask_us_per_token", float64(lt.mask.Microseconds())/tokens, "us")
	rep.set("core.self_us_per_token", float64(self.Microseconds())/tokens, "us")
	rep.set("nn.forward_calls", float64(lt.forwardCalls), "count")
	rep.set("nn.lanes_per_call", share(float64(lt.lanes), float64(lt.forwardCalls)), "count")
	rep.set("nn.lane_tokens", float64(lt.lanes), "count")
	rep.set("nn.us_per_lane_token", share(float64(lt.forward.Microseconds()), float64(lt.lanes)), "us")
	reportCounts(rep, s)
	sv := pu.solver
	rep.set("core.fastpath_share", share(float64(s.OracleFastPath), float64(s.OracleQueries)), "share")
	rep.set("smt.nodes_per_check", share(float64(sv.Nodes), float64(sv.Checks)), "count")
	rep.set("smt.propagations_per_check", share(float64(sv.Propagations), float64(sv.Checks)), "count")
	rep.set("smt.warm_start_share", share(float64(sv.WarmStarts), float64(sv.Checks)), "share")
	rep.set("smt.budget_stops", float64(sv.BudgetStops), "count")
	rep.set("go.alloc_bytes_per_token", pu.allocBytes/float64(pu.stats.Tokens), "B")
	rep.set("go.gc_cpu_share", share(pu.gcCPU, pu.cpu.Seconds()), "share")
	rep.set("trace.overhead_share", pt.decode.Seconds()/pu.decode.Seconds()-1, "share")
	rep.bypass("server.", "router.", "prefixcache.", "loadgen.")
	return nil
}

// checkPass turns a pass's check results into report entries.
func (o *offline) checkPass(rep *report, p *pass) {
	rep.attempted += p.records
	rep.failed += p.failed
	failAll(rep, "", p.failures)
	failAll(rep, "same request and seed, different output: ", p.mismatches)
}

// failAll fails the run once per message, printing the first three.
func failAll(rep *report, prefix string, msgs []string) {
	for i, m := range msgs {
		if i == 3 {
			rep.fail("... and %d more", len(msgs)-3)
			return
		}
		rep.fail("%s%s", prefix, m)
	}
}

// compareCounters checks that the traced pass reproduced the untraced one.
func compareCounters(rep *report, a, b *pass) {
	if len(a.outcomes) != len(b.outcomes) {
		rep.fail("traced pass decoded %d records, untraced %d", len(b.outcomes), len(a.outcomes))
		return
	}
	for i := range a.outcomes {
		x, y := a.outcomes[i].stats, b.outcomes[i].stats
		if a.outcomes[i].line != b.outcomes[i].line || x.Tokens != y.Tokens || x.SolverChecks != y.SolverChecks ||
			x.OracleQueries != y.OracleQueries || x.OracleFastPath != y.OracleFastPath {
			rep.fail("traced record %d differs from untraced: %q %+v vs %q %+v", i,
				b.outcomes[i].line, y, a.outcomes[i].line, x)
			return
		}
	}
}

func (o *offline) reportQuality(rep *report, p *pass) {
	rep.set("failed_share", share(float64(p.failed), float64(p.records)), "share")
	rep.set("violation_share", share(float64(p.violations), float64(p.records)), "share")
	rep.set("infeasible_share", share(float64(p.refused), float64(p.records)), "share")
	name, q, err := o.quality(p)
	if err != nil {
		rep.fail("quality: %v", err)
		return
	}
	unit := "count"
	if !o.impute {
		unit = "bits"
	}
	rep.set(name, q, unit)
}

// reportCounts sets the per-token decode counters both kinds of workload
// can read from per-record stats.
func reportCounts(rep *report, s core.Stats) {
	tokens := float64(s.Tokens)
	rep.set("core.tokens", tokens, "count")
	rep.set("core.masked_share", float64(s.MaskedSteps)/tokens, "share")
	rep.set("core.forced_share", float64(s.ForcedSteps)/tokens, "share")
	rep.set("smt.checks_per_token", float64(s.SolverChecks)/tokens, "count")
}

// reportSetup reports the median of each set-up step over the repeats.
// setup_s is the median CPU time of a whole set-up rather than its wall
// time: on a host whose hypervisor steals a third of the CPU for minutes at
// a time, wall time doubles while CPU time moves by about a tenth, and the
// CPU time still shows any work moved into set-up.
func reportSetup(rep *report, setups []setupTimes) {
	med := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	rep.set("setup_s", med(func(s setupTimes) time.Duration { return s.cpu }), "s")
	rep.set("setup_wall_s", med(setupTimes.wall), "s")
	rep.set("dataset.simulate_s", med(func(s setupTimes) time.Duration { return s.simulate }), "s")
	rep.set("mining.mine_s", med(func(s setupTimes) time.Duration { return s.mine }), "s")
	rep.set("nn.load_s", med(func(s setupTimes) time.Duration { return s.load }), "s")
	rep.set("core.engine_build_s", med(func(s setupTimes) time.Duration { return s.engine }), "s")
	rep.set("lejitd.start_s", med(func(s setupTimes) time.Duration { return s.lejitd }), "s")
}
