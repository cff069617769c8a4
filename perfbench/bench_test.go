package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/rules"
)

// TestTracedRunMatchesUntraced decodes both offline workloads at tiny scale
// twice, plain and through the tracer, and checks that tracing changes
// neither the outputs nor the decode counters, that the wrapped LM left the
// prefix cache and speculation unused, and that the spans nest as the
// per-layer report assumes.
func TestTracedRunMatchesUntraced(t *testing.T) {
	sc := experiments.TinyScale()
	model := filepath.Join(t.TempDir(), "model.gob")
	if err := trainModel(sc, model); err != nil {
		t.Fatal(err)
	}
	for _, impute := range []bool{true, false} {
		c, _, err := loadCorpus(sc, !impute, model)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := c.engineConfig(core.WrapNN(c.model))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		teng, err := core.NewEngine(tr.instrument(cfg))
		if err != nil {
			t.Fatal(err)
		}
		o, err := newOffline(impute, c, 7)
		if err != nil {
			t.Fatal(err)
		}
		first := map[int]outcome{}
		const n = 3
		plain, err := o.run(context.Background(), eng, 0, n, first)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := o.run(context.Background(), teng, 0, n, first)
		if err != nil {
			t.Fatal(err)
		}
		lt := tr.collect()
		if err := tr.check(); err != nil {
			t.Fatal(err)
		}

		rep := newReport()
		o.checkPass(rep, plain)
		o.checkPass(rep, traced)
		compareCounters(rep, plain, traced)
		if len(rep.failures) > 0 {
			t.Fatalf("impute=%v: %v", impute, rep.failures)
		}
		if plain.ok == 0 {
			t.Fatalf("impute=%v: no record decoded", impute)
		}
		for _, p := range []*pass{plain, traced} {
			if p.stats.PrefixHitTokens != 0 || p.stats.SpecAcceptedTokens != 0 {
				t.Fatalf("impute=%v: prefix hits %d, speculated tokens %d; want 0", impute,
					p.stats.PrefixHitTokens, p.stats.SpecAcceptedTokens)
			}
		}
		if lt.steps != int64(traced.stats.Tokens) {
			t.Errorf("impute=%v: %d traced mask steps for %d tokens", impute, lt.steps, traced.stats.Tokens)
		}
		self := lt.decode - lt.forward - lt.mask
		if lt.forward <= 0 || lt.mask <= 0 || self <= 0 || lt.forward+lt.mask+self != lt.decode {
			t.Errorf("impute=%v: spans do not nest: decode %v forward %v mask %v", impute, lt.decode, lt.forward, lt.mask)
		}
	}
}

// TestSendClassifiesAnswers feeds send well-formed and broken answers and
// checks which count as correct, as refusals, as transient failures, and as
// failures of the run.
func TestSendClassifiesAnswers(t *testing.T) {
	slot := func(i int, text string) string {
		return fmt.Sprintf("event: slot\ndata: {\"slot\":%d,\"text\":%q}\n\n", i, text)
	}
	done := func(line string, compliant bool) string {
		return fmt.Sprintf("event: done\ndata: {\"line\":%q,\"compliant\":%v}\n\n", line, compliant)
	}
	sseErr := func(code int, status string) string {
		return fmt.Sprintf("event: error\ndata: {\"code\":%d,\"error\":\"x\",\"status\":%q}\n\n", code, status)
	}
	const (
		ok = iota
		okNoncompliant
		refused
		transient
		fails
	)
	cases := []struct {
		name   string
		stream bool
		code   int
		body   string
		want   int
	}{
		{"stream", true, 200, slot(0, "1,") + slot(1, "2") + done("1,2", true), ok},
		{"stream slots do not concatenate", true, 200, slot(0, "1,") + slot(1, "2") + done("1,3", true), fails},
		{"stream slots out of order", true, 200, slot(1, "2") + slot(0, "1,") + done("21,", true), fails},
		{"stream without terminal event", true, 200, slot(0, "1,"), fails},
		{"stream infeasible", true, 200, sseErr(422, "infeasible"), refused},
		{"stream solver budget", true, 200, sseErr(503, "budget"), fails},
		{"stream server error", true, 200, slot(0, "1,") + sseErr(500, ""), fails},
		{"stream timeout", true, 200, sseErr(504, "timeout"), transient},
		{"unary", false, 200, `{"line":"1,2","compliant":true}`, ok},
		{"unary non-compliant", false, 200, `{"line":"1,2","compliant":false,"violations":["r1"]}`, okNoncompliant},
		{"unary infeasible", false, 422, `{"error":"x","status":"infeasible"}`, refused},
		{"unary queue full", false, 429, `{"error":"queue full","status":"overloaded"}`, transient},
		{"unary panic", false, 500, `{"error":"x","status":"panic"}`, fails},
		{"unary unstructured error", false, 500, `oops`, fails},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.code)
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			oc := send(context.Background(), srv.Client(), srv.URL, serveReq{stream: tc.stream}, nil, time.Now())
			got := fails
			switch {
			case oc.ok && oc.noncompliant == "":
				got = ok
			case oc.ok:
				got = okNoncompliant
			case oc.refused:
				got = refused
			case oc.transient:
				got = transient
			}
			if got != tc.want {
				t.Errorf("classified %d, want %d: %+v", got, tc.want, oc)
			}
		})
	}
}

// TestGateFailsWrongAnswers checks that the correctness gate fails the run
// for a wrong answer and only counts a transient failure, offline and when
// serving.
func TestGateFailsWrongAnswers(t *testing.T) {
	c, _, err := loadCorpus(experiments.TinyScale(), false, "")
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOffline(true, c, 7)
	if err != nil {
		t.Fatal(err)
	}
	feasible := slices.Index(o.truthViolates, false)
	if feasible < 0 {
		t.Fatal("no test window with a compliant ground truth")
	}

	// Offline: refusing a prompt whose ground truth is compliant, a record
	// that changes its prompt, and a timeout.
	p := &pass{}
	o.check(feasible, core.BatchResult{Err: core.ErrInfeasible{Detail: "test"}}, p)
	wrong := rules.Record{}
	for f, v := range o.truth[feasible] {
		wrong[f] = append([]int64(nil), v...)
	}
	wrong[dataset.CoarseFields()[0]][0]++
	o.check(feasible, core.BatchResult{Res: core.Result{Rec: wrong}}, p)
	o.check(feasible, core.BatchResult{Err: context.DeadlineExceeded}, p)
	rep := newReport()
	o.checkPass(rep, p)
	if len(rep.failures) != 2 || rep.failed != 2 || p.violations != 1 {
		t.Errorf("offline: failures %q, failed %d, violations %d; want 2, 2, 1", rep.failures, rep.failed, p.violations)
	}

	// Serving: a correct answer, a timeout, a solver-budget error, and a
	// refusal of a prompt whose ground truth is compliant.
	w := o.truth[feasible]
	win := slices.IndexFunc(c.test, func(x dataset.Window) bool { return dataset.Format(x.Rec) == dataset.Format(w) })
	reqs := []serveReq{{win: win, seed: 1}, {win: win, seed: 2}, {win: win, seed: 3}, {win: win, seed: 4}}
	l := &serveLoad{outcomes: []serveOutcome{
		{ok: true, line: dataset.Format(w)},
		{failure: "timeout", transient: true},
		{failure: "error status budget"},
		{refused: true, line: "refused"},
	}}
	truthViolates := make([]bool, len(c.test))
	rep = newReport()
	_, violations := checkServe(rep, c, reqs, l, truthViolates, map[[2]int64]string{})
	if len(rep.failures) != 2 || rep.failed != 3 || violations != 0 {
		t.Errorf("serving: failures %q, failed %d, violations %d; want 2, 3, 0", rep.failures, rep.failed, violations)
	}
}
