package experiments

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// LoadBenchConfig parameterizes the open-loop serving sweep (BENCH_9): a
// Poisson arrival process drives lejitd fleets of 1, 2, and 4 engine shards
// across a rate sweep, mixing streamed (SSE) and unary clients.
type LoadBenchConfig struct {
	Conns       int           // in-flight connection cap (default 10000)
	Replicas    []int         // fleet sizes swept (default {1, 2, 4})
	RateFactors []float64     // multipliers on the calibrated base rate (default {0.5, 1.0, 1.5, 2.0})
	Duration    time.Duration // target arrival span per rate point (default 1s)
	BatchWindow time.Duration // micro-batch window (default 2ms)
	MaxBatch    int           // records per batch cap (default 32)
	Workers     int           // decode pool size per shard (default Scale.Workers)
	QueueDepth  int           // fleet-wide admission cap (default 256, split across shards)
	Combos      int           // distinct (prompt, seed) pairs cycled (default 8)
}

func (c *LoadBenchConfig) fill(sc ScaleConfig) {
	if c.Conns <= 0 {
		c.Conns = 10000
	}
	if len(c.Replicas) == 0 {
		c.Replicas = []int{1, 2, 4}
	}
	if len(c.RateFactors) == 0 {
		c.RateFactors = []float64{0.5, 1.0, 1.5, 2.0}
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Workers <= 0 {
		c.Workers = sc.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Combos <= 0 {
		c.Combos = 8
	}
}

// maxPointRequests bounds one rate point's arrival count so a fast machine's
// calibrated base rate cannot blow the sweep up into minutes.
const maxPointRequests = 4096

// LoadReport is the machine-readable open-loop sweep written as BENCH_9.json.
// Latency percentiles are over successful requests only and are measured from
// each request's scheduled Poisson arrival time, so queueing delay the server
// induces under overload is charged to the server, never hidden by a slow
// client loop (no coordinated omission).
type LoadReport struct {
	Conns      int `json:"conns"`
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"gomaxprocs"`

	BatchWindowMs   float64 `json:"batch_window_ms"`
	MaxBatch        int     `json:"max_batch"`
	Workers         int     `json:"workers"`
	QueueDepth      int     `json:"queue_depth"`
	PointDurationMs float64 `json:"point_duration_ms"`
	BaseRatePerSec  float64 `json:"base_rate_per_sec"` // calibrated on the 1-shard fleet

	Curves []LoadCurve `json:"curves"`

	// StreamedMatchesUnary is the bit-identity gate: per fleet, every
	// verification pair (sequential, concurrent wave) and every
	// in-sweep streamed response concatenated to exactly the unary line.
	StreamedMatchesUnary bool `json:"streamed_matches_unary"`
	// StaleEpochs counts 200s whose epoch differed from the fleet's pack
	// epoch; MisSeeded counts 200s whose line differed from the recorded
	// line for the same (prompt, seed). Both must be zero.
	StaleEpochs int `json:"stale_epochs"`
	MisSeeded   int `json:"mis_seeded"`
	// Errors counts transport failures and unexpected status codes.
	// Backpressure answers (429/503/504) are tallied per point, not here.
	Errors int `json:"errors"`

	Warning string `json:"warning,omitempty"`
}

// LoadCurve is one fleet size's rate sweep.
type LoadCurve struct {
	Replicas int         `json:"replicas"`
	Points   []LoadPoint `json:"points"`
}

// LoadPoint is one offered rate against one fleet.
type LoadPoint struct {
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"` // successful requests over the point's wall-clock
	Requests       int     `json:"requests"`
	OK             int     `json:"ok"`
	Streamed       int     `json:"streamed"` // successful SSE requests (half the mix)
	Rejected429    int     `json:"rejected_429"`
	Unavailable503 int     `json:"unavailable_503"`
	Timeout504     int     `json:"timeout_504"`
	Errors         int     `json:"errors"`

	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// TTFT is scheduled-arrival to first SSE slot event, streamed 200s only.
	TTFTP50Ms float64 `json:"ttft_p50_ms"`
	TTFTP95Ms float64 `json:"ttft_p95_ms"`
}

// loadCombo is one (prompt, seed) pair in its two request encodings. The
// seed is pinned so every decode of the combo must reproduce the same line —
// that determinism is what makes mis-seeding observable from the outside.
type loadCombo struct {
	unary    []byte
	streamed []byte
}

func buildLoadCombo(known any, seed int64) (loadCombo, error) {
	mk := func(extra map[string]any) ([]byte, error) {
		req := map[string]any{"known": known, "seed": seed}
		for k, v := range extra {
			req[k] = v
		}
		return json.Marshal(req)
	}
	var c loadCombo
	var err error
	if c.unary, err = mk(nil); err != nil {
		return c, err
	}
	c.streamed, err = mk(map[string]any{"stream": true})
	return c, err
}

// RunLoadBench sweeps offered load against lejitd fleets of increasing shard
// count. Arrivals are open-loop Poisson: each request fires at its scheduled
// time whether or not earlier ones have completed, up to cfg.Conns in flight.
// Before any load is offered, each fleet must prove the streamed path
// bit-identical to unary; during the sweep every 200 is checked against the
// recorded line and epoch for its (prompt, seed).
func RunLoadBench(env *Env, cfg LoadBenchConfig) (*LoadReport, error) {
	cfg.fill(env.Scale)
	test := env.TestRecordsN(0)
	if len(test) == 0 {
		return nil, fmt.Errorf("experiments: no test records for load bench")
	}
	combos := make([]loadCombo, cfg.Combos)
	for i := range combos {
		known := CoarseOf(test[i%len(test)])
		c, err := buildLoadCombo(known, env.Scale.Seed+50_000+int64(i))
		if err != nil {
			return nil, err
		}
		combos[i] = c
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Conns,
		MaxIdleConnsPerHost: cfg.Conns,
	}}

	rep := &LoadReport{
		Conns: cfg.Conns, NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		BatchWindowMs: float64(cfg.BatchWindow.Microseconds()) / 1000,
		MaxBatch:      cfg.MaxBatch, Workers: cfg.Workers, QueueDepth: cfg.QueueDepth,
		PointDurationMs: float64(cfg.Duration.Microseconds()) / 1000,

		StreamedMatchesUnary: true,
	}
	if rep.GoMaxProcs == 1 {
		rep.Warning = fmt.Sprintf("GOMAXPROCS=1 (NumCPU=%d): shards, HTTP clients, and the arrival scheduler share one CPU; the replica comparison reflects serialization", rep.NumCPU)
	}

	var expected []string // line per combo, recorded on the first fleet
	var baseRate float64
	for fi, n := range cfg.Replicas {
		srv, base, shutdown, err := loadServer(env, cfg, n)
		if err != nil {
			return nil, err
		}
		env.Logf("experiments: load bench — fleet of %d shard(s), window %v, queue %d",
			n, cfg.BatchWindow, cfg.QueueDepth)

		lines, epoch, verErrs, match := verifyStreamed(client, base, combos)
		rep.Errors += verErrs
		if !match {
			rep.StreamedMatchesUnary = false
		}
		if expected == nil {
			expected = lines
		} else {
			// Fleet size must not change output: same (prompt, seed), same line.
			for i := range lines {
				if lines[i] != expected[i] {
					rep.MisSeeded++
				}
			}
		}

		if fi == 0 {
			baseRate = calibrateRate(client, base, combos)
			rep.BaseRatePerSec = baseRate
			env.Logf("experiments: load bench — calibrated base rate %.0f req/s", baseRate)
		}

		curve := LoadCurve{Replicas: n}
		for pi, f := range cfg.RateFactors {
			pt, integ := runLoadPoint(client, base, combos, expected, epoch, baseRate*f, cfg,
				env.Scale.Seed+int64(1000*fi+pi))
			rep.MisSeeded += integ.misSeeded
			rep.StaleEpochs += integ.staleEpochs
			if integ.streamMismatches > 0 {
				rep.StreamedMatchesUnary = false
			}
			rep.Errors += pt.Errors
			env.Logf("experiments: load bench — %d shard(s) @ %.0f req/s: %d ok, %d/429, %d/503, p99 %.1f ms",
				n, pt.OfferedPerSec, pt.OK, pt.Rejected429, pt.Unavailable503, pt.P99Ms)
			curve.Points = append(curve.Points, pt)
		}
		rep.Curves = append(rep.Curves, curve)

		_ = srv
		if err := shutdown(); err != nil {
			return nil, fmt.Errorf("experiments: load bench server (%d shards): %w", n, err)
		}
	}
	return rep, nil
}

// loadServer stands up one lejitd fleet for the sweep. The admission cap is
// deliberately small (cfg.QueueDepth) so overload points actually shed.
func loadServer(env *Env, cfg LoadBenchConfig, replicas int) (*server.Server, string, func() error, error) {
	eng, err := env.EngineFor(env.ImputeRules, core.LeJIT)
	if err != nil {
		return nil, "", nil, err
	}
	srv, err := server.New(server.Config{
		Engine: eng, Rules: env.ImputeRules, Schema: env.Schema,
		BatchWindow: cfg.BatchWindow, MaxBatch: cfg.MaxBatch, Workers: cfg.Workers,
		QueueDepth: cfg.QueueDepth, Replicas: replicas,
		Seed: env.Scale.Seed,
	})
	if err != nil {
		return nil, "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, l) }()
	shutdown := func() error {
		cancel()
		return <-serveErr
	}
	return srv, "http://" + l.Addr().String(), shutdown, nil
}

// verifyStreamed proves streamed == unary on one fleet before load: per combo
// sequentially (solo decode path), as one concurrent wave per mode (lock-step
// path, nn-backed lanes coalesce). Returns the expected line per combo and
// the pack epoch served.
func verifyStreamed(client *http.Client, base string, combos []loadCombo) (lines []string, epoch string, errs int, match bool) {
	match = true
	lines = make([]string, len(combos))
	for i, c := range combos {
		u := doUnary(client, base, c.unary)
		if u.err != nil || u.code != http.StatusOK {
			errs++
			match = false
			continue
		}
		lines[i] = u.line
		if epoch == "" {
			epoch = u.epoch
		}
		s := doStream(client, base, c.streamed, nil)
		if s.err != nil || s.code != http.StatusOK {
			errs++
			match = false
			continue
		}
		if s.line != u.line || s.concat != u.line {
			match = false
		}
	}

	// Concurrent waves: unary then streamed, each coalescing into lock-step
	// batches; every response must still match the sequentially recorded line.
	uOuts := make([]unaryResult, len(combos))
	sOuts := make([]streamResult, len(combos))
	var wg sync.WaitGroup
	for i, c := range combos {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			uOuts[i] = doUnary(client, base, body)
		}(i, c.unary)
	}
	wg.Wait()
	for i, c := range combos {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			sOuts[i] = doStream(client, base, body, nil)
		}(i, c.streamed)
	}
	wg.Wait()
	for i := range combos {
		u, s := uOuts[i], sOuts[i]
		if u.err != nil || u.code != http.StatusOK || s.err != nil || s.code != http.StatusOK {
			errs++
			match = false
			continue
		}
		if u.line != lines[i] || s.line != lines[i] || s.concat != lines[i] {
			match = false
		}
	}
	return lines, epoch, errs, match
}

// calibrateRate measures the 1-shard fleet's closed-loop throughput; the rate
// sweep offers multiples of it so the same absolute rates hit every fleet.
func calibrateRate(client *http.Client, base string, combos []loadCombo) float64 {
	const n, concurrency = 48, 16
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				doUnary(client, base, combos[i%len(combos)].unary)
			}
		}()
	}
	wg.Wait()
	rate := float64(n) / time.Since(start).Seconds()
	if rate < 8 {
		rate = 8
	}
	return rate
}

// loadIntegrity carries one point's correctness violations (kept out of
// LoadPoint so the JSON stays a pure performance record).
type loadIntegrity struct {
	misSeeded        int
	staleEpochs      int
	streamMismatches int
}

// loadOutcome is one request's result during a rate point.
type loadOutcome struct {
	code           int // logical status (SSE terminal errors unwrap to theirs)
	latencyMs      float64
	ttftMs         float64
	streamed       bool
	transportErr   bool
	misSeeded      bool
	staleEpoch     bool
	streamMismatch bool
}

// runLoadPoint offers `rate` req/s of Poisson arrivals for cfg.Duration,
// alternating unary and streamed requests over the combo pool. Latency is
// measured from each request's scheduled arrival: if the connection cap or
// the server queue delays it, that delay is part of the number.
func runLoadPoint(client *http.Client, base string, combos []loadCombo, expected []string, epoch string, rate float64, cfg LoadBenchConfig, seed int64) (LoadPoint, loadIntegrity) {
	n := int(rate * cfg.Duration.Seconds())
	if n < 8 {
		n = 8
	}
	if n > maxPointRequests {
		n = maxPointRequests
	}
	rng := rand.New(rand.NewSource(seed))
	offsets := make([]time.Duration, n)
	acc := 0.0
	for i := range offsets {
		acc += rng.ExpFloat64() / rate
		offsets[i] = time.Duration(acc * float64(time.Second))
	}

	outs := make([]loadOutcome, n)
	sem := make(chan struct{}, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			combo := combos[i%len(combos)]
			want := expected[i%len(combos)]
			sched := start.Add(offsets[i])
			time.Sleep(time.Until(sched))
			sem <- struct{}{}
			defer func() { <-sem }()
			if i%2 == 1 {
				outs[i] = fireStream(client, base, combo.streamed, want, epoch, sched)
			} else {
				outs[i] = fireUnary(client, base, combo.unary, want, epoch, sched)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	pt := LoadPoint{OfferedPerSec: rate, Requests: n}
	var integ loadIntegrity
	var lat, ttft []float64
	for _, o := range outs {
		switch {
		case o.transportErr:
			pt.Errors++
		case o.code == http.StatusOK:
			pt.OK++
			lat = append(lat, o.latencyMs)
			if o.streamed {
				pt.Streamed++
				if o.ttftMs > 0 {
					ttft = append(ttft, o.ttftMs)
				}
			}
			if o.misSeeded {
				integ.misSeeded++
			}
			if o.staleEpoch {
				integ.staleEpochs++
			}
			if o.streamMismatch {
				integ.streamMismatches++
			}
		case o.code == http.StatusTooManyRequests:
			pt.Rejected429++
		case o.code == http.StatusServiceUnavailable:
			pt.Unavailable503++
		case o.code == http.StatusGatewayTimeout:
			pt.Timeout504++
		default:
			pt.Errors++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(ttft)
	pt.P50Ms = percentile(lat, 0.50)
	pt.P95Ms = percentile(lat, 0.95)
	pt.P99Ms = percentile(lat, 0.99)
	pt.TTFTP50Ms = percentile(ttft, 0.50)
	pt.TTFTP95Ms = percentile(ttft, 0.95)
	if elapsed > 0 {
		pt.AchievedPerSec = float64(pt.OK) / elapsed.Seconds()
	}
	return pt, integ
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

func fireUnary(client *http.Client, base string, body []byte, want, epoch string, sched time.Time) loadOutcome {
	res := doUnary(client, base, body)
	o := loadOutcome{code: res.code, latencyMs: msSince(sched), transportErr: res.err != nil}
	if res.code == http.StatusOK {
		o.misSeeded = res.line != want
		o.staleEpoch = res.epoch != epoch
	}
	return o
}

func fireStream(client *http.Client, base string, body []byte, want, epoch string, sched time.Time) loadOutcome {
	o := loadOutcome{streamed: true}
	res := doStream(client, base, body, func() { o.ttftMs = msSince(sched) })
	o.code, o.latencyMs, o.transportErr = res.code, msSince(sched), res.err != nil
	if res.code == http.StatusOK {
		o.misSeeded = res.line != want
		o.staleEpoch = res.epoch != epoch
		o.streamMismatch = res.concat != res.line
	}
	return o
}

// unaryResult is one plain JSON decode response, reduced to what the bench
// checks.
type unaryResult struct {
	code  int
	line  string
	epoch string
	err   error
}

func doUnary(client *http.Client, base string, body []byte) unaryResult {
	resp, err := client.Post(base+"/v1/impute", "application/json", bytes.NewReader(body))
	if err != nil {
		return unaryResult{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return unaryResult{code: resp.StatusCode}
	}
	var dr server.DecodeResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return unaryResult{code: resp.StatusCode, err: err}
	}
	return unaryResult{code: resp.StatusCode, line: dr.Line, epoch: dr.Epoch}
}

// streamResult is one parsed SSE response. code carries the logical status:
// the terminal error event's code when the stream ends in one, the transport
// status when admission rejected the request before streaming began.
type streamResult struct {
	code   int
	line   string // from the done event
	concat string // slot chunks concatenated in arrival order
	epoch  string
	err    error
}

// doStream POSTs one streaming request and parses the event stream
// incrementally; onFirstChunk fires when the first slot event's header line
// arrives (the TTFT instant).
func doStream(client *http.Client, base string, body []byte, onFirstChunk func()) streamResult {
	resp, err := client.Post(base+"/v1/impute", "application/json", bytes.NewReader(body))
	if err != nil {
		return streamResult{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return streamResult{code: resp.StatusCode}
	}
	res := streamResult{code: http.StatusOK}
	var concat strings.Builder
	var name, data string
	first := true
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 16<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			if name == "slot" && first {
				first = false
				if onFirstChunk != nil {
					onFirstChunk()
				}
			}
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch name {
			case "slot":
				var c server.StreamChunk
				if err := json.Unmarshal([]byte(data), &c); err != nil {
					res.err = err
					return res
				}
				concat.WriteString(c.Text)
			case "done":
				var dr server.DecodeResponse
				if err := json.Unmarshal([]byte(data), &dr); err != nil {
					res.err = err
					return res
				}
				res.line, res.epoch = dr.Line, dr.Epoch
			case "error":
				var se server.StreamError
				if err := json.Unmarshal([]byte(data), &se); err != nil {
					res.err = err
					return res
				}
				res.code = se.Code
			}
			name, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		res.err = err
	}
	res.concat = concat.String()
	return res
}

// WriteJSON writes the report to path, pretty-printed.
func (r *LoadReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadTable renders the sweep for the text output, one row per rate point.
func LoadTable(r *LoadReport) Table {
	t := Table{
		Title: fmt.Sprintf("Load: open-loop Poisson sweep vs replica count (conns<=%d, streamed==unary: %v, mis-seeded: %d, stale epochs: %d)",
			r.Conns, r.StreamedMatchesUnary, r.MisSeeded, r.StaleEpochs),
		Header: []string{"replicas", "offered/s", "achieved/s", "ok", "429", "503", "504", "err", "p50 ms", "p95 ms", "p99 ms", "ttft p50 ms"},
	}
	for _, c := range r.Curves {
		for _, p := range c.Points {
			t.Rows = append(t.Rows, []string{
				itoa(c.Replicas),
				f1(p.OfferedPerSec), f1(p.AchievedPerSec),
				itoa(p.OK), itoa(p.Rejected429), itoa(p.Unavailable503), itoa(p.Timeout504), itoa(p.Errors),
				f1(p.P50Ms), f1(p.P95Ms), f1(p.P99Ms), f1(p.TTFTP50Ms),
			})
		}
	}
	return t
}
