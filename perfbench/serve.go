package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	metricspkg "repro/internal/metrics"
	"repro/internal/server"
)

// The serving workload's traffic. The rate sits well under the lowest
// closed-loop capacity measured for one lejitd on a 2-vCPU host with
// hypervisor steal (about 90 requests/s), so the queue does not grow.
const (
	serveRate   = 40.0 // Poisson arrivals per second
	hotSetSize  = 16   // test windows that half of the requests repeat
	seedsPerHot = 4    // seeds per hot window, so (prompt, seed) pairs recur
	// sloMs is the latency limit slo_met_share counts against.
	sloMs = 50.0
)

// serveReq is one scheduled request.
type serveReq struct {
	at     time.Duration // arrival time after the load starts
	win    int           // test window whose coarse counters are the prompt
	seed   int64
	stream bool
}

// schedule draws the open-loop arrival sequence for `seconds` from the seed:
// half the prompts come from a hot set of test windows, half uniformly from
// all of them, and half the requests are streamed.
func schedule(seed int64, seconds float64, nTest int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	hot := rng.Perm(nTest)[:hotSetSize]
	var out []serveReq
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / serveRate
		if t >= seconds {
			return out
		}
		r := serveReq{at: time.Duration(t * float64(time.Second)), stream: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			h := rng.Intn(hotSetSize)
			r.win = hot[h]
			r.seed = core.MixSeed(seed, 1_000_000+h*seedsPerHot+rng.Intn(seedsPerHot))
		} else {
			r.win = rng.Intn(nTest)
			r.seed = core.MixSeed(seed, i)
		}
		out = append(out, r)
	}
}

// daemon is a running lejitd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	pprof  string
	exited chan struct{}
	err    error
	log    bytes.Buffer
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs lejitd with its shipped defaults and waits until
// /healthz answers 200. withPprof adds the pprof listener the traced run
// profiles through.
func startDaemon(bin, model, rulesFile string, withPprof bool) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, exited: make(chan struct{})}
	args := []string{"-model", model, "-rules", rulesFile, "-addr", addr}
	if withPprof {
		if d.pprof, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-pprof-addr", d.pprof)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// Take lejitd down with the benchmark if the benchmark dies first.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lejitd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("lejitd exited during start-up (%v): %s", d.err, d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("lejitd not healthy after 30s: %s", d.log.String())
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills lejitd if it
// does not exit in time. It returns once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// serveOutcome is what the client saw for one request.
type serveOutcome struct {
	latency float64 // ms from scheduled arrival to the last byte
	sent    float64 // ms from the actual send to the last byte
	ttft    float64 // ms from scheduled arrival to the first slot event (streamed only)
	late    float64 // ms the generator sent after the scheduled arrival
	ok      bool
	refused bool
	// failure says why a request that is neither ok nor refused failed.
	// A transient failure (a timeout, or the server shedding load) counts as
	// failed; any other, such as a broken stream or a server error, also
	// fails the run.
	failure   string
	transient bool
	line      string
	stats     server.StatsJSON
	// noncompliant is the server's own verdict that the record breaks a rule.
	noncompliant string
}

// serveLoad is one open-loop run against a daemon.
type serveLoad struct {
	wall     time.Duration
	cpu      time.Duration // lejitd CPU over the load
	outcomes []serveOutcome
	metrics0 promSample
	metrics1 promSample
	gauges   map[string][]float64
	heap0    float64
	heap1    float64
	profile  string
}

// runLoad sends reqs to d on schedule from at most nproc connections. With
// observe set it also samples lejitd's gauges and records a CPU profile and
// heap counters through its pprof listener.
func runLoad(ctx context.Context, d *daemon, reqs []serveReq, test []dataset.Window, observe bool, profilePath string) (*serveLoad, error) {
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	base := "http://" + d.addr
	l := &serveLoad{outcomes: make([]serveOutcome, len(reqs)), gauges: map[string][]float64{}}
	var err error
	if l.metrics0, err = scrape(client, base+"/metrics"); err != nil {
		return nil, err
	}
	if observe {
		if l.heap0, err = heapTotalAlloc(client, d.pprof); err != nil {
			return nil, err
		}
	}
	cpu0, err := pidCPU(d.pid())
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	var profErr error
	if observe {
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Its own connection, so sampling never holds up a request.
			l.sampleGauges(&http.Client{Timeout: 5 * time.Second}, base+"/metrics", stopSampling)
		}()
		go func() {
			defer wg.Done()
			secs := int(reqs[len(reqs)-1].at.Seconds())
			profErr = fetchProfile(d.pprof, max(secs, 1), profilePath)
		}()
		l.profile = profilePath
	}

	jobs := make(chan int)
	var workers sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := range jobs {
				due := start.Add(reqs[i].at)
				l.outcomes[i] = send(ctx, client, base, reqs[i], test[reqs[i].win].Rec, due)
			}
		}()
	}
	for i, r := range reqs {
		time.Sleep(time.Until(start.Add(r.at)))
		jobs <- i
	}
	close(jobs)
	workers.Wait()
	l.wall = time.Since(start)
	cpu1, err := pidCPU(d.pid())
	close(stopSampling)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	l.cpu = cpu1 - cpu0
	if profErr != nil {
		return nil, profErr
	}
	if observe {
		if l.heap1, err = heapTotalAlloc(client, d.pprof); err != nil {
			return nil, err
		}
	}
	if l.metrics1, err = scrape(client, base+"/metrics"); err != nil {
		return nil, err
	}
	return l, nil
}

// send issues one request and reads the whole answer.
func send(ctx context.Context, client *http.Client, base string, r serveReq, truth map[string][]int64, due time.Time) serveOutcome {
	sentAt := time.Now()
	oc := serveOutcome{late: ms(sentAt.Sub(due))}
	seed := r.seed
	body, _ := json.Marshal(server.DecodeRequest{Known: experiments.CoarseOf(truth), Seed: &seed, Stream: r.stream})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/impute", bytes.NewReader(body))
	if err != nil {
		oc.failure = err.Error()
		return oc
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		oc.failure, oc.transient = err.Error(), isTimeout(err)
		return oc
	}
	defer resp.Body.Close()
	var dr server.DecodeResponse
	var errStatus string
	if r.stream {
		dr, errStatus, err = readStream(resp, due, &oc)
	} else {
		errStatus, err = readUnary(resp, &dr)
	}
	end := time.Now()
	oc.latency = ms(end.Sub(due))
	oc.sent = ms(end.Sub(sentAt))
	switch {
	case err != nil:
		oc.failure, oc.transient = err.Error(), isTimeout(err)
	case errStatus == "infeasible":
		oc.refused = true
		oc.line = "refused"
	case errStatus != "":
		oc.failure = "error status " + errStatus
		oc.transient = errStatus == "timeout" || errStatus == "overloaded"
	default:
		oc.ok = true
		oc.line = dr.Line
		oc.stats = dr.Stats
		if !dr.Compliant {
			oc.noncompliant = fmt.Sprintf("server marked the record non-compliant: %v", dr.Violations)
		}
	}
	return oc
}

// isTimeout reports whether err is the client giving up on a slow answer:
// a matter of load, not of the answer's correctness.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ne) && ne.Timeout()
}

func readUnary(resp *http.Response, dr *server.DecodeResponse) (string, error) {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		if err := json.Unmarshal(b, &er); err != nil || er.Status == "" {
			return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
		}
		return er.Status, nil
	}
	return "", json.Unmarshal(b, dr)
}

// readStream reads an SSE answer: slot events, then done or error. The slot
// texts must concatenate to the done event's line.
func readStream(resp *http.Response, due time.Time, oc *serveOutcome) (server.DecodeResponse, string, error) {
	var dr server.DecodeResponse
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		var er server.ErrorResponse
		if err := json.Unmarshal(b, &er); err != nil || er.Status == "" {
			return dr, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
		}
		return dr, er.Status, nil
	}
	br := bufio.NewReader(resp.Body)
	var event string
	var concat strings.Builder
	nextSlot := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return dr, "", fmt.Errorf("stream ended before a terminal event: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := []byte(line[len("data: "):])
			switch event {
			case "slot":
				var c server.StreamChunk
				if err := json.Unmarshal(data, &c); err != nil {
					return dr, "", err
				}
				if oc.ttft == 0 {
					oc.ttft = ms(time.Since(due))
				}
				if nextSlot >= 0 && c.Slot != nextSlot {
					return dr, "", fmt.Errorf("slot %d streamed after slot %d", c.Slot, nextSlot-1)
				}
				nextSlot = c.Slot + 1
				concat.WriteString(c.Text)
			case "done":
				if err := json.Unmarshal(data, &dr); err != nil {
					return dr, "", err
				}
				if concat.String() != dr.Line {
					return dr, "", fmt.Errorf("streamed slots %q do not concatenate to the done line %q", concat.String(), dr.Line)
				}
				return dr, "", nil
			case "error":
				var se server.StreamError
				if err := json.Unmarshal(data, &se); err != nil {
					return dr, "", err
				}
				if se.Status == "" {
					se.Status = strconv.Itoa(se.Code)
				}
				return dr, se.Status, nil
			default:
				return dr, "", fmt.Errorf("unexpected SSE event %q", event)
			}
		}
	}
}

// promSample is a /metrics scrape summed over label sets.
type promSample map[string]float64

func scrape(client *http.Client, url string) (promSample, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			// Histogram buckets carry an le label; keep only _sum/_count.
			if strings.HasSuffix(name[:i], "_bucket") {
				continue
			}
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

func (l *serveLoad) delta(name string) float64 { return l.metrics1[name] - l.metrics0[name] }

func (l *serveLoad) sampleGauges(client *http.Client, url string, stop <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s, err := scrape(client, url)
			if err != nil {
				continue
			}
			for _, g := range []string{"lejitd_queue_depth", "lejitd_inflight"} {
				l.gauges[g] = append(l.gauges[g], s[g])
			}
		}
	}
}

func fetchProfile(addr string, seconds int, path string) error {
	client := &http.Client{Timeout: time.Duration(seconds+30) * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, seconds))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pprof profile: HTTP %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapTotalAlloc reads runtime.MemStats.TotalAlloc from lejitd's heap
// profile text.
func heapTotalAlloc(client *http.Client, addr string) (float64, error) {
	resp, err := client.Get("http://" + addr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, errors.New("no TotalAlloc in lejitd heap profile")
}

// profileCum reads the cumulative CPU seconds of each function in a pprof
// CPU profile, and the profile's total, through `go tool pprof -top`.
func profileCum(path string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=100000", "-unit=s", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	cum := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(string(out), "\n") {
		if i := strings.Index(line, "% of "); i >= 0 && strings.HasSuffix(line, " total") {
			total = parseSeconds(strings.TrimSuffix(line[i+len("% of "):], " total"))
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		cum[strings.Join(f[5:], " ")] += parseSeconds(f[3])
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof: no total in output")
	}
	return cum, total, nil
}

func parseSeconds(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	return v
}

// runServe runs serve-impute.
func runServe(env runEnv, rep *report) error {
	var (
		c      *corpus
		d      *daemon
		setups []setupTimes
	)
	rulesFile := filepath.Join(env.cacheDir, "serve_rules.txt")
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for k := 0; k < setupRuns; k++ {
		if d != nil {
			d.stop()
			d = nil
		}
		cpu0 := processCPU()
		cc, st, err := loadCorpus(experiments.DefaultScale(), false, "")
		if err != nil {
			return err
		}
		t := time.Now()
		if err := os.WriteFile(rulesFile, []byte(cc.rules.String()), 0o644); err != nil {
			return err
		}
		if d, err = startDaemon(env.lejitd, env.modelFile, rulesFile, false); err != nil {
			return err
		}
		st.lejitd = time.Since(t)
		lejitdCPU, err := pidCPU(d.pid())
		if err != nil {
			return err
		}
		st.cpu = processCPU() - cpu0 + lejitdCPU
		c = cc
		setups = append(setups, st)
	}
	reportSetup(rep, setups)
	rep.info("rules", fmt.Sprint(c.rules.Len()))
	truthViolates := make([]bool, len(c.test))
	for i, w := range c.test {
		v, err := c.rules.Violations(w.Rec)
		if err != nil {
			return err
		}
		truthViolates[i] = len(v) > 0
	}

	seconds := env.seconds
	if env.traced {
		seconds /= 2
	}
	reqs := schedule(env.seed, seconds, len(c.test))
	if len(reqs) == 0 {
		return fmt.Errorf("no requests scheduled in %.1fs", seconds)
	}
	rep.info("load", fmt.Sprintf("open loop, Poisson %.0f/s, %d requests, %d connections", serveRate, len(reqs), runtime.NumCPU()))
	l, err := runLoad(env.ctx, d, reqs, c.test, false, "")
	if err != nil {
		return err
	}
	lines := map[[2]int64]string{}
	mae, violations := checkServe(rep, c, reqs, l, truthViolates, lines)
	rep.set("peak_rss_mb", peakRSSMB(d.pid()), "MiB")
	if !env.traced {
		reportServeE2E(rep, reqs, l, mae, violations)
		return nil
	}

	// Traced run: a fresh lejitd with its pprof listener, the same schedule,
	// and gauges sampled from /metrics. The answers must match the untraced
	// run's.
	d.stop()
	d = nil
	if d, err = startDaemon(env.lejitd, env.modelFile, rulesFile, true); err != nil {
		return err
	}
	profilePath := filepath.Join(env.cacheDir, "serve_cpu.pprof")
	lt, err := runLoad(env.ctx, d, reqs, c.test, true, profilePath)
	if err != nil {
		return err
	}
	checkServe(rep, c, reqs, lt, truthViolates, lines)
	return reportServeLayers(rep, l, lt)
}

// checkServe verifies every answer: records must satisfy the rules and keep
// their prompt, refusals must be of prompts whose ground truth breaks a rule,
// one (prompt, seed) must always get the same line, and only transient
// failures may occur. It returns the imputation MAE over the successful
// answers and the number of answers that broke a rule or their prompt.
func checkServe(rep *report, c *corpus, reqs []serveReq, l *serveLoad, truthViolates []bool, lines map[[2]int64]string) (float64, int) {
	var pred, truth [][]int64
	var failures []string
	violations, transient := 0, ""
	for i := range l.outcomes {
		oc, r := &l.outcomes[i], reqs[i]
		rep.attempted++
		if oc.refused && !truthViolates[r.win] {
			oc.refused = false
			oc.failure = "refused as infeasible, but its ground truth satisfies every rule"
		}
		if !oc.ok && !oc.refused {
			rep.failed++
			if !oc.transient {
				failures = append(failures, fmt.Sprintf("request %d: %s", i, oc.failure))
			} else if transient == "" {
				transient = fmt.Sprintf("request %d: %s", i, oc.failure)
			}
			continue
		}
		key := [2]int64{int64(r.win), r.seed}
		if prev, seen := lines[key]; seen && prev != oc.line {
			failures = append(failures, fmt.Sprintf("window %d seed %d answered %q, earlier %q", r.win, r.seed, oc.line, prev))
		}
		lines[key] = oc.line
		if oc.refused {
			continue
		}
		rec, err := dataset.ParseLine(oc.line)
		if err == nil {
			err = checkRecord(c.rules, experiments.CoarseOf(c.test[r.win].Rec), rec)
		}
		if err == nil && oc.noncompliant != "" {
			err = errors.New(oc.noncompliant)
		}
		if err != nil {
			violations++
			failures = append(failures, fmt.Sprintf("request %d: %q %v", i, oc.line, err))
			continue
		}
		pred = append(pred, rec[dataset.FineField])
		truth = append(truth, c.test[r.win].Rec[dataset.FineField])
	}
	failAll(rep, "", failures)
	if transient != "" {
		rep.info("failure", transient)
	}
	mae, err := metricspkg.MAE(pred, truth)
	if err != nil {
		rep.fail("MAE: %v", err)
	}
	return mae, violations
}

func reportServeE2E(rep *report, reqs []serveReq, l *serveLoad, mae float64, violations int) {
	var lat, ttft, late []float64
	ok, refused, failed, slo := 0, 0, 0, 0
	for _, oc := range l.outcomes {
		late = append(late, oc.late)
		switch {
		case oc.ok:
			ok++
			lat = append(lat, oc.latency)
			if oc.ttft > 0 {
				ttft = append(ttft, oc.ttft)
			}
			if oc.latency <= sloMs {
				slo++
			}
		case oc.refused:
			refused++
		default:
			failed++
		}
	}
	n := float64(len(reqs))
	rep.set("records_per_s", float64(ok)/l.wall.Seconds(), "1/s")
	rep.set("cpu_ms_per_record", ms(l.cpu)/float64(ok), "ms")
	rep.set("latency_p50_ms", median(lat), "ms")
	rep.set("latency_p99_ms", percentile(lat, 99), "ms")
	rep.set("ttft_p50_ms", median(ttft), "ms")
	rep.set("ttft_p99_ms", percentile(ttft, 99), "ms")
	rep.set("slo_met_share", float64(slo)/n, "share")
	rep.info("latency_samples", fmt.Sprintf("%d requests, %d streamed; slo %.0f ms", len(lat), len(ttft), sloMs))
	rep.set("failed_share", float64(failed)/n, "share")
	rep.set("violation_share", float64(violations)/n, "share")
	rep.set("infeasible_share", float64(refused)/n, "share")
	rep.set("impute_mae", mae, "count")
	rep.set("loadgen.late_p99_ms", percentile(late, 99), "ms")
}

// reportServeLayers reports the traced serving run: per-layer CPU from the
// profile, counters from /metrics deltas, gauges from sampling, and the
// decode counters from the answers' stats.
func reportServeLayers(rep *report, untraced, l *serveLoad) error {
	cum, profiled, err := profileCum(l.profile)
	if err != nil {
		return err
	}
	sum := func(prefix string, names ...string) float64 {
		s := 0.0
		for _, n := range names {
			s += cum[prefix+n]
		}
		return s
	}
	forward := sum("repro/internal/nn.", "(*BatchSession).AppendBatch", "(*Session).Append")
	mask := sum("", "repro/internal/transition.(*System).Admissible", "repro/internal/core.(*Engine).sampleMasked")
	decode := sum("repro/internal/core.(*Engine).", "decodeLockStep", "runRequest")
	var stats server.StatsJSON
	var late, clientMs []float64
	ok := 0
	for _, oc := range l.outcomes {
		late = append(late, oc.late)
		if !oc.ok {
			continue
		}
		ok++
		clientMs = append(clientMs, oc.sent)
		stats.Tokens += oc.stats.Tokens
		stats.MaskedSteps += oc.stats.MaskedSteps
		stats.ForcedSteps += oc.stats.ForcedSteps
		stats.SolverChecks += oc.stats.SolverChecks
	}
	tokens := float64(stats.Tokens)
	rep.set("core.decode_s", decode, "s")
	rep.set("nn.forward_s", forward, "s")
	rep.set("transition.mask_s", mask, "s")
	rep.set("core.self_s", decode-forward-mask, "s")
	rep.set("nn.forward_us_per_token", forward*1e6/tokens, "us")
	rep.set("transition.mask_us_per_token", mask*1e6/tokens, "us")
	rep.set("core.self_us_per_token", (decode-forward-mask)*1e6/tokens, "us")
	reportCounts(rep, core.Stats{Tokens: stats.Tokens, MaskedSteps: stats.MaskedSteps,
		ForcedSteps: stats.ForcedSteps, SolverChecks: stats.SolverChecks})
	rep.set("go.alloc_bytes_per_token", (l.heap1-l.heap0)/tokens, "B")
	rep.set("go.gc_cpu_share", share(cum["runtime.gcBgMarkWorker"]+cum["runtime.gcAssistAlloc"], profiled), "share")

	rep.set("server.batch_size_mean", share(l.delta("lejitd_batch_size_sum"), l.delta("lejitd_batch_size_count")), "count")
	rep.set("server.queue_depth_mean", mean(l.gauges["lejitd_queue_depth"]), "count")
	rep.set("server.inflight_mean", mean(l.gauges["lejitd_inflight"]), "count")
	serverMs := 1000 * share(l.delta("lejitd_request_duration_seconds_sum"), l.delta("lejitd_request_duration_seconds_count"))
	rep.set("server.duration_mean_ms", serverMs, "ms")
	rep.set("server.client_overhead_ms", mean(clientMs)-serverMs, "ms")
	rep.set("server.rejected", l.delta("lejitd_rejected_total"), "count")
	rep.set("server.timeouts", l.delta("lejitd_timeouts_total"), "count")
	rep.set("router.shard_drains", l.delta("lejitd_router_drains_total")+l.delta("lejitd_shard_drains_total"), "count")
	hits, misses := l.delta("lejitd_prefix_hits_total"), l.delta("lejitd_prefix_misses_total")
	rep.set("prefixcache.hit_share", share(hits, hits+misses), "share")
	rep.set("prefixcache.evictions", l.delta("lejitd_prefix_evictions_total"), "count")
	rep.set("prefixcache.bytes", l.metrics1["lejitd_prefix_cache_bytes"], "B")
	rep.set("loadgen.late_p99_ms", percentile(late, 99), "ms")
	uok := 0
	for _, oc := range untraced.outcomes {
		if oc.ok {
			uok++
		}
	}
	rep.set("trace.overhead_share", share(l.cpu.Seconds(), float64(ok))/share(untraced.cpu.Seconds(), float64(uok))-1, "share")
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return share(s, float64(len(xs)))
}
