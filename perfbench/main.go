// Command perfbench is the repository benchmark. It runs one named workload
// at default scale for a fixed number of seconds, checks every output, and
// prints each metric as "metric <name> <value> <unit>" followed, on the last
// line, by one JSON object carrying the metrics BENCHMARK.json lists: its
// end_to_end metrics with -trace 0 and its per_layer metrics with -trace 1.
// With -workload all it runs every workload in turn, untraced and then
// traced, so one command prints every metric; the JSON line then carries
// both metric lists, each name prefixed with its workload's. Run it through run.sh from the
// repository root, which builds it and lejitd from source:
//
//	bash perfbench/run.sh --workload impute-batch --seed 1 --seconds 20 --trace 0
//
// Layers are timed from outside the program: the offline workloads wrap the
// LM and use the engine's step hooks (trace.go); the serving workload uses
// lejitd's /metrics, its pprof endpoint, /proc and client-side spans.
// The process exits nonzero when any output fails its check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// setupRuns is how many times a run repeats its set-up; setup_s is their
// median, since one set-up is too short to time steadily.
const setupRuns = 11

var workloads = []string{"impute-batch", "synthesize-batch", "serve-impute"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed: request order, sampling seeds and arrival times")
	seconds := flag.Float64("seconds", 20, "how long the workload is measured")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	lejitd := flag.String("lejitd", "", "lejitd binary for the serving workload")
	cacheDir := flag.String("cache", "perfbench/.cache", "directory for the trained model and scratch files")
	flag.Parse()

	sp, err := loadSpec(*spec)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	type job struct {
		workload string
		traced   bool
	}
	jobs := []job{{*workload, *trace == 1}}
	if *workload == "all" {
		jobs = nil
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else if !slices.Contains(workloads, *workload) {
		return fmt.Errorf("unknown workload %q (want one of %v or all)", *workload, workloads)
	}
	if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
		return err
	}
	modelFile, modelHash, err := modelPath(experiments.DefaultScale(), *cacheDir)
	if err != nil {
		return err
	}

	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, j := range jobs {
		w := j.workload
		// A hung decode or server fails its records at this deadline instead
		// of running past the time a run is allowed.
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2**seconds+60)*time.Second)
		env := runEnv{ctx: ctx, seed: *seed, seconds: *seconds, traced: j.traced,
			modelFile: modelFile, lejitd: *lejitd, cacheDir: *cacheDir}
		rep := newReport()
		rep.info("workload", w)
		rep.info("traced", fmt.Sprint(j.traced))
		rep.info("seed", fmt.Sprint(*seed))
		rep.info("model_sha256", modelHash)
		rep.info("nproc", fmt.Sprint(runtime.NumCPU()))
		rep.info("gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0)))
		rep.info("go_version", runtime.Version())
		steal0 := readCPUStat()
		switch w {
		case "serve-impute":
			err = runServe(env, rep)
		default:
			err = runOffline(env, rep, w == "impute-batch")
		}
		cancel()
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		rep.set("host.steal_share", readCPUStat().stealShare(steal0), "share")
		rep.print(os.Stdout)

		want := sp.EndToEnd
		if env.traced {
			want = sp.PerLayer
		}
		prefix := ""
		if len(jobs) > 1 {
			prefix = w + "/"
		}
		for _, m := range want {
			v, ok := rep.values[m.Name]
			if !ok && rep.bypasses(m.Name) {
				v, ok = metricValue{Value: 0, Unit: m.Unit}, true
			}
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", w, m.Name)
			}
			if v.Unit != m.Unit {
				return fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", w, m.Name, v.Unit, m.Unit)
			}
			out.Metrics[prefix+m.Name] = v
		}
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		out.Correct = out.Correct && len(rep.failures) == 0
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.New("correctness check failed (see the check lines above)")
	}
	return nil
}

// runEnv is what one workload run is given.
type runEnv struct {
	ctx       context.Context
	seed      int64
	seconds   float64
	traced    bool
	modelFile string
	lejitd    string
	cacheDir  string
}

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload's metrics, diagnostics and check failures.
type report struct {
	order     []string
	values    map[string]metricValue
	infos     [][2]string
	failures  []string
	attempted int
	failed    int
	// bypassed are name prefixes of layers the workload never goes
	// through; their metrics report 0.
	bypassed []string
}

func newReport() *report { return &report{values: map[string]metricValue{}} }

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
}

// bypass marks the layers whose metric names start with one of prefixes as
// unused by the workload: zero by construction, so a change to such a layer
// can be shown to leave the workload alone.
func (r *report) bypass(prefixes ...string) { r.bypassed = append(r.bypassed, prefixes...) }

func (r *report) bypasses(name string) bool {
	for _, p := range r.bypassed {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func (r *report) info(k, v string) { r.infos = append(r.infos, [2]string{k, v}) }

// fail records a failed correctness check; the run then exits nonzero.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	for _, kv := range r.infos {
		fmt.Fprintf(w, "info %s %s\n", kv[0], kv[1])
	}
	for _, n := range r.order {
		v := r.values[n]
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "check attempted %d failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "check FAILED %s\n", f)
	}
	if len(r.failures) == 0 {
		fmt.Fprintln(w, "check ok")
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile of xs by linear interpolation.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
