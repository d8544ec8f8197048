// Command perfbench is the repository benchmark. It runs one seeded
// workload against the noise-analysis stack in-process and prints, as the
// last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 a separate traced pass records spans around calls
// into each layer and prints the per-layer metrics. A failed correctness
// check prints "correct": false and exits 1. README.md lists the
// workloads and defines every metric.
//
// Usage:
//
//	bash perfbench/run.sh --workload signoff-eco --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"stanoise/internal/sim"
)

// benchWorkers is the worker (or client) count of every workload: the
// core count of the two-core machines the benchmark is sized for.
const benchWorkers = 2

// setupRuns is how many times a run repeats its set-up; setup_s is their
// median.
const setupRuns = 3

type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // scratch space inside the checkout, removed on exit
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: metricSet{}} }

// check records a correctness check; a failed one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

var workloads = map[string]func(context.Context, config) (*result, error){
	"signoff-eco": runSignoff,
	"char-farm":   runFarm,
	"serve-mixed": runServe,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: signoff-eco, char-farm or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "length of the timed region")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		return 2
	}
	work := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: dir}
	res, err := w(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measureSetup runs set-up setupRuns times and returns the last set-up's
// state and the median duration. Each set-up starts from a collected heap
// so the earlier ones' garbage does not tax the later ones.
func measureSetup[T any](setup func() (T, error)) (T, float64, error) {
	var (
		state T
		secs  []float64
	)
	for range setupRuns {
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		state = s
	}
	return state, median(secs), nil
}

// heapWatch samples the live heap while a timed region runs and keeps its
// peak.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

func watchHeap() *heapWatch {
	runtime.GC()
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB ends sampling and returns the peak in MiB.
func (h *heapWatch) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeSample is a reading of the runtime's GC CPU and allocation totals.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// runtimeMetrics adds the runtime.* metrics for the region since start,
// which completed the given number of work units.
func runtimeMetrics(m metricSet, start runtimeSample, units int) {
	end := readRuntime()
	m.set("runtime.gc_cpu_frac", ratio(end.gcCPU-start.gcCPU, end.totalCPU-start.totalCPU), "ratio")
	m.set("runtime.alloc_mb_per_unit", ratio((end.allocBytes-start.allocBytes)/(1<<20), float64(units)), "MB")
}

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them on every workload; a layer the workload does not exercise
// reports 0.
var perLayer = [][2]string{
	{"core.align_ms", "ms"}, {"core.eval_ms", "ms"}, {"core.models_ms", "ms"},
	{"core.engine_runs", "count"}, {"core.ms_per_engine_run", "ms"},
	{"core.allocs_per_engine_run", "count"}, {"core.rigpool_hit_ratio", "ratio"},
	{"core.c2_speedup_x", "x"}, {"core.peak_err_max_mv", "mV"},
	{"sna.cluster_p50_ms", "ms"}, {"sna.cluster_max_ms", "ms"}, {"sna.worker_busy_frac", "ratio"},
	{"sim.setup_newton_iters", "count"},
	{"sim.dc_solves", "count"}, {"sim.transients", "count"}, {"sim.transient_steps", "count"},
	{"sim.newton_iters", "count"}, {"sim.newton_per_point", "ratio"}, {"sim.us_per_newton", "us"},
	{"charlib.loadcurve_ms", "ms"}, {"charlib.proptable_ms", "ms"}, {"nrc.curve_ms", "ms"},
	{"charlib.cache_hits", "count"}, {"charlib.cache_misses", "count"}, {"charlib.disk_hits", "count"},
	{"charstore.gets", "count"}, {"charstore.get_p50_us", "us"}, {"charstore.get_hit_ratio", "ratio"},
	{"charstore.puts", "count"}, {"charstore.put_p50_us", "us"}, {"charstore.bytes_written", "bytes"},
	{"serve.headers_p50_ms", "ms"}, {"serve.overhead_ms", "ms"}, {"serve.response_kb", "KB"},
	{"serve.rejected", "count"}, {"serve.rigpool_hit_ratio", "ratio"}, {"serve.cache_hit_ratio", "ratio"},
	{"feas.combos", "count"}, {"feas.pruned_frac", "ratio"}, {"feas.scenarios", "count"},
	{"runtime.gc_cpu_frac", "ratio"}, {"runtime.alloc_mb_per_unit", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// fillPerLayer adds a zero for every per-layer metric the workload did not
// set, and rejects any metric name outside the list.
func fillPerLayer(m metricSet) error {
	known := map[string]string{}
	for _, p := range perLayer {
		known[p[0]] = p[1]
		if _, ok := m[p[0]]; !ok {
			m.set(p[0], 0, p[1])
		}
	}
	var unknown []string
	for name, v := range m {
		if unit, ok := known[name]; !ok || unit != v.Unit {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("per-layer metrics outside the list: %v", unknown)
	}
	return nil
}

// simMetrics adds the sim.* counters of a pass.
func simMetrics(m metricSet, c sim.Counters, buildMs float64) {
	m.set("sim.dc_solves", float64(c.DC), "count")
	m.set("sim.transients", float64(c.Transient), "count")
	m.set("sim.transient_steps", float64(c.TransientSteps), "count")
	m.set("sim.newton_iters", float64(c.NewtonIters), "count")
	m.set("sim.newton_per_point", ratio(float64(c.NewtonIters), float64(c.DC+c.TransientSteps)), "ratio")
	m.set("sim.us_per_newton", ratio(buildMs*1e3, float64(c.NewtonIters)), "us")
}
