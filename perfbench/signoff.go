package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/core"
	"stanoise/internal/sim"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
)

// signoffClusters is the design size of signoff-eco.
const signoffClusters = 32

// signoffOptions are the snacheck defaults: macromodel, pessimistic
// alignment, a fresh memory cache per analyzer, over a persistent store.
func signoffOptions(store charlib.PersistentStore) sna.Options {
	return sna.Options{Method: core.Macromodel, Align: true, Workers: benchWorkers, Store: store}
}

// signoffRun is one streamed sign-off of a design.
type signoffRun struct {
	reports  []sna.NetReport // in completion order
	errs     int
	arrivals []float64 // ms from the start of the run to each verdict
	wall     time.Duration
	cache    charlib.CacheStats
}

// streamSignoff signs off d over the store in dir, opening the store the
// way snacheck -cache-dir does.
func streamSignoff(ctx context.Context, d *sna.Design, dir string) (signoffRun, error) {
	var run signoffRun
	t0 := time.Now()
	store, err := charstore.Open(dir)
	if err != nil {
		return run, err
	}
	an := sna.NewAnalyzer(d, signoffOptions(store))
	for rep, err := range an.Stream(ctx) {
		run.arrivals = append(run.arrivals, ms(time.Since(t0)))
		if err != nil {
			run.errs++
			fmt.Fprintln(os.Stderr, "perfbench: signoff:", err)
			continue
		}
		run.reports = append(run.reports, rep)
	}
	run.wall = time.Since(t0)
	run.cache = an.CacheStats()
	return run, nil
}

// verdicts renders reports as deterministic JSON: timings cleared, sorted
// by cluster.
func verdicts(reports []sna.NetReport) ([]byte, error) {
	rs := slices.Clone(reports)
	for i := range rs {
		rs[i].ClearTiming()
	}
	slices.SortFunc(rs, func(a, b sna.NetReport) int { return strings.Compare(a.Cluster, b.Cluster) })
	return json.Marshal(rs)
}

type signoffState struct {
	eco         *sna.Design
	storeDir    string
	setupNewton int64
}

// setupSignoff is the cold-store first sign-off of the pre-ECO design,
// which populates a fresh store.
func setupSignoff(ctx context.Context, cfg config, d *sna.Design, n *int) (signoffState, error) {
	*n++
	st := signoffState{eco: ecoEdit(cfg.seed, d), storeDir: filepath.Join(cfg.dir, fmt.Sprintf("store%d", *n))}
	c0 := sim.Snapshot()
	run, err := streamSignoff(ctx, d, st.storeDir)
	if err != nil {
		return st, err
	}
	if run.errs > 0 || len(run.reports) != len(d.Clusters) {
		return st, fmt.Errorf("cold sign-off: %d of %d clusters reported, %d errors", len(run.reports), len(d.Clusters), run.errs)
	}
	st.setupNewton = sim.Snapshot().Sub(c0).NewtonIters
	return st, nil
}

func runSignoff(ctx context.Context, cfg config) (*result, error) {
	d := newDesign("signoff", genClusters(cfg.seed, streamDesign, "net", signoffClusters))
	var n int
	if cfg.trace {
		st, err := setupSignoff(ctx, cfg, d, &n)
		if err != nil {
			return nil, err
		}
		return traceSignoff(ctx, cfg, st)
	}
	st, setupS, err := measureSetup(func() (signoffState, error) { return setupSignoff(ctx, cfg, d, &n) })
	if err != nil {
		return nil, err
	}

	res := newResult()
	var (
		total, firsts []float64
		arrivals      []float64
		clusters      int
		want          []byte
	)
	heap := watchHeap()
	for start := time.Now(); time.Since(start) < cfg.seconds; {
		runtime.GC()
		run, err := streamSignoff(ctx, st.eco, st.storeDir)
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(len(st.eco.Clusters))
		res.Failed += int64(run.errs)
		clusters += len(run.reports)
		total = append(total, run.wall.Seconds())
		firsts = append(firsts, slices.Min(run.arrivals))
		arrivals = append(arrivals, run.arrivals...)
		res.check(len(run.reports) == len(st.eco.Clusters), "%d of %d clusters reported", len(run.reports), len(st.eco.Clusters))
		res.check(run.cache.Misses == run.cache.DiskHits, "warm store: %d cache misses but %d disk hits", run.cache.Misses, run.cache.DiskHits)
		got, err := verdicts(run.reports)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = got
		}
		res.check(bytes.Equal(got, want), "reports differ between sign-off runs")
	}
	peakHeap := heap.stopMB()

	acc, err := designAccuracy(ctx, st.eco, tech.Corner{}, warmCache(st.storeDir))
	if err != nil {
		return nil, err
	}
	var wall float64
	for _, t := range total {
		wall += t
	}
	m := res.Metrics
	m.set("setup_s", setupS, "s")
	m.set("throughput_per_s", float64(clusters)/wall, "1/s")
	m.set("first_result_ms", median(firsts), "ms")
	m.set("latency_p50_ms", quantile(arrivals, 0.5), "ms")
	m.set("latency_p90_ms", quantile(arrivals, 0.9), "ms")
	m.set("peak_err_mv", acc.rmsMV, "mV")
	m.set("peak_heap_mb", peakHeap, "MB")
	fmt.Fprintf(os.Stderr, "perfbench: signoff-eco: %d runs of %d clusters, %d verdict latency samples\n", len(total), len(st.eco.Clusters), len(arrivals))
	return res, nil
}

// replay re-runs the sign-off pipeline of every cluster of d serially —
// BuildClusterCornerNL, UseRigPool, BuildModels, AlignWorstCase, Evaluate,
// Analyzer.ReceiverNRC — exactly as sna.Analyzer does for the snacheck
// defaults, with a span around each call. ts, when non-nil, is the timing
// store wrapping the store; its spans are parented to the current call.
func replay(ctx context.Context, d *sna.Design, store charlib.PersistentStore, tr *Tracer, ts *timingStore) ([]sna.NetReport, *charlib.Cache, *core.RigPool, error) {
	cache := charlib.NewCache()
	cache.SetStore(store)
	an := sna.NewAnalyzer(d, sna.Options{Method: core.Macromodel, Align: true, Workers: 1, Cache: cache})
	pool := core.NewRigPool()
	eopts := core.EvalOptions{Dt: 2e-12}
	enter := func(name string, parent int) int {
		id := tr.Start(name, parent)
		if ts != nil {
			ts.parent.Store(int64(id))
		}
		return id
	}
	var reports []sna.NetReport
	for _, cs := range d.Clusters {
		fail := func(stage string, err error) error { return fmt.Errorf("replay %s: %s: %w", cs.Name, stage, err) }
		c := tr.Start("sna.cluster", 0)
		id := enter("sna.build", c)
		cl, err := d.BuildClusterCornerNL(cs, tech.Corner{}, false)
		tr.End(id)
		if err != nil {
			return nil, nil, nil, fail("build", err)
		}
		cl.UseRigPool(pool)
		id = enter("core.models", c)
		models, err := cl.BuildModels(ctx, core.ModelOptions{SkipProp: true, Cache: cache})
		tr.End(id)
		if err != nil {
			return nil, nil, nil, fail("models", err)
		}
		if len(cl.Aggressors) > 0 {
			id = enter("core.align", c)
			err = cl.AlignWorstCase(ctx, models, eopts)
			tr.End(id)
			if err != nil {
				return nil, nil, nil, fail("align", err)
			}
		}
		id = enter("core.eval", c)
		ev, err := cl.Evaluate(ctx, core.Macromodel, models, eopts)
		tr.End(id)
		if err != nil {
			return nil, nil, nil, fail("eval", err)
		}
		id = enter("nrc.receiver", c)
		curve, err := an.ReceiverNRC(ctx, cs)
		tr.End(id)
		if err != nil {
			return nil, nil, nil, fail("nrc", err)
		}
		tr.End(c)
		rep := sna.NetReport{
			Cluster: cs.Name,
			Method:  core.Macromodel,
			PeakV:   ev.RecvMetrics.Peak,
			AreaVps: ev.RecvMetrics.AreaVps(),
			WidthPs: ev.RecvMetrics.WidthPs(),
			DPPeakV: ev.Metrics.Peak,
		}
		rep.Fails = curve.Fails(rep.PeakV, ev.RecvMetrics.Width)
		rep.MarginV = curve.MarginV(rep.PeakV, ev.RecvMetrics.Width)
		reports = append(reports, rep)
	}
	return reports, cache, pool, nil
}

// traceSignoff streams the edited design once untraced, for the reference
// verdicts and worker occupancy, then replays it serially twice, untraced
// and traced, and derives the per-layer metrics from the traced replay.
func traceSignoff(ctx context.Context, cfg config, st signoffState) (*result, error) {
	res := newResult()
	m := res.Metrics
	m.set("sim.setup_newton_iters", float64(st.setupNewton), "count")

	run, err := streamSignoff(ctx, st.eco, st.storeDir)
	if err != nil {
		return nil, err
	}
	res.check(run.errs == 0 && len(run.reports) == len(st.eco.Clusters), "stream: %d of %d clusters, %d errors", len(run.reports), len(st.eco.Clusters), run.errs)
	var busy time.Duration
	for _, r := range run.reports {
		busy += r.Timing.Total()
	}
	m.set("sna.worker_busy_frac", ratio(float64(busy), float64(run.wall)*benchWorkers), "ratio")
	want, err := verdicts(run.reports)
	if err != nil {
		return nil, err
	}

	store, err := charstore.Open(st.storeDir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	plain, _, _, err := replay(ctx, st.eco, store, nil, nil)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)

	tr := newTracer()
	ts := newTimingStore(store, tr)
	rt0 := readRuntime()
	t0 = time.Now()
	whole := tr.Start("replay", 0)
	reports, cache, pool, err := replay(ctx, st.eco, ts, tr, ts)
	if err != nil {
		return nil, err
	}
	tr.End(whole)
	traced := time.Since(t0)
	runtimeMetrics(m, rt0, len(reports))
	for name, got := range map[string][]sna.NetReport{"untraced": plain, "traced": reports} {
		b, err := verdicts(got)
		if err != nil {
			return nil, err
		}
		res.check(bytes.Equal(b, want), "%s replay verdicts differ from the streamed sign-off", name)
	}
	res.Attempted, res.Failed = int64(len(st.eco.Clusters)), int64(run.errs)

	spans := tr.Spans()
	total := spans[whole-1]
	nc := float64(len(reports))
	var align, eval, models time.Duration
	var runs int64
	var allocs uint64
	for _, s := range byName(spans, "core.align") {
		align += s.dur()
		runs += s.Sim.EngineRuns
		allocs += s.Allocs
	}
	for _, s := range byName(spans, "core.eval") {
		eval += s.dur()
		runs += s.Sim.EngineRuns
		allocs += s.Allocs
	}
	for _, s := range byName(spans, "core.models") {
		models += selfTime(s, spans)
	}
	var clusterMs []float64
	for _, s := range byName(spans, "sna.cluster") {
		clusterMs = append(clusterMs, ms(s.dur()))
	}
	res.check(runs == total.Sim.EngineRuns, "engine runs outside align/eval spans: %d of %d", total.Sim.EngineRuns-runs, total.Sim.EngineRuns)
	m.set("core.align_ms", ms(align)/nc, "ms")
	m.set("core.eval_ms", ms(eval)/nc, "ms")
	m.set("core.models_ms", ms(models)/nc, "ms")
	m.set("core.engine_runs", float64(runs), "count")
	m.set("core.ms_per_engine_run", ratio(ms(align+eval), float64(runs)), "ms")
	m.set("core.allocs_per_engine_run", ratio(float64(allocs), float64(runs)), "count")
	hits, misses := pool.Stats()
	m.set("core.rigpool_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.set("sna.cluster_p50_ms", median(clusterMs), "ms")
	m.set("sna.cluster_max_ms", slices.Max(clusterMs), "ms")
	simMetrics(m, total.Sim, 0)
	cs := cache.Stats()
	m.set("charlib.cache_hits", float64(cs.Hits), "count")
	m.set("charlib.cache_misses", float64(cs.Misses), "count")
	m.set("charlib.disk_hits", float64(cs.DiskHits), "count")
	res.check(cs.Misses == cs.DiskHits, "traced replay: %d cache misses but %d disk hits", cs.Misses, cs.DiskHits)
	ts.metrics(m)
	m.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1, "ratio")

	acc, err := designAccuracy(ctx, st.eco, tech.Corner{}, warmCache(st.storeDir))
	if err != nil {
		return nil, err
	}
	m.set("core.c2_speedup_x", acc.speedup, "x")
	m.set("core.peak_err_max_mv", acc.maxMV, "mV")
	return res, fillPerLayer(m)
}

// warmCache is a fresh memory cache over the store in dir, or a bare
// memory cache when the store cannot be opened.
func warmCache(dir string) *charlib.Cache {
	cache := charlib.NewCache()
	if store, err := charstore.Open(dir); err == nil {
		cache.SetStore(store)
	}
	return cache
}

// accuracy compares the macromodel with the transistor-level Golden over a
// design.
type accuracy struct {
	rmsMV, maxMV float64 // receiver-peak difference over the clusters
	speedup      float64 // Golden over macromodel evaluation time: the paper's C2
}

// designAccuracy analyses every cluster of d as sign-off does — macromodel
// at the worst-case alignment, at the given corner — and evaluates each
// again at the same aligned offsets with the Golden. None of this is timed
// as part of a workload.
func designAccuracy(ctx context.Context, d *sna.Design, corner tech.Corner, cache *charlib.Cache) (accuracy, error) {
	eopts := core.EvalOptions{Dt: 2e-12}
	var (
		next          atomic.Int64
		mu            sync.Mutex
		wg            sync.WaitGroup
		macro, golden time.Duration
		sumSq, maxMV  float64
		firstErr      error
	)
	for range benchWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.Clusters) {
					return
				}
				dm, dg, e, err := clusterAccuracy(ctx, d, d.Clusters[i], corner, cache, eopts)
				mu.Lock()
				macro += dm
				golden += dg
				maxMV = math.Max(maxMV, e)
				sumSq += e * e
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("accuracy check %s: %w", d.Clusters[i].Name, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return accuracy{math.Sqrt(sumSq / float64(len(d.Clusters))), maxMV, ratio(float64(golden), float64(macro))}, firstErr
}

// clusterAccuracy returns the macromodel and Golden evaluation times of one
// aligned cluster and their receiver-peak difference in mV.
func clusterAccuracy(ctx context.Context, d *sna.Design, cs sna.ClusterSpec, corner tech.Corner, cache *charlib.Cache, eopts core.EvalOptions) (macro, golden time.Duration, errMV float64, err error) {
	cl, err := d.BuildClusterCornerNL(cs, corner, false)
	if err != nil {
		return 0, 0, 0, err
	}
	models, err := cl.BuildModels(ctx, core.ModelOptions{SkipProp: true, Cache: cache})
	if err != nil {
		return 0, 0, 0, err
	}
	if len(cl.Aggressors) > 0 {
		if err := cl.AlignWorstCase(ctx, models, eopts); err != nil {
			return 0, 0, 0, err
		}
	}
	t0 := time.Now()
	mm, err := cl.Evaluate(ctx, core.Macromodel, models, eopts)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	g, err := cl.Evaluate(ctx, core.Golden, models, eopts)
	if err != nil {
		return 0, 0, 0, err
	}
	return t1.Sub(t0), time.Since(t1), 1e3 * math.Abs(mm.RecvMetrics.Peak-g.RecvMetrics.Peak), nil
}
