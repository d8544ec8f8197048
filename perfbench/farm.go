package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// farmCornersPerRound is the number of Monte Carlo corners one farm round
// characterises the job list at.
const farmCornersPerRound = 2

// artefactsPerTask counts what one (job, corner) task produces: a load
// curve, a propagation table and a receiver NRC.
const artefactsPerTask = 3

// farmCheckClusters is the size of the design whose macromodel accuracy is
// checked at the first farmed corner.
const farmCheckClusters = 32

// farmRound is one pass of the farm over every (job, corner) task.
type farmRound struct {
	wall    time.Duration
	doneMs  []float64 // from the start of the round to each finished task
	tasks   int
	failed  int
	bad     []string // artefacts missing or not finite
	cache   charlib.CacheStats
	entries []charstore.Entry
}

// runFarmRound characterises every job at every corner into a fresh store
// at dir, benchWorkers tasks at a time. Each task runs charlib.SweepCorners
// for its (job, corner) — load curve plus propagation table — and then the
// receiver NRC of the same cell pin. wrap, when non-nil, wraps the store
// (the traced run's timing store).
func runFarmRound(ctx context.Context, dir string, corners []tech.Corner, tr *Tracer, wrap func(*charstore.Store) charlib.PersistentStore) (farmRound, error) {
	var round farmRound
	t0 := time.Now()
	raw, err := charstore.Open(dir)
	if err != nil {
		return round, err
	}
	var store charlib.PersistentStore = raw
	if wrap != nil {
		store = wrap(raw)
	}
	cache := charlib.NewCache()
	cache.SetStore(store)
	base := tech.Tech130()

	type task struct {
		corner tech.Corner
		job    charlib.CornerJob
	}
	var tasks []task
	for _, c := range corners {
		for _, j := range farmJobs {
			tasks = append(tasks, task{c, j})
		}
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for range benchWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				id := tr.Start("farm.task", 0)
				bad, err := farmTask(ctx, cache, base, t.corner, t.job)
				tr.End(id)
				end := time.Now()
				mu.Lock()
				round.tasks++
				if err != nil {
					round.failed++
					fmt.Fprintf(os.Stderr, "perfbench: farm %s %s/%s: %v\n", t.corner.Name, t.job.Kind, t.job.Pin, err)
				}
				round.bad = append(round.bad, bad...)
				round.doneMs = append(round.doneMs, ms(end.Sub(t0)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	round.wall = time.Since(t0)
	round.cache = cache.Stats()
	round.entries = raw.Entries()
	return round, nil
}

// farmTask characterises one job at one corner and names every artefact
// that came back missing or not finite.
func farmTask(ctx context.Context, cache *charlib.Cache, base *tech.Tech, corner tech.Corner, job charlib.CornerJob) ([]string, error) {
	res, err := charlib.SweepCorners(ctx, cache, base, []tech.Corner{corner}, []charlib.CornerJob{job}, charlib.CornerSweepOptions{Prop: true, Workers: 1})
	if err != nil {
		return nil, err
	}
	cl, err := cell.New(corner.Apply(base), job.Kind, job.Drive)
	if err != nil {
		return nil, err
	}
	st, err := cl.SensitizedState(job.Pin, true)
	if err != nil {
		return nil, err
	}
	curve, err := cache.NRCCurve(ctx, cl, st, job.Pin, nrc.Options{})
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s %s/%s", corner.Name, job.Kind, job.Pin)
	var bad []string
	lib := res[0].Library
	if len(lib.LoadCurves) != 1 || !allFinite(lib.LoadCurves[0].I) {
		bad = append(bad, name+" load curve")
	}
	if len(lib.PropTables) != 1 || !propFinite(lib.PropTables[0]) {
		bad = append(bad, name+" propagation table")
	}
	if len(curve.Heights) == 0 || !nrcValid(curve.Heights) {
		bad = append(bad, name+" NRC")
	}
	return bad, nil
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}

func propFinite(pt *charlib.PropTable) bool {
	if len(pt.Peak) == 0 {
		return false
	}
	for h := range pt.Peak {
		for w := range pt.Peak[h] {
			if !allFinite(pt.Peak[h][w]) || !allFinite(pt.Area[h][w]) {
				return false
			}
		}
	}
	return true
}

// nrcValid accepts positive failing heights; +Inf marks an unfailable
// width and is valid.
func nrcValid(hs []float64) bool {
	for _, h := range hs {
		if math.IsNaN(h) || h <= 0 {
			return false
		}
	}
	return true
}

// farmSetup characterises the nominal-corner library, the reference the
// Monte Carlo rounds perturb around.
func farmSetup(ctx context.Context, cfg config, n *int) (int64, error) {
	*n++
	c0 := sim.Snapshot()
	round, err := runFarmRound(ctx, filepath.Join(cfg.dir, fmt.Sprintf("nominal%d", *n)), []tech.Corner{{}}, nil, nil)
	if err != nil {
		return 0, err
	}
	if round.failed > 0 || len(round.bad) > 0 {
		return 0, fmt.Errorf("nominal library: %d failed tasks, bad artefacts %v", round.failed, round.bad)
	}
	return sim.Snapshot().Sub(c0).NewtonIters, nil
}

func runFarm(ctx context.Context, cfg config) (*result, error) {
	corners := farmCorners(cfg.seed, farmCornersPerRound)
	var n int
	if cfg.trace {
		newton, err := farmSetup(ctx, cfg, &n)
		if err != nil {
			return nil, err
		}
		return traceFarm(ctx, cfg, corners, newton)
	}
	_, setupS, err := measureSetup(func() (int64, error) { return farmSetup(ctx, cfg, &n) })
	if err != nil {
		return nil, err
	}

	res := newResult()
	var (
		wall         time.Duration
		firsts, lats []float64
		artefacts    int
	)
	heap := watchHeap()
	for start, k := time.Now(), 0; time.Since(start) < cfg.seconds; k++ {
		round, err := farmRoundIn(ctx, cfg, fmt.Sprintf("round%d", k), corners, nil, nil)
		if err != nil {
			return nil, err
		}
		wall += round.wall
		firsts = append(firsts, slices.Min(round.doneMs))
		lats = append(lats, round.doneMs...)
		res.Attempted += int64(len(corners) * len(farmJobs) * artefactsPerTask)
		res.Failed += int64(round.failed * artefactsPerTask)
		artefacts += (round.tasks - round.failed) * artefactsPerTask
		checkFarmRound(res, round, len(corners))
	}
	peakHeap := heap.stopMB()

	check := newDesign("farm-check", genClusters(cfg.seed, streamCheck, "chk", farmCheckClusters))
	acc, err := designAccuracy(ctx, check, corners[0], charlib.NewCache())
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	m.set("setup_s", setupS, "s")
	m.set("throughput_per_s", float64(artefacts)/wall.Seconds(), "1/s")
	m.set("first_result_ms", median(firsts), "ms")
	m.set("latency_p50_ms", quantile(lats, 0.5), "ms")
	m.set("latency_p90_ms", quantile(lats, 0.9), "ms")
	m.set("peak_err_mv", acc.rmsMV, "mV")
	m.set("peak_heap_mb", peakHeap, "MB")
	fmt.Fprintf(os.Stderr, "perfbench: char-farm: %d rounds, %d task latency samples\n", len(firsts), len(lats))
	return res, nil
}

// farmRoundIn runs one round into a fresh store directory under the run's
// scratch space and removes the directory afterwards.
func farmRoundIn(ctx context.Context, cfg config, name string, corners []tech.Corner, tr *Tracer, wrap func(*charstore.Store) charlib.PersistentStore) (farmRound, error) {
	dir := filepath.Join(cfg.dir, name)
	round, err := runFarmRound(ctx, dir, corners, tr, wrap)
	if err != nil {
		return round, err
	}
	return round, os.RemoveAll(dir)
}

// checkFarmRound checks that every (job, corner) task ran and left all its
// artefacts, finite, in the store.
func checkFarmRound(res *result, round farmRound, corners int) {
	want := corners * len(farmJobs)
	res.check(round.tasks == want && round.failed == 0, "%d of %d farm tasks ran, %d failed", round.tasks, want, round.failed)
	res.check(len(round.bad) == 0, "bad artefacts: %v", round.bad)
	res.check(len(round.entries) == want*artefactsPerTask, "store holds %d artefacts, want %d", len(round.entries), want*artefactsPerTask)
	res.check(round.cache.Misses == want*artefactsPerTask && round.cache.DiskHits == 0, "fresh store: cache stats %+v", round.cache)
}

// traceFarm runs one round untraced and one traced, over the same corners,
// and derives the per-layer metrics from the traced round.
func traceFarm(ctx context.Context, cfg config, corners []tech.Corner, setupNewton int64) (*result, error) {
	res := newResult()
	m := res.Metrics
	m.set("sim.setup_newton_iters", float64(setupNewton), "count")
	plain, err := farmRoundIn(ctx, cfg, "untraced", corners, nil, nil)
	if err != nil {
		return nil, err
	}
	checkFarmRound(res, plain, len(corners))

	tr := newTracer()
	var ts *timingStore
	wrap := func(s *charstore.Store) charlib.PersistentStore {
		ts = newTimingStore(s, tr)
		return ts
	}
	rt0 := readRuntime()
	c0 := sim.Snapshot()
	round, err := farmRoundIn(ctx, cfg, "traced", corners, tr, wrap)
	if err != nil {
		return nil, err
	}
	simDelta := sim.Snapshot().Sub(c0)
	runtimeMetrics(m, rt0, round.tasks*artefactsPerTask)
	checkFarmRound(res, round, len(corners))
	res.Attempted = int64(round.tasks * artefactsPerTask)

	var buildMs float64
	for _, xs := range ts.buildMs {
		for _, x := range xs {
			buildMs += x
		}
	}
	simMetrics(m, simDelta, buildMs)
	m.set("core.engine_runs", float64(simDelta.EngineRuns), "count")
	m.set("charlib.cache_hits", float64(round.cache.Hits), "count")
	m.set("charlib.cache_misses", float64(round.cache.Misses), "count")
	m.set("charlib.disk_hits", float64(round.cache.DiskHits), "count")
	ts.metrics(m)
	m.set("trace.overhead_frac", round.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	return res, fillPerLayer(m)
}
