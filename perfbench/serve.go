package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/feas"
	"stanoise/internal/serve"
	"stanoise/internal/sim"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
)

const (
	// serveRequestList is how many requests are generated; the closed loop
	// cycles through them.
	serveRequestList = 400
	// traceRequests is the fixed request count of each traced-run pass.
	traceRequests = 40
	// overheadRequests is how many requests the traced run also times
	// alone, against a direct analysis of the same design.
	overheadRequests = 10
)

// served is the client's view of one request.
type served struct {
	idx                     int
	status                  int
	headers, first, latency time.Duration
	bytes                   int
	reports                 []sna.NetReport
	summaries, errs, terms  int
}

// ok reports whether the response is a complete run: 200, one report per
// cluster, a final summary and no error records.
func (s served) ok(r serveRequest) bool {
	return s.status == http.StatusOK && len(s.reports) == len(r.design.Clusters) && s.summaries == 1 && s.errs == 0 && s.terms == 0
}

// post sends one request and reads its NDJSON stream to the end.
func post(ctx context.Context, client *http.Client, url string, r serveRequest) (served, error) {
	var s served
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		return s, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	s.headers = time.Since(t0)
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		n, err := io.Copy(io.Discard, resp.Body)
		s.bytes = int(n)
		s.latency = time.Since(t0)
		return s, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if s.first == 0 {
			s.first = time.Since(t0)
		}
		s.bytes += len(line) + 1
		var rec struct {
			Type   string          `json:"type"`
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return s, fmt.Errorf("record %q: %w", line, err)
		}
		switch rec.Type {
		case "report":
			var rep sna.NetReport
			if err := json.Unmarshal(rec.Report, &rep); err != nil {
				return s, err
			}
			s.reports = append(s.reports, rep)
		case "summary":
			s.summaries++
		case "cluster_error":
			s.errs++
		default:
			s.terms++
		}
	}
	s.latency = time.Since(t0)
	return s, sc.Err()
}

// closedLoop runs benchWorkers clients; each sends its next request only
// after reading the previous response to the end. It stops after n
// requests, or, with n < 0, at the first request due after the deadline.
func closedLoop(ctx context.Context, hs *httptest.Server, reqs []serveRequest, n int, deadline time.Time) ([]served, time.Duration, error) {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		out      []served
		firstErr error
		wg       sync.WaitGroup
	)
	client := hs.Client()
	url := hs.URL + "/v1/analyze"
	t0 := time.Now()
	for range benchWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if (n >= 0 && i >= n) || (n < 0 && time.Now().After(deadline)) {
					return
				}
				s, err := post(ctx, client, url, reqs[i%len(reqs)])
				s.idx = i
				mu.Lock()
				out = append(out, s)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0), firstErr
}

type serveState struct {
	hs          *httptest.Server
	cache       *charlib.Cache
	pools       *sna.PoolSet
	setupNewton int64
}

// setupServe starts an in-process server and warms its shared cache and
// compiled-bench pools with the warm-up requests.
func setupServe(ctx context.Context, warm []serveRequest) (serveState, error) {
	c0 := sim.Snapshot()
	st := serveState{cache: charlib.NewCache(), pools: sna.NewPoolSet(core.RigPoolLimits{})}
	srv := serve.NewServer(serve.Config{
		Analysis:     sna.Options{Workers: benchWorkers, Cache: st.cache, RigPools: st.pools},
		FleetWorkers: benchWorkers,
	})
	st.hs = httptest.NewServer(srv)
	out, _, err := closedLoop(ctx, st.hs, warm, len(warm), time.Time{})
	if err == nil {
		for _, s := range out {
			if !s.ok(warm[s.idx]) {
				err = fmt.Errorf("warm-up request %d: status %d, %d reports", s.idx, s.status, len(s.reports))
				break
			}
		}
	}
	if err != nil {
		st.hs.Close()
		return st, err
	}
	st.setupNewton = sim.Snapshot().Sub(c0).NewtonIters
	return st, nil
}

func runServe(ctx context.Context, cfg config) (*result, error) {
	pool := genPool(cfg.seed)
	warm, err := warmupRequests(pool)
	if err != nil {
		return nil, err
	}
	reqs, err := genRequests(cfg.seed, pool, serveRequestList)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		st, err := setupServe(ctx, warm)
		if err != nil {
			return nil, err
		}
		defer st.hs.Close()
		return traceServe(ctx, st, reqs)
	}
	var prev *httptest.Server
	st, setupS, err := measureSetup(func() (serveState, error) {
		if prev != nil {
			prev.Close()
		}
		st, err := setupServe(ctx, warm)
		prev = st.hs
		return st, err
	})
	if err != nil {
		return nil, err
	}
	defer st.hs.Close()

	res := newResult()
	heap := watchHeap()
	out, wall, err := closedLoop(ctx, st.hs, reqs, -1, time.Now().Add(cfg.seconds))
	peakHeap := heap.stopMB()
	if err != nil {
		return nil, err
	}
	var lats, firsts []float64
	firstOf := map[bool]served{}
	for _, s := range out {
		r := reqs[s.idx%len(reqs)]
		res.Attempted++
		if !s.ok(r) {
			res.Failed++
		}
		res.check(s.ok(r), "request %d: status %d, %d of %d reports, %d summaries, %d cluster errors, %d terminal records",
			s.idx, s.status, len(s.reports), len(r.design.Clusters), s.summaries, s.errs, s.terms)
		lats = append(lats, ms(s.latency))
		firsts = append(firsts, ms(s.first))
		if f, seen := firstOf[r.feasibility]; !seen || s.idx < f.idx {
			firstOf[r.feasibility] = s
		}
	}
	for feasible, s := range firstOf {
		same, err := matchesDirect(ctx, reqs[s.idx%len(reqs)], s)
		if err != nil {
			return nil, err
		}
		res.check(same, "request %d (feasibility %v) differs from an in-process analysis of its design", s.idx, feasible)
	}
	res.check(len(firstOf) == 2, "only %d of 2 request kinds completed", len(firstOf))

	acc, err := designAccuracy(ctx, newDesign("pool", pool), tech.Corner{}, st.cache)
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	m.set("setup_s", setupS, "s")
	m.set("throughput_per_s", float64(len(out))/wall.Seconds(), "1/s")
	m.set("first_result_ms", median(firsts), "ms")
	m.set("latency_p50_ms", quantile(lats, 0.5), "ms")
	m.set("latency_p90_ms", quantile(lats, 0.9), "ms")
	m.set("peak_err_mv", acc.rmsMV, "mV")
	m.set("peak_heap_mb", peakHeap, "MB")
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d requests from %d closed-loop clients (latency samples)\n", len(out), benchWorkers)
	return res, nil
}

// matchesDirect checks a served response against an in-process analysis
// of the same design with a fresh cache.
func matchesDirect(ctx context.Context, r serveRequest, s served) (bool, error) {
	an := sna.NewAnalyzer(r.design, sna.Options{Method: core.Macromodel, Align: true, Feasibility: r.feasibility, Workers: benchWorkers})
	reports, err := an.Analyze(ctx)
	if err != nil {
		return false, err
	}
	want, err := verdicts(reports)
	if err != nil {
		return false, err
	}
	got, err := verdicts(s.reports)
	return bytes.Equal(got, want), err
}

// traceServe sends the first traceRequests requests twice through the
// closed loop, untraced and then traced with counter snapshots around the
// pass, and times overheadRequests requests alone against direct analyses
// of their designs.
func traceServe(ctx context.Context, st serveState, reqs []serveRequest) (*result, error) {
	res := newResult()
	m := res.Metrics
	m.set("sim.setup_newton_iters", float64(st.setupNewton), "count")
	_, plainWall, err := closedLoop(ctx, st.hs, reqs, traceRequests, time.Time{})
	if err != nil {
		return nil, err
	}

	c0, f0, cs0 := sim.Snapshot(), feas.Snapshot(), st.cache.Stats()
	h0, mi0 := st.pools.Stats()
	rt0, a0 := readRuntime(), heapAllocs()
	out, wall, err := closedLoop(ctx, st.hs, reqs, traceRequests, time.Time{})
	if err != nil {
		return nil, err
	}
	allocs := heapAllocs() - a0
	runtimeMetrics(m, rt0, len(out))
	c, f, cs := sim.Snapshot().Sub(c0), feas.Snapshot().Sub(f0), st.cache.Stats()
	h1, mi1 := st.pools.Stats()

	var (
		align, eval, models, busy time.Duration
		clusterMs, headers        []float64
		respBytes, rejected       int
	)
	for _, s := range out {
		r := reqs[s.idx]
		res.Attempted++
		if !s.ok(r) {
			res.Failed++
		}
		res.check(s.ok(r), "request %d: status %d, %d of %d reports", s.idx, s.status, len(s.reports), len(r.design.Clusters))
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
		headers = append(headers, ms(s.headers))
		respBytes += s.bytes
		for _, rep := range s.reports {
			align += rep.Timing.Align
			eval += rep.Timing.Eval + rep.Timing.Feas
			models += rep.Timing.Models
			busy += rep.Timing.Total()
			clusterMs = append(clusterMs, ms(rep.Timing.Total()))
		}
	}
	nc := float64(len(clusterMs))
	m.set("core.align_ms", ratio(ms(align), nc), "ms")
	m.set("core.eval_ms", ratio(ms(eval), nc), "ms")
	m.set("core.models_ms", ratio(ms(models), nc), "ms")
	m.set("core.engine_runs", float64(c.EngineRuns), "count")
	m.set("core.ms_per_engine_run", ratio(ms(align+eval), float64(c.EngineRuns)), "ms")
	m.set("core.allocs_per_engine_run", ratio(float64(allocs), float64(c.EngineRuns)), "count")
	poolRatio := ratio(float64(h1-h0), float64(h1-h0+mi1-mi0))
	m.set("core.rigpool_hit_ratio", poolRatio, "ratio")
	m.set("serve.rigpool_hit_ratio", poolRatio, "ratio")
	m.set("sna.cluster_p50_ms", median(clusterMs), "ms")
	if len(clusterMs) > 0 {
		m.set("sna.cluster_max_ms", quantile(clusterMs, 1), "ms")
	}
	m.set("sna.worker_busy_frac", ratio(float64(busy), float64(wall)*benchWorkers), "ratio")
	simMetrics(m, c, 0)
	hits, misses := cs.Hits-cs0.Hits, cs.Misses-cs0.Misses
	m.set("charlib.cache_hits", float64(hits), "count")
	m.set("charlib.cache_misses", float64(misses), "count")
	m.set("charlib.disk_hits", float64(cs.DiskHits-cs0.DiskHits), "count")
	m.set("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.set("serve.headers_p50_ms", median(headers), "ms")
	m.set("serve.response_kb", ratio(float64(respBytes)/1024, float64(len(out))), "KB")
	m.set("serve.rejected", float64(rejected), "count")
	m.set("feas.combos", float64(f.Combos), "count")
	m.set("feas.pruned_frac", ratio(float64(f.Pruned), float64(f.Combos)), "ratio")
	m.set("feas.scenarios", float64(f.Scenarios), "count")
	m.set("trace.overhead_frac", wall.Seconds()/plainWall.Seconds()-1, "ratio")

	overhead, err := serveOverhead(ctx, st, reqs[:overheadRequests])
	if err != nil {
		return nil, err
	}
	m.set("serve.overhead_ms", overhead, "ms")
	return res, fillPerLayer(m)
}

// serveOverhead is the median, over requests sent one at a time, of the
// request latency minus a direct analysis of the same design on the
// server's warm cache and pools. The two alternate which goes first.
func serveOverhead(ctx context.Context, st serveState, reqs []serveRequest) (float64, error) {
	var diffs []float64
	for i, r := range reqs {
		var (
			s      served
			direct time.Duration
			err    error
		)
		for k := range 2 {
			if (i+k)%2 == 0 {
				s, err = post(ctx, st.hs.Client(), st.hs.URL+"/v1/analyze", r)
			} else {
				an := sna.NewAnalyzer(r.design, sna.Options{
					Method: core.Macromodel, Align: true, Feasibility: r.feasibility,
					Workers: benchWorkers, Cache: st.cache, RigPools: st.pools,
				})
				t0 := time.Now()
				_, err = an.Analyze(ctx)
				direct = time.Since(t0)
			}
			if err != nil {
				return 0, err
			}
		}
		diffs = append(diffs, ms(s.latency)-ms(direct))
	}
	return median(diffs), nil
}
