package charlib

import (
	"context"
	"math"
	"reflect"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
)

// sweepCorners is the test harness around SweepCorners: one INV job on the
// cmos130 card across the given corners.
func sweepCorners(t *testing.T, cache *Cache, corners []tech.Corner, warm bool, grid int) []CornerResult {
	t.Helper()
	return sweepCornersJob(t, cache, corners, CornerJob{Kind: "INV", Drive: 1, Pin: "A"}, warm, grid)
}

// continuationJob is the load-curve job the continuation tests measure
// Newton work on. An INV load-curve rig has no free node — every node is
// pinned by a source, so its sweep solves by KCL alone and spends zero
// Newton iterations (TestINVLoadCurveNeedsNoNewton) — while the NAND2
// stack node is a genuine Newton unknown.
var continuationJob = CornerJob{Kind: "NAND2", Drive: 1, Pin: "B"}

// sweepCornersJob is sweepCorners for an arbitrary job.
func sweepCornersJob(t *testing.T, cache *Cache, corners []tech.Corner, job CornerJob, warm bool, grid int) []CornerResult {
	t.Helper()
	res, err := SweepCorners(context.Background(), cache, tech.Tech130(), corners,
		[]CornerJob{job},
		CornerSweepOptions{LoadCurve: LoadCurveOptions{NVin: grid, NVout: grid, WarmStart: warm}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustCorners resolves a list of standard corner names.
func mustCorners(t *testing.T, names ...string) []tech.Corner {
	t.Helper()
	out := make([]tech.Corner, 0, len(names))
	for _, n := range names {
		c, err := tech.CornerByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// totalIters sums the Newton iterations across a sweep's corner results.
func totalIters(res []CornerResult) int64 {
	var n int64
	for _, r := range res {
		n += r.Stats.NewtonIters
	}
	return n
}

// TestCornerContinuationCutsNewtonIterations is the headline acceptance
// criterion of the corner farm: on the NAND2 load-curve corner matrix
// (tt/ss/ff at the production 61×61 grid), the adjacent-corner warm-start
// sweep must spend at least 20% fewer Newton iterations than
// cold-per-corner characterisation — measured on the farm's own
// per-corner counters, seed solves included.
func TestCornerContinuationCutsNewtonIterations(t *testing.T) {
	corners := mustCorners(t, "tt", "ss", "ff")
	cold := totalIters(sweepCornersJob(t, nil, corners, continuationJob, false, 61))
	warm := totalIters(sweepCornersJob(t, nil, corners, continuationJob, true, 61))
	t.Logf("tt/ss/ff 61x61 NAND2 matrix: %d Newton iterations cold-per-corner, %d warm continuation (%.1f%% reduction)",
		cold, warm, 100*(1-float64(warm)/float64(cold)))
	if warm > cold*8/10 {
		t.Fatalf("corner continuation cut iterations by only %.1f%% (cold %d, warm %d), want >= 20%%",
			100*(1-float64(warm)/float64(cold)), cold, warm)
	}
}

// TestAdjacentCornerSeedWarmsFirstPoint proves the cross-corner transplant
// is live: with a seed from the adjacent corner, every solve of the sweep
// — including the first grid point, the one intra-sweep warm starting
// cannot help — runs warm-started, and none falls back cold.
func TestAdjacentCornerSeedWarmsFirstPoint(t *testing.T) {
	base := tech.Tech130()
	ss, ff := mustCorners(t, "ss", "ff")[0], mustCorners(t, "ss", "ff")[1]
	opts := LoadCurveOptions{NVin: 11, NVout: 11, WarmStart: true}

	kind, pin := continuationJob.Kind, continuationJob.Pin
	ffCell := cell.MustNew(ff.Apply(base), kind, 1)
	st, err := ffCell.SensitizedState(pin, true)
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := FirstPointSeed(cell.MustNew(ss.Apply(base), kind, 1), st, pin, opts)
	if err != nil {
		t.Fatal(err)
	}

	_, unseeded, err := characterizeLoadCurveSeeded(context.Background(), ffCell, st, pin, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, seeded, err := characterizeLoadCurveSeeded(context.Background(), ffCell, st, pin, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := unseeded.WarmStarts + 1; seeded.WarmStarts != want {
		t.Fatalf("seeded sweep warm-started %d solves, want %d (the unseeded count plus the first point)",
			seeded.WarmStarts, want)
	}
	if seeded.WarmFallbacks != 0 {
		t.Fatalf("adjacent-corner seed fell back cold %d times", seeded.WarmFallbacks)
	}
	if seeded.NewtonIters >= unseeded.NewtonIters {
		t.Fatalf("seeded sweep spent %d iterations, unseeded %d — transplant saved nothing",
			seeded.NewtonIters, unseeded.NewtonIters)
	}
}

// TestCornerSweepArtefactsDistinct asserts the aliasing property end to
// end: distinct corners produce numerically different tables under
// distinct cache keys, while the nominal corner's artefact is the legacy
// one byte for byte.
func TestCornerSweepArtefactsDistinct(t *testing.T) {
	cache := NewCache()
	corners := mustCorners(t, "tt", "ss", "ff")
	res := sweepCorners(t, cache, corners, false, 11)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	byName := map[string]*LoadCurve{}
	for _, r := range res {
		lc := r.Library.LoadCurveFor("INV_X1", r.Library.LoadCurves[0].State, "A")
		if lc == nil {
			t.Fatalf("corner %s: no INV load curve in library", r.Corner.Name)
		}
		byName[r.Corner.Name] = lc
		wantCorner := r.Corner.Name
		if r.Corner.IsNominal() {
			wantCorner = ""
		}
		if r.Library.Corner != wantCorner {
			t.Fatalf("corner %s: library tagged %q", r.Corner.Name, r.Library.Corner)
		}
	}
	for _, pair := range [][2]string{{"tt", "ss"}, {"tt", "ff"}, {"ss", "ff"}} {
		a, b := byName[pair[0]], byName[pair[1]]
		if reflect.DeepEqual(a.I, b.I) {
			t.Fatalf("corners %s and %s produced identical tables", pair[0], pair[1])
		}
	}
	if keys := cache.Keys(); len(keys) != 3 {
		t.Fatalf("expected 3 distinct cache keys, got %d: %v", len(keys), keys)
	}

	// The nominal corner's artefact must be the legacy one, byte for byte:
	// a direct legacy characterisation lands on the same key (cache hit)
	// and the same numbers.
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	legacy, err := cache.LoadCurve(context.Background(), inv, st, "A", LoadCurveOptions{NVin: 11, NVout: 11})
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("legacy nominal request missed the farm's tt entry (misses %d -> %d)", before.Misses, after.Misses)
	}
	if !reflect.DeepEqual(legacy.I, byName["tt"].I) {
		t.Fatal("farm tt table differs from the legacy nominal characterisation")
	}
}

// TestCornerSweepWarmRerunZeroSolves is the farm's reuse proof: a second
// sweep over the same cache performs zero transistor-level solves and
// reports all-zero per-corner work.
func TestCornerSweepWarmRerunZeroSolves(t *testing.T) {
	cache := NewCache()
	corners := mustCorners(t, "ss", "ff")
	sweepCorners(t, cache, corners, true, 11)
	before := sim.Snapshot()
	res := sweepCorners(t, cache, corners, true, 11)
	delta := sim.Snapshot().Sub(before)
	if delta.Total() != 0 {
		t.Fatalf("warm rerun performed %d transistor-level solves", delta.Total())
	}
	if n := totalIters(res); n != 0 {
		t.Fatalf("warm rerun reported %d Newton iterations", n)
	}
}

// TestCornerSweepDeterministic asserts scheduling independence: two
// identical farm runs on fresh caches produce identical libraries, corner
// order and tables — the property the continuation-seed design (canonical
// cold first-point seeds, no cross-task chaining) exists to guarantee.
func TestCornerSweepDeterministic(t *testing.T) {
	corners := append(mustCorners(t, "ss", "tt", "ff"), tech.SampleCorners(2, 99, tech.SampleSpec{})...)
	a := sweepCorners(t, NewCache(), corners, true, 11)
	b := sweepCorners(t, NewCache(), corners, true, 11)
	if len(a) != len(b) {
		t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Corner.Name != b[i].Corner.Name {
			t.Fatalf("corner order differs at %d: %s vs %s", i, a[i].Corner.Name, b[i].Corner.Name)
		}
		if !reflect.DeepEqual(a[i].Library, b[i].Library) {
			t.Fatalf("corner %s: libraries differ between identical runs", a[i].Corner.Name)
		}
	}
}

// TestCornerSweepMCSamplesNeverAlias runs a small Monte Carlo fan-out and
// checks every sample lands in its own cache entry with its own numbers.
func TestCornerSweepMCSamplesNeverAlias(t *testing.T) {
	cache := NewCache()
	samples := tech.SampleCorners(3, 7, tech.SampleSpec{})
	res := sweepCorners(t, cache, samples, true, 11)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if keys := cache.Keys(); len(keys) != 3 {
		t.Fatalf("expected 3 distinct cache keys, got %d: %v", len(keys), keys)
	}
	for i := 1; i < len(res); i++ {
		if reflect.DeepEqual(res[i].Library.LoadCurves[0].I, res[i-1].Library.LoadCurves[0].I) {
			t.Fatalf("samples %s and %s produced identical tables",
				res[i-1].Corner.Name, res[i].Corner.Name)
		}
	}
	// Per-corner cache attribution: every sample tag must appear.
	tags := cache.CornerStats()
	for _, r := range res {
		st, ok := tags[r.Corner.Name]
		if !ok || st.Misses != 1 {
			t.Fatalf("per-corner cache stats missing sample %s: %+v", r.Corner.Name, tags)
		}
	}
}

// TestWarmCornerMatchesColdCorner is the correctness property at a
// non-nominal corner: continuation changes Newton seeds, never roots, so
// the warm table must match the cold one within solver tolerance.
func TestWarmCornerMatchesColdCorner(t *testing.T) {
	corners := mustCorners(t, "ss", "ff")
	cold := sweepCorners(t, nil, corners, false, 11)
	warm := sweepCorners(t, nil, corners, true, 11)
	for i := range cold {
		ci, wi := cold[i].Library.LoadCurves[0], warm[i].Library.LoadCurves[0]
		scale := 0.0
		for _, v := range ci.I {
			scale = math.Max(scale, math.Abs(v))
		}
		tol := 1e-6*scale + 1e-12
		for k := range ci.I {
			if d := math.Abs(ci.I[k] - wi.I[k]); d > tol {
				t.Fatalf("corner %s I[%d]: cold %v warm %v (|Δ| %.3g > tol %.3g)",
					cold[i].Corner.Name, k, ci.I[k], wi.I[k], d, tol)
			}
		}
	}
}
