package core

import (
	"context"
	"testing"

	"stanoise/internal/tech"
)

// TestRigPoolNLCapKeysDistinct pins the pooled-bench key separation on the
// nonlinear-cap axis: a cluster on a WithNonlinearCaps card and one on the
// base card share cell names, tech name and VDD, yet their content keys
// (topology and driver class) differ, so their compiled benches never
// alias in a shared pool.
func TestRigPoolNLCapKeysDistinct(t *testing.T) {
	cc := fastCluster(t, 1)
	nc := fastClusterOn(t, tech.Tech130().WithNonlinearCaps(), 1)

	if cc.topologyKey() == nc.topologyKey() {
		t.Fatal("constant-cap and nl-cap clusters alias the topology key")
	}
	if cc.driverClassKey() == nc.driverClassKey() {
		t.Fatal("constant-cap and nl-cap clusters alias the driver-class key")
	}
}

// TestRigPoolNLCapNoCrossServing drives the property end to end: with one
// shared pool, a constant-cap and an nl-cap cluster evaluating the same
// driver-alone bench must compile two rigs (two misses, no cross-axis hit)
// and produce measurably different waveforms — the nl bench really runs the
// nonlinear stamps, it is not a mislabeled copy.
func TestRigPoolNLCapNoCrossServing(t *testing.T) {
	ctx := context.Background()
	models := &Models{LumpedCL: 60e-15}
	opts := fastEvalOptions()

	pool := NewRigPool()
	cc := fastCluster(t, 1)
	nc := fastClusterOn(t, tech.Tech130().WithNonlinearCaps(), 1)
	cc.UseRigPool(pool)
	nc.UseRigPool(pool)

	wc, err := cc.DriverAloneResponse(ctx, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	wn, err := nc.DriverAloneResponse(ctx, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := pool.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("pool stats hits=%d misses=%d, want 0 hits and 2 misses (no cross-axis serving)", hits, misses)
	}
	if pool.Len() != 2 {
		t.Fatalf("pool holds %d rigs, want 2", pool.Len())
	}
	maxDiff := 0.0
	n := len(wc.V)
	if len(wn.V) < n {
		n = len(wn.V)
	}
	for i := 0; i < n; i++ {
		if d := wc.V[i] - wn.V[i]; d > maxDiff {
			maxDiff = d
		} else if -d > maxDiff {
			maxDiff = -d
		}
	}
	if maxDiff < 1e-4 {
		t.Fatalf("nl-cap bench indistinguishable from constant-cap (max |Δ| = %g V)", maxDiff)
	}
}
