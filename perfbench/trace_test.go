package main

import (
	"context"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/charstore"
	"stanoise/internal/tech"
)

// TestTimingStore checks that the decorator counts the cache's store
// traffic, times the build between the last missed get and the put, and
// keeps the cache on the lease path.
func TestTimingStore(t *testing.T) {
	ctx := context.Background()
	raw, err := charstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inv := cell.MustNew(tech.Tech130(), "INV", 1)
	st, err := inv.SensitizedState("A", true)
	if err != nil {
		t.Fatal(err)
	}
	opts := charlib.LoadCurveOptions{NVin: 5, NVout: 5}

	cold := newTimingStore(raw, newTracer())
	cache := charlib.NewCache()
	cache.SetStore(cold)
	if _, err := cache.LoadCurve(ctx, inv, st, "A", opts); err != nil {
		t.Fatal(err)
	}
	if cold.gets != 2 || cold.hits != 0 || cold.puts != 1 || len(cold.buildMs["lc"]) != 1 {
		t.Errorf("cold: gets %d hits %d puts %d builds %v", cold.gets, cold.hits, cold.puts, cold.buildMs)
	}
	if got := raw.LeaseStats().Acquired; got != 1 {
		t.Errorf("cache took %d build leases through the decorator, want 1", got)
	}
	m := metricSet{}
	cold.metrics(m)
	if m["charstore.bytes_written"].Value <= 0 {
		t.Errorf("cold: %v bytes written", m["charstore.bytes_written"].Value)
	}

	warm := newTimingStore(raw, nil)
	cache = charlib.NewCache()
	cache.SetStore(warm)
	if _, err := cache.LoadCurve(ctx, inv, st, "A", opts); err != nil {
		t.Fatal(err)
	}
	m = metricSet{}
	warm.metrics(m)
	if m["charstore.gets"].Value != 1 || m["charstore.get_hit_ratio"].Value != 1 || m["charstore.puts"].Value != 0 || m["charstore.bytes_written"].Value != 0 {
		t.Errorf("warm: %v", m)
	}
}
