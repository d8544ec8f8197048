package sna

import (
	"context"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/tech"
)

// TestSharedPoolSetAcrossCorners is the rig-pool alias regression: fs, sf
// and tt cards share their Name and VDD, so pooled benches keyed on names
// served the tt physics to a later fs or sf analysis through a shared
// PoolSet (what snaserve shares across requests). With content keys every
// run through the shared set equals a run with a fresh pool, field for
// field, for the golden bench, the Zolotov driver fit and the macromodel's
// driver-alone alignment target alike.
func TestSharedPoolSetAcrossCorners(t *testing.T) {
	ctx := context.Background()
	cache := charlib.NewCache()
	for _, m := range []core.Method{core.Golden, core.Zolotov, core.Macromodel} {
		shared := NewPoolSet(core.RigPoolLimits{})
		for _, name := range []string{"tt", "fs", "sf"} {
			corner, err := tech.CornerByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := fastOpts(m)
			opts.Workers = 1
			opts.Corner = corner
			opts.Cache = cache
			fresh, err := NewAnalyzer(sampleDesign(), opts).Analyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			opts.RigPools = shared
			pooled, err := NewAnalyzer(sampleDesign(), opts).Analyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(pooled) != len(fresh) {
				t.Fatalf("%v @ %s: %d reports through the shared pool set, %d fresh", m, name, len(pooled), len(fresh))
			}
			for i := range fresh {
				fresh[i].ClearTiming()
				pooled[i].ClearTiming()
				if pooled[i] != fresh[i] {
					t.Errorf("%v @ %s: shared-pool report differs from a fresh pool:\n%+v\n%+v", m, name, pooled[i], fresh[i])
				}
			}
		}
	}
}
