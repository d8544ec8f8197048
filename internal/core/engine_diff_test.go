package core_test

import (
	"context"
	"fmt"
	"testing"

	"stanoise/internal/charlib"
	"stanoise/internal/core"
	"stanoise/internal/sna"
	"stanoise/paper"
)

// TestEngineMatchesQQOracle is the differential test of the modal
// engine against the q×q oracle it replaced: identical production port
// sources, identical grids, every port sample within 1e-12 V. It covers
// the paper's Table 1 and Table 2 clusters and generated-design clusters
// on both technologies, and on each cluster every source mix the analysis
// flow feeds the engine — the VCCS macromodel victim with and without the
// Miller CapPort (inside a ParallelPort), the Holding superposition
// victim, a Pulse (Zolotov) victim, each aggressor's alignment probe with
// the others held, and a feasibility scenario with one aggressor quiet.
func TestEngineMatchesQQOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("characterises several clusters")
	}
	ctx := context.Background()
	cache := charlib.NewCache()
	type target struct {
		name string
		c    *core.Cluster
		dt   float64
	}
	var targets []target
	for _, tc := range []struct {
		name  string
		build func(paper.Quality) (*core.Cluster, error)
	}{{"table1", paper.Table1Cluster}, {"table2", paper.Table2Cluster}} {
		c, err := tc.build(paper.Full)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{tc.name, c, 1e-12})
	}
	for _, techName := range []string{"cmos130", "cmos090"} {
		d := sna.GenerateDesign("oracle", 4)
		d.Tech = techName
		for _, cs := range d.Clusters {
			c, err := d.BuildCluster(cs)
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, target{techName + "/" + cs.Name, c, 2e-12})
		}
	}

	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			c := tg.c
			models, err := c.BuildModels(ctx, core.ModelOptions{
				LoadCurve: charlib.LoadCurveOptions{NVin: 41, NVout: 41},
				SkipProp:  true,
				Cache:     cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.EvalOptions{Dt: tg.dt}
			if len(c.Aggressors) > 0 {
				// Compare at the aligned offsets the flow evaluates.
				if _, _, err := c.AlignPeaks(ctx, models, opts); err != nil {
					t.Fatal(err)
				}
			}
			drv, err := c.DriverAloneResponse(ctx, models, opts)
			if err != nil {
				t.Fatal(err)
			}
			mixes := map[string]func() []core.PortSource{
				"vccs": func() []core.PortSource {
					return c.PortSources(models, c.MacromodelVictim(models, opts))
				},
				"vccs_miller": func() []core.PortSource {
					return c.PortSources(models, c.MacromodelVictim(models, core.EvalOptions{Miller: true}))
				},
				"holding": func() []core.PortSource {
					return c.PortSources(models, &core.HoldingPort{G: models.HoldG, V0: models.QuietVic})
				},
				"pulse": func() []core.PortSource {
					return c.PortSources(models, &core.PulsePort{W: drv, R: 1 / models.HoldG})
				},
			}
			for i := range c.Aggressors {
				mixes[fmt.Sprintf("probe%d", i)] = func() []core.PortSource { return c.ProbeSources(models, i) }
			}
			if len(c.Aggressors) > 0 {
				mixes["scenario_quiet0"] = func() []core.PortSource {
					c.Aggressors[0].Quiet = true
					defer func() { c.Aggressors[0].Quiet = false }()
					return c.PortSources(models, c.MacromodelVictim(models, opts))
				}
			}
			eopts := core.EngineOptions{Dt: tg.dt, TStop: c.EventHorizon()}
			for name, mk := range mixes {
				got, err := core.RunEngine(ctx, models.Red, mk(), models.V0, eopts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := core.RunEngineQQ(ctx, models.Red, mk(), models.V0, eopts)
				if err != nil {
					t.Fatalf("%s oracle: %v", name, err)
				}
				if d := core.MaxPortDeviation(t, got, want); d > core.OracleTolV {
					t.Errorf("%s: modal engine deviates %g V from the q×q oracle", name, d)
				} else {
					t.Logf("%s: max deviation %.3g V", name, d)
				}
			}
		})
	}
}
