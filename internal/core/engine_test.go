package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"stanoise/internal/circuit"
	"stanoise/internal/linalg"
	"stanoise/internal/mor"
	"stanoise/internal/sim"
	"stanoise/internal/wave"
)

// reducedLadder builds a reduced model of a simple RC ladder with a port at
// the near end.
func reducedLadder(t *testing.T, n int, rSeg, cSeg float64) *mor.Reduced {
	t.Helper()
	nodes := make([]string, n+1)
	for i := range nodes {
		nodes[i] = "n" + string(rune('a'+i))
	}
	net := mor.NewNetwork(nodes)
	for i := 0; i < n; i++ {
		net.AddR(nodes[i], nodes[i+1], rSeg)
	}
	for i := 0; i <= n; i++ {
		net.AddC(nodes[i], "0", cSeg)
	}
	red, err := mor.Reduce(net, []string{nodes[0], nodes[n]}, mor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return red
}

func TestEngineTheveninStep(t *testing.T) {
	// Thevenin ramp into a reduced RC ladder: the far end must settle to
	// the source's final value.
	red := reducedLadder(t, 8, 50, 10e-15)
	srcs := []PortSource{
		&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12, 80e-12), RTh: 300},
		OpenPort{},
	}
	v0 := []float64{1.2, 1.2}
	res, err := RunEngine(context.Background(), red, srcs, v0, EngineOptions{Dt: 1e-12, TStop: 3e-9})
	if err != nil {
		t.Fatal(err)
	}
	far := res.Waveform(1)
	if got := far.At(0); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("initial far = %v", got)
	}
	if got := far.At(3e-9); math.Abs(got-0) > 0.01 {
		t.Errorf("final far = %v, want 0", got)
	}
}

// The decisive correctness test: a fully linear cluster evaluated by the
// reduced-order engine must match the full transistor-free circuit solved
// by the general simulator.
func TestEngineMatchesFullLinearSimulation(t *testing.T) {
	// Two coupled 10-segment lines; victim held by a resistor, aggressor
	// driven by a Thevenin ramp.
	const (
		nseg = 10
		rSeg = 5.0
		cSeg = 3e-15
		cc   = 6e-15
		rth  = 400.0
		hold = 1500.0
	)
	name := func(l string, j int) string { return l + "_" + string(rune('a'+j)) }
	var nodes []string
	for _, l := range []string{"v", "a"} {
		for j := 0; j <= nseg; j++ {
			nodes = append(nodes, name(l, j))
		}
	}
	net := mor.NewNetwork(nodes)
	ckt := circuit.New()
	vth := wave.SaturatedRamp(1.2, 0, 150e-12, 70e-12)
	for _, l := range []string{"v", "a"} {
		for j := 0; j < nseg; j++ {
			net.AddR(name(l, j), name(l, j+1), rSeg)
			ckt.AddR("r"+name(l, j), name(l, j), name(l, j+1), rSeg)
		}
		for j := 0; j <= nseg; j++ {
			net.AddC(name(l, j), "0", cSeg)
			ckt.AddC("c"+name(l, j), name(l, j), "0", cSeg)
		}
	}
	for j := 0; j <= nseg; j++ {
		net.AddC(name("v", j), name("a", j), cc)
		ckt.AddC("cc"+name("v", j), name("v", j), name("a", j), cc)
	}
	// Full circuit: holding resistor to a 1.2 V rail; Thevenin source.
	ckt.AddVDC("vdd", "vdd", "0", 1.2)
	ckt.AddR("rhold", "vdd", name("v", 0), hold)
	ckt.AddV("vth", "th", "0", vth)
	ckt.AddR("rth", "th", name("a", 0), rth)

	ports := []string{name("v", 0), name("a", 0), name("v", nseg)}
	red, err := mor.Reduce(net, ports, mor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []PortSource{
		&HoldingPort{G: 1 / hold, V0: 1.2},
		&TheveninPort{W: vth, RTh: rth},
		OpenPort{},
	}
	v0 := []float64{1.2, 1.2, 1.2}
	opts := EngineOptions{Dt: 1e-12, TStop: 2e-9}
	engRes, err := RunEngine(context.Background(), red, srcs, v0, opts)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Transient(context.Background(), ckt, sim.Options{Dt: 1e-12, TStop: 2e-9})
	if err != nil {
		t.Fatal(err)
	}
	for pi, node := range []string{name("v", 0), name("a", 0), name("v", nseg)} {
		d := wave.MaxAbsDiff(engRes.Waveform(pi), simRes.Waveform(node))
		if d > 0.015 {
			t.Errorf("port %s: engine deviates %v V from full simulation", node, d)
		}
	}
}

func TestEngineSourceCountMismatch(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	_, err := RunEngine(context.Background(), red, []PortSource{OpenPort{}}, []float64{0, 0}, EngineOptions{TStop: 1e-9})
	if err == nil {
		t.Error("source count mismatch accepted")
	}
}

func TestEngineRequiresTStop(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	_, err := RunEngine(context.Background(), red, []PortSource{OpenPort{}, OpenPort{}}, []float64{0, 0}, EngineOptions{})
	if err == nil {
		t.Error("missing TStop accepted")
	}
}

// TestEngineRejectsNonFiniteOptions pins the typed option errors: a NaN or
// infinite Dt/TStop used to reach make() as a negative or overflowing
// capacity and panic.
func TestEngineRejectsNonFiniteOptions(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	srcs := []PortSource{OpenPort{}, OpenPort{}}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		opts  EngineOptions
		field string
	}{
		{"nan_dt", EngineOptions{Dt: nan, TStop: 1e-9}, "Dt"},
		{"inf_dt", EngineOptions{Dt: inf, TStop: 1e-9}, "Dt"},
		{"neg_inf_dt", EngineOptions{Dt: -inf, TStop: 1e-9}, "Dt"},
		{"nan_tstop", EngineOptions{Dt: 1e-12, TStop: nan}, "TStop"},
		{"inf_tstop", EngineOptions{Dt: 1e-12, TStop: inf}, "TStop"},
		{"missing_tstop", EngineOptions{Dt: 1e-12}, "TStop"},
		{"nan_tol", EngineOptions{TStop: 1e-9, Tol: nan}, "Tol"},
		{"tiny_dt", EngineOptions{Dt: 1e-300, TStop: 1e-9}, "Dt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunEngine(context.Background(), red, srcs, []float64{0, 0}, tc.opts)
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("err = %v, want ErrInvalidOptions", err)
			}
			var oe *OptionsError
			if !errors.As(err, &oe) || oe.Field != tc.field {
				t.Fatalf("err = %#v, want *OptionsError on %s", err, tc.field)
			}
		})
	}
}

// TestEngineStepCountExact mirrors sim's TestTransientStepCountExact: the
// engine samples the exact grid t = k·Dt for k = 0..round(TStop/Dt), also
// at a step (0.1 ps) that binary floating point cannot represent, where
// an accumulating t += Dt drifts off the grid and miscounts.
func TestEngineStepCountExact(t *testing.T) {
	red := reducedLadder(t, 4, 10, 1e-15)
	srcs := []PortSource{&TheveninPort{W: wave.SaturatedRamp(0, 1, 10e-12, 40e-12), RTh: 500}, OpenPort{}}
	cases := []struct {
		name      string
		dt, tstop float64
		want      int // recorded points, t = 0 included
	}{
		{"exact_multiple", 1e-12, 1e-9, 1001},
		{"unrepresentable_step", 0.1e-12, 20e-9, 200001},
		{"odd_ratio", 2e-12, 777.7e-12, 390},  // 777.7/2 = 388.85 → 389 steps
		{"sub_half_step", 1e-12, 0.4e-12, 1},  // below Dt/2: quiet point only
		{"near_half_step", 1e-12, 0.6e-12, 2}, // above Dt/2: one step
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunEngine(context.Background(), red, srcs, []float64{0, 0}, EngineOptions{Dt: tc.dt, TStop: tc.tstop})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Times) != tc.want || len(res.PortV[1]) != tc.want {
				t.Fatalf("recorded %d/%d points, want %d", len(res.Times), len(res.PortV[1]), tc.want)
			}
			for k, tm := range res.Times {
				if want := float64(k) * tc.dt; tm != want {
					t.Fatalf("step %d at t=%g, want exactly %g", k, tm, want)
				}
			}
		})
	}
}

// TestEngineWorkspaceProbeAllocFree pins the pooled alignment probe: a
// warm workspace re-running an alignment timing run and measuring the
// victim peak in place allocates nothing, for the linear probe and for the
// nonlinear VCCS victim with its Miller companion.
func TestEngineWorkspaceProbeAllocFree(t *testing.T) {
	c := fastCluster(t, 2)
	models, err := c.BuildModels(context.Background(), fastModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := fastEvalOptions().normalize(c)
	probes := map[string][]PortSource{
		"linear_probe": c.probeSources(models, 0),
		"vccs_miller":  c.portSources(models, c.macromodelVictim(models, EvalOptions{Miller: true})),
	}
	for name, srcs := range probes {
		t.Run(name, func(t *testing.T) {
			ws := &engineWorkspace{}
			probe := func() {
				if err := ws.runModels(context.Background(), models, srcs, opts); err != nil {
					t.Fatal(err)
				}
				if ws.measure(models.VicPort, models.QuietVic).Peak == 0 {
					t.Fatal("probe measured no noise")
				}
			}
			probe() // size the workspace
			if allocs := testing.AllocsPerRun(10, probe); allocs != 0 {
				t.Fatalf("warm probe allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}

// TestEngineMatchesOracleOnLadder is the smallest differential check of
// the modal engine against the q×q oracle: an RC ladder with a
// Thevenin ramp, a holding victim and a Miller-style CapPort inside a
// ParallelPort.
func TestEngineMatchesOracleOnLadder(t *testing.T) {
	red := reducedLadder(t, 8, 50, 10e-15)
	mk := func() []PortSource {
		return []PortSource{
			ParallelPort{&HoldingPort{G: 1e-3, V0: 1.2}, &CapPort{C: 2e-15, W: wave.Triangle(0, 1.2, 100e-12, 200e-12)}},
			&TheveninPort{W: wave.SaturatedRamp(1.2, 0, 100e-12, 80e-12), RTh: 300},
		}
	}
	v0 := []float64{1.2, 1.2}
	opts := EngineOptions{Dt: 1e-12, TStop: 1e-9}
	got, err := RunEngine(context.Background(), red, mk(), v0, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runEngineQQ(context.Background(), red, mk(), v0, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := maxPortDeviation(t, got, want)
	if d > oracleTolV {
		t.Fatalf("modal engine deviates %g V from the q×q oracle", d)
	}
	t.Logf("max deviation %.3g V", d)
}

// TestEngineRejectsNonSymmetricDefinite pins the engine's input
// contract: the modal decomposition needs Gr and Cr exactly symmetric and
// A1 = 2Cr/h + Gr positive definite, and the engine reports a model that
// breaks either as a typed error instead of symmetrizing or diverging.
func TestEngineRejectsNonSymmetricDefinite(t *testing.T) {
	mat := func(d ...float64) *linalg.Matrix { return &linalg.Matrix{Rows: 2, Cols: 2, Data: d} }
	cr := mat(1e-15, 0, 0, 1e-15)
	b := mat(1, 0, 0, 1)
	cases := []struct {
		name string
		red  *mor.Reduced
		want error
	}{
		{"nonsymmetric_Gr", &mor.Reduced{Gr: mat(1e-3, -1e-3, -1.001e-3, 1e-3), Cr: cr, B: b, Q: 2}, linalg.ErrNotSymmetric},
		{"nonsymmetric_Cr", &mor.Reduced{Gr: mat(1e-3, 0, 0, 1e-3), Cr: mat(1e-15, 1e-16, 0, 1e-15), B: b, Q: 2}, linalg.ErrNotSymmetric},
		// 2Cr/h = 2 mS at 1 ps: a −1 S conductance makes A1 indefinite.
		{"indefinite_A1", &mor.Reduced{Gr: mat(-1, 0, 0, 1e-3), Cr: cr, B: b, Q: 2}, linalg.ErrNotPositiveDefinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.red.Ports = []string{"a", "b"}
			_, err := RunEngine(context.Background(), tc.red, []PortSource{OpenPort{}, OpenPort{}}, []float64{0, 0},
				EngineOptions{Dt: 1e-12, TStop: 10e-12})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestEngineWorkspaceMemoKeyed pins the decomposition memo: one workspace
// alternating between models and steps reproduces a fresh RunEngine
// bit for bit on every run, so a memoized decomposition is only reused
// for its own (model, step) pair.
func TestEngineWorkspaceMemoKeyed(t *testing.T) {
	redA := reducedLadder(t, 8, 50, 10e-15)
	redB := reducedLadder(t, 5, 80, 6e-15)
	mk := func() []PortSource {
		return []PortSource{
			&TheveninPort{W: wave.SaturatedRamp(0, 1.2, 50e-12, 60e-12), RTh: 400},
			&HoldingPort{G: 1e-3, V0: 0},
		}
	}
	ws := &engineWorkspace{}
	for i, run := range []struct {
		red *mor.Reduced
		dt  float64
	}{{redA, 1e-12}, {redA, 1e-12}, {redB, 1e-12}, {redA, 2e-12}, {redA, 1e-12}} {
		opts := EngineOptions{Dt: run.dt, TStop: 500e-12}
		if err := ws.run(context.Background(), run.red, mk(), []float64{0, 0}, opts); err != nil {
			t.Fatal(err)
		}
		want, err := RunEngine(context.Background(), run.red, mk(), []float64{0, 0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.PortV {
			for j, v := range want.PortV[k] {
				if ws.portV[k][j] != v {
					t.Fatalf("run %d port %d sample %d: workspace %v, fresh %v", i, k, j, ws.portV[k][j], v)
				}
			}
		}
		// −A1 ⪯ A2 ⪯ A1 bounds the modal eigenvalues: the recurrence
		// is stable.
		for r, m := range ws.mu {
			if math.Abs(m) > 1+1e-12 {
				t.Fatalf("run %d: |μ[%d]| = %g > 1", i, r, math.Abs(m))
			}
		}
	}
}

// oracleTolV is the agreement the modal engine must keep with the
// q×q oracle on every port sample.
const oracleTolV = 1e-12

// maxPortDeviation returns the largest |got − want| over every port and
// sample, failing the test when the time grids differ.
func maxPortDeviation(t *testing.T, got, want *EngineResult) float64 {
	t.Helper()
	if len(got.Times) != len(want.Times) || len(got.PortV) != len(want.PortV) {
		t.Fatalf("grid mismatch: %d×%d vs %d×%d", len(got.PortV), len(got.Times), len(want.PortV), len(want.Times))
	}
	for i := range got.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("sample %d at t=%g, oracle at %g", i, got.Times[i], want.Times[i])
		}
	}
	worst := 0.0
	for k := range got.PortV {
		for i, v := range got.PortV[k] {
			worst = math.Max(worst, math.Abs(v-want.PortV[k][i]))
		}
	}
	return worst
}

func TestHoldingPortRestores(t *testing.T) {
	p := &HoldingPort{G: 1e-3, V0: 1.2}
	i, g := p.Current(0, 1.0) // output drooped 0.2 V below quiet
	if math.Abs(i-0.2e-3) > 1e-12 {
		t.Errorf("restoring current = %v", i)
	}
	if g != -1e-3 {
		t.Errorf("conductance = %v", g)
	}
}

func TestOpenPort(t *testing.T) {
	i, g := OpenPort{}.Current(1e-9, 0.7)
	if i != 0 || g != 0 {
		t.Error("OpenPort leaks current")
	}
}

func TestParallelPortSums(t *testing.T) {
	p := ParallelPort{
		&HoldingPort{G: 1e-3, V0: 1.0},
		&HoldingPort{G: 2e-3, V0: 1.0},
	}
	i, g := p.Current(0, 0.9)
	if math.Abs(i-0.3e-3) > 1e-12 || math.Abs(g+3e-3) > 1e-12 {
		t.Errorf("parallel sum wrong: %v %v", i, g)
	}
}

func TestCapPortDifferentiates(t *testing.T) {
	// A CapPort between a ramping waveform and a fixed port voltage must
	// deliver i ≈ C·dV/dt mid-ramp.
	const (
		c    = 10e-15
		rate = 1.2 / 100e-12 // V/s
		h    = 1e-12
	)
	p := &CapPort{C: c, W: wave.SaturatedRamp(0, 1.2, 50e-12, 100e-12)}
	p.Init(h, 0, 0)
	want := c * rate
	// Trapezoidal companions ring at PWL corners; the integrator consumes
	// the average of consecutive step currents, which must equal C·dV/dt
	// exactly during the ramp.
	var prev, cur float64
	for t0 := h; t0 <= 100e-12; t0 += h {
		prev = cur
		cur, _ = p.Current(t0, 0)
		p.Commit(t0, 0)
	}
	if avg := 0.5 * (prev + cur); math.Abs(avg-want) > 0.02*want {
		t.Errorf("mid-ramp average cap current = %v, want %v", avg, want)
	}
	// And zero once the ramp completes and the history settles.
	for t0 := 101e-12; t0 <= 400e-12; t0 += h {
		prev = cur
		cur, _ = p.Current(t0, 0)
		p.Commit(t0, 0)
	}
	if avg := 0.5 * (prev + cur); math.Abs(avg) > 0.01*want {
		t.Errorf("post-ramp average cap current = %v, want ~0", avg)
	}
}

// runEngineQQ is the full-state engine RunEngine replaced, kept as the
// oracle of the differential tests: Newton on all q reduced states,
// assembling and factoring the q×q Jacobian A1 − B·diag(∂i/∂v)·Bᵀ on
// every iteration, converging on max|Δx|. It shares RunEngine's exact
// time grid t = k·Dt, so the two differ only in how each step's nonlinear
// system is solved.
func runEngineQQ(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions) (*EngineResult, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	p := len(red.Ports)
	if len(sources) != p || len(v0) != p {
		return nil, fmt.Errorf("core: engine needs %d sources and v0 entries, got %d/%d",
			p, len(sources), len(v0))
	}
	q := red.Q
	h := opts.Dt

	// Constant matrices for trapezoidal integration:
	// A1 = 2Cr/h + Gr (system), A2 = 2Cr/h − Gr (history).
	a1 := red.Cr.Clone()
	a1.Scale(2 / h)
	a1.AddScaled(1, red.Gr)
	a2 := red.Cr.Clone()
	a2.Scale(2 / h)
	a2.AddScaled(-1, red.Gr)

	x := make([]float64, q)
	xPrev := make([]float64, q)
	iPrev := make([]float64, p)
	icur := make([]float64, p)
	didv := make([]float64, p)
	f := make([]float64, q)
	hist := make([]float64, q)
	dx := make([]float64, q)
	jac := linalg.NewMatrix(q, q)
	lu := linalg.NewLUWorkspace(q)

	nsteps := int(math.Floor(opts.TStop/h + 0.5))
	res := &EngineResult{
		Times: make([]float64, 0, nsteps+1),
		PortV: make([][]float64, p),
		Ports: append([]string(nil), red.Ports...),
	}
	for k := range res.PortV {
		res.PortV[k] = make([]float64, 0, nsteps+1)
	}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		v := red.PortVoltages(x)
		for k := 0; k < p; k++ {
			res.PortV[k] = append(res.PortV[k], v0[k]+v[k])
		}
	}

	for k, s := range sources {
		if d, ok := s.(DynamicPort); ok {
			d.Init(h, 0, v0[k])
		}
		iPrev[k], _ = s.Current(0, v0[k])
	}
	record(0)

	for step := 1; step <= nsteps; step++ {
		if step&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t := float64(step) * h
		// hist = A2·x_prev + B·i_prev
		copy(xPrev, x)
		a2.MulVecInto(hist, xPrev)
		for r := 0; r < q; r++ {
			s := 0.0
			for k := 0; k < p; k++ {
				s += red.B.At(r, k) * iPrev[k]
			}
			hist[r] += s
		}
		// Newton on F(x) = A1·x − hist − B·i(t, V0+Bᵀx).
		converged := false
		for it := 0; it < opts.MaxNewton; it++ {
			u := red.PortVoltages(x)
			for k, s := range sources {
				icur[k], didv[k] = s.Current(t, v0[k]+u[k])
			}
			a1.MulVecInto(f, x)
			for r := 0; r < q; r++ {
				s := 0.0
				for k := 0; k < p; k++ {
					s += red.B.At(r, k) * icur[k]
				}
				f[r] -= hist[r] + s
			}
			jac.CopyFrom(a1)
			for r := 0; r < q; r++ {
				for cc := 0; cc < q; cc++ {
					s := 0.0
					for k := 0; k < p; k++ {
						s += red.B.At(r, k) * didv[k] * red.B.At(cc, k)
					}
					jac.Add(r, cc, -s)
				}
			}
			if err := lu.Factor(jac); err != nil {
				return nil, fmt.Errorf("core: singular macromodel Jacobian at t=%.3gps: %w", t*1e12, err)
			}
			lu.SolveInto(dx, f)
			maxd := 0.0
			for r := 0; r < q; r++ {
				x[r] -= dx[r]
				if a := math.Abs(dx[r]); a > maxd {
					maxd = a
				}
			}
			if maxd < opts.Tol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("core: macromodel Newton did not converge at t=%.3gps", t*1e12)
		}
		u := red.PortVoltages(x)
		for k, s := range sources {
			iPrev[k], _ = s.Current(t, v0[k]+u[k])
			if d, ok := s.(DynamicPort); ok {
				d.Commit(t, v0[k]+u[k])
			}
		}
		record(t)
	}
	return res, nil
}
