package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stanoise/internal/charlib"
	"stanoise/internal/linalg"
	"stanoise/internal/mor"
	"stanoise/internal/sim"
	"stanoise/internal/thevenin"
	"stanoise/internal/wave"
)

// PortSource is a (possibly non-linear) one-port driver attached to a port
// of the reduced interconnect macromodel. Current returns the current it
// injects into the port at time t when the port sits at absolute voltage v,
// together with ∂i/∂v for the Newton iteration.
type PortSource interface {
	Current(t, v float64) (i, didv float64)
}

// OpenPort is an unterminated observation port (receiver nodes, whose pin
// capacitance is already inside the reduced network).
type OpenPort struct{}

// Current implements PortSource with zero current.
func (OpenPort) Current(t, v float64) (float64, float64) { return 0, 0 }

// TheveninPort drives a port through a fitted aggressor model:
// i = (V_TH(t) − v)/R_TH.
type TheveninPort struct {
	W   *wave.Waveform
	RTh float64
}

// NewTheveninPort builds the port source from a fitted driver.
func NewTheveninPort(d *thevenin.Driver) *TheveninPort {
	return &TheveninPort{W: d.Waveform(), RTh: d.RTh}
}

// Current implements PortSource.
func (p *TheveninPort) Current(t, v float64) (float64, float64) {
	return (p.W.At(t) - v) / p.RTh, -1 / p.RTh
}

// VCCSPort is the paper's victim-driver model: the non-linear DC table
// I_DC = f(V_in(t), V_out) of eq. (1), with the known input-noise waveform
// driving the first argument.
type VCCSPort struct {
	LC  *charlib.LoadCurve
	Vin *wave.Waveform
}

// Current implements PortSource.
func (p *VCCSPort) Current(t, v float64) (float64, float64) {
	i, _, didv := p.LC.Eval(p.Vin.At(t), v)
	return i, didv
}

// HoldingPort is the traditional linear victim model: a holding
// conductance anchored at the quiet level. It ignores the input glitch —
// propagated noise is added separately by table lookup in the
// superposition flow.
type HoldingPort struct {
	G  float64
	V0 float64
}

// Current implements PortSource.
func (p *HoldingPort) Current(t, v float64) (float64, float64) {
	return -p.G * (v - p.V0), -p.G
}

// PulsePort is the Zolotov-style victim model (paper ref [4]): a pulsed
// voltage source behind the holding resistance. The pulse waveform is the
// driver's response to the input glitch alone; iteration refines it.
type PulsePort struct {
	W *wave.Waveform
	R float64
}

// Current implements PortSource.
func (p *PulsePort) Current(t, v float64) (float64, float64) {
	return (p.W.At(t) - v) / p.R, -1 / p.R
}

// DynamicPort is an optional extension of PortSource for elements with
// internal state (capacitive companions). Init is called once before the
// run with the step size and quiet port voltage; Commit is called exactly
// once per accepted timestep with the solved port voltage.
type DynamicPort interface {
	PortSource
	Init(h, t0, v0 float64)
	Commit(t, v float64)
}

// CapPort is a capacitor between a known voltage waveform and the port —
// the Miller feedthrough element of the extended macromodel. It uses a
// trapezoidal companion model, consistent with the engine's integrator.
type CapPort struct {
	C float64
	W *wave.Waveform

	h     float64
	dPrev float64 // previous branch voltage w−v
	iPrev float64 // previous branch current
}

// Init implements DynamicPort.
func (p *CapPort) Init(h, t0, v0 float64) {
	p.h = h
	p.dPrev = p.W.At(t0) - v0
	p.iPrev = 0
}

// Current implements PortSource: the trapezoidal companion current of the
// capacitor, injected into the port.
func (p *CapPort) Current(t, v float64) (float64, float64) {
	g := 2 * p.C / p.h
	d := p.W.At(t) - v
	return g*(d-p.dPrev) - p.iPrev, -g
}

// Commit implements DynamicPort.
func (p *CapPort) Commit(t, v float64) {
	i, _ := p.Current(t, v)
	p.dPrev = p.W.At(t) - v
	p.iPrev = i
}

// ParallelPort combines several sources at one port.
type ParallelPort []PortSource

// Current implements PortSource by summation.
func (pp ParallelPort) Current(t, v float64) (float64, float64) {
	var i, g float64
	for _, s := range pp {
		si, sg := s.Current(t, v)
		i += si
		g += sg
	}
	return i, g
}

// Init implements DynamicPort by forwarding.
func (pp ParallelPort) Init(h, t0, v0 float64) {
	for _, s := range pp {
		if d, ok := s.(DynamicPort); ok {
			d.Init(h, t0, v0)
		}
	}
}

// Commit implements DynamicPort by forwarding.
func (pp ParallelPort) Commit(t, v float64) {
	for _, s := range pp {
		if d, ok := s.(DynamicPort); ok {
			d.Commit(t, v)
		}
	}
}

// EngineOptions tunes the dedicated macromodel engine.
type EngineOptions struct {
	Dt        float64 // timestep (s); default 1 ps
	TStop     float64 // end time (s); required
	MaxNewton int     // default 60
	Tol       float64 // Newton update tolerance on the port voltages (V); default 1e-9
}

// maxEngineSteps bounds the time grid of one run so that a pathological
// TStop/Dt ratio is reported as an option error instead of exhausting
// memory: 1e7 steps is 10 µs at 1 ps, far beyond any noise event.
const maxEngineSteps = 1e7

// ErrInvalidOptions is the sentinel wrapped by every *OptionsError, so
// callers can test the class with errors.Is without matching fields.
var ErrInvalidOptions = errors.New("core: invalid engine options")

// OptionsError reports an engine option the macromodel engine cannot run
// with: a NaN or infinite Dt, TStop or Tol, a missing TStop, or a step so
// small that the time grid would exceed its bound. It unwraps to
// ErrInvalidOptions.
type OptionsError struct {
	Field  string  // "Dt", "TStop" or "Tol"
	Value  float64 // the offending value
	Reason string  // what the value must satisfy
}

// Error implements error.
func (e *OptionsError) Error() string {
	return fmt.Sprintf("core: invalid engine option %s = %g (%s)", e.Field, e.Value, e.Reason)
}

// Unwrap ties the typed error to the ErrInvalidOptions sentinel.
func (e *OptionsError) Unwrap() error { return ErrInvalidOptions }

func (o EngineOptions) normalize() (EngineOptions, error) {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"Dt", o.Dt}, {"TStop", o.TStop}, {"Tol", o.Tol}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return o, &OptionsError{Field: f.name, Value: f.v, Reason: "must be finite"}
		}
	}
	if o.Dt <= 0 {
		o.Dt = 1e-12
	}
	if o.TStop <= 0 {
		return o, &OptionsError{Field: "TStop", Value: o.TStop, Reason: "the engine requires a positive TStop"}
	}
	if o.TStop/o.Dt > maxEngineSteps {
		return o, &OptionsError{Field: "Dt", Value: o.Dt, Reason: fmt.Sprintf("TStop/Dt exceeds %g steps", maxEngineSteps)}
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 60
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o, nil
}

// EngineResult holds the port voltage waveforms of a macromodel run.
type EngineResult struct {
	Times []float64
	PortV [][]float64 // [port][step], absolute volts
	Ports []string
}

// Waveform returns the waveform at port index k.
func (r *EngineResult) Waveform(k int) *wave.Waveform {
	return wave.FromPoints(r.Times, r.PortV[k])
}

// RunEngine solves the noise-cluster macromodel: the reduced interconnect
// co-simulated with one PortSource per port, by trapezoidal integration
// with Newton–Raphson at each step. The system is formulated in deviation
// variables u = v − V0 so the quiet operating point is the exact zero
// state:
//
//	Cr·ẋ + Gr·x = B·i(t, V0 + Bᵀx)
//
// The network is linear; only the p port currents are not. The engine
// therefore factors A1 = 2Cr/h + Gr once per run and precomputes
// W = A1⁻¹B (q×p) and S = BᵀW (p×p). Each trapezoidal step forms the
// history hist = A2·x + B·i_prev with A2 = 2Cr/h − Gr, back-substitutes
// z = A1⁻¹hist once, and runs Newton on the p port voltages alone,
//
//	u − Bᵀz − S·i(t, V0 + u) = 0,   Jacobian I − S·diag(∂i/∂v),
//
// until max|Δu| < Tol, then updates the state x = z + W·i(u). Per Newton
// iteration this is a p×p factorization instead of a q×q one. Samples lie
// on the exact grid t = k·Dt, k = 0..round(TStop/Dt).
//
// This is the "dedicated engine embedded into the noise analysis tool" of
// the paper's §2, and the source of its speed-up over the transistor-level
// golden: the reduced model has q≈15 states and the Newton system only as
// many unknowns as the cluster has ports. The context is checked
// periodically between timesteps so a cancelled analysis stops
// mid-transient; a nil context disables cancellation. Invalid options are
// reported as an *OptionsError.
//
// Each call allocates its own workspace, which the returned result keeps;
// cluster evaluations instead reuse the workspace of their RigPool.
func RunEngine(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions) (*EngineResult, error) {
	ws := &engineWorkspace{}
	if err := ws.run(ctx, red, sources, v0, opts); err != nil {
		return nil, err
	}
	return &EngineResult{Times: ws.times, PortV: ws.portV, Ports: append([]string(nil), red.Ports...)}, nil
}

// engineWorkspace holds every buffer of a macromodel engine run: the
// factored system matrix, the port-space precomputations W and S, the
// per-step vectors and the recorded port voltages. A run overwrites all of
// it, so one workspace serves any sequence of runs, and a run with the
// same q, p and step count as the previous one allocates nothing. The
// recorded samples (times, portV) stay valid until the next run on the
// workspace; anything handed out of an evaluation is copied from them.
//
// A workspace is not safe for concurrent use: a RigPool owns one for its
// analysis worker (see Cluster.engineWorkspace).
type engineWorkspace struct {
	a1, a2 linalg.Matrix       // q×q: 2Cr/h + Gr and 2Cr/h − Gr
	a1LU   *linalg.LUWorkspace // factorization of a1, fixed for the run
	w, s   []float64           // A1⁻¹B (q×p) and BᵀA1⁻¹B (p×p), row-major
	jac    linalg.Matrix       // p×p Newton Jacobian I − S·diag(∂i/∂v)
	jacLU  *linalg.LUWorkspace

	x, hist, z, col                 []float64 // q
	u, uz, g, du, icur, didv, iPrev []float64 // p

	times []float64   // recorded sample times
	portV [][]float64 // [port][step], absolute volts; rows of vbuf
	vbuf  []float64
}

// run integrates one engine transient into the workspace buffers; see
// RunEngine for the formulation.
func (ws *engineWorkspace) run(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.normalize()
	if err != nil {
		return err
	}
	p := len(red.Ports)
	if len(sources) != p || len(v0) != p {
		return fmt.Errorf("core: engine needs %d sources and v0 entries, got %d/%d",
			p, len(sources), len(v0))
	}
	sim.CountEngineRun()
	q, h := red.Q, opts.Dt
	// The legacy t += h loop stopped at the last step within TStop + h/2;
	// rounding the ratio keeps that step count exact at any TStop/Dt.
	nsteps := int(math.Floor(opts.TStop/h + 0.5))
	if err := ws.setup(red, h, nsteps); err != nil {
		return err
	}
	b, w, s := red.B.Data, ws.w, ws.s
	x, hist, z := ws.x, ws.hist, ws.z
	u, uz, g, du, icur, didv, iPrev := ws.u, ws.uz, ws.g, ws.du, ws.icur, ws.didv, ws.iPrev

	// Quiet point: zero state, initial port currents.
	clear(x)
	clear(u)
	for k, src := range sources {
		if d, ok := src.(DynamicPort); ok {
			d.Init(h, 0, v0[k])
		}
		iPrev[k], _ = src.Current(0, v0[k])
	}
	ws.record(0, 0, v0)

	for step := 1; step <= nsteps; step++ {
		if step&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t := float64(step) * h
		// hist = A2·x + B·i_prev; z = A1⁻¹hist; u_z = Bᵀz.
		ws.a2.MulVecInto(hist, x)
		for r := 0; r < q; r++ {
			acc := 0.0
			for k, bv := range b[r*p : (r+1)*p] {
				acc += bv * iPrev[k]
			}
			hist[r] += acc
		}
		ws.a1LU.SolveInto(z, hist)
		for k := 0; k < p; k++ {
			acc := 0.0
			for r := 0; r < q; r++ {
				acc += b[r*p+k] * z[r]
			}
			uz[k] = acc
		}
		// Newton on G(u) = u − u_z − S·i(t, V0+u), seeded with the
		// previous step's port voltages.
		converged := false
		for it := 0; it < opts.MaxNewton; it++ {
			for k, src := range sources {
				icur[k], didv[k] = src.Current(t, v0[k]+u[k])
			}
			for a := 0; a < p; a++ {
				jrow := ws.jac.Data[a*p : (a+1)*p]
				acc := 0.0
				for c, sv := range s[a*p : (a+1)*p] {
					acc += sv * icur[c]
					jrow[c] = -sv * didv[c]
				}
				jrow[a] += 1
				g[a] = u[a] - uz[a] - acc
			}
			if err := ws.jacLU.Factor(&ws.jac); err != nil {
				return fmt.Errorf("core: singular macromodel Jacobian at t=%.3gps: %w", t*1e12, err)
			}
			ws.jacLU.SolveInto(du, g)
			maxd := 0.0
			for k := range u {
				u[k] -= du[k]
				if d := math.Abs(du[k]); d > maxd {
					maxd = d
				}
			}
			if maxd < opts.Tol {
				converged = true
				break
			}
		}
		if !converged {
			return fmt.Errorf("core: macromodel Newton did not converge at t=%.3gps", t*1e12)
		}
		// Accept: the port currents at the solved voltages feed both the
		// state update x = z + W·i and the next step's trapezoidal
		// history; stateful sources advance their companions.
		for k, src := range sources {
			iPrev[k], _ = src.Current(t, v0[k]+u[k])
			if d, ok := src.(DynamicPort); ok {
				d.Commit(t, v0[k]+u[k])
			}
		}
		for r := 0; r < q; r++ {
			acc := z[r]
			for k, wv := range w[r*p : (r+1)*p] {
				acc += wv * iPrev[k]
			}
			x[r] = acc
		}
		ws.record(step, t, v0)
	}
	return nil
}

// runModels runs the engine on a cluster's reduced model, quiet levels and
// evaluation step and horizon, with the given port sources.
func (ws *engineWorkspace) runModels(ctx context.Context, models *Models, sources []PortSource, opts EvalOptions) error {
	return ws.run(ctx, models.Red, sources, models.V0, EngineOptions{Dt: opts.Dt, TStop: opts.TStop})
}

// setup sizes the workspace for a run of red at step h with nsteps steps,
// forms and factors the trapezoidal system matrices, and precomputes the
// port-space operators W = A1⁻¹B and S = BᵀW.
func (ws *engineWorkspace) setup(red *mor.Reduced, h float64, nsteps int) error {
	q, p := red.Q, len(red.Ports)
	reshape(&ws.a1, q, q)
	reshape(&ws.a2, q, q)
	reshape(&ws.jac, p, p)
	twoOverH := 2 / h
	for i, cv := range red.Cr.Data {
		cv *= twoOverH
		ws.a1.Data[i] = cv + red.Gr.Data[i]
		ws.a2.Data[i] = cv - red.Gr.Data[i]
	}
	ws.a1LU = sizedLU(ws.a1LU, q)
	ws.jacLU = sizedLU(ws.jacLU, p)
	if err := ws.a1LU.Factor(&ws.a1); err != nil {
		return fmt.Errorf("core: singular macromodel system matrix: %w", err)
	}
	for _, v := range []*[]float64{&ws.x, &ws.hist, &ws.z, &ws.col} {
		*v = grow(*v, q)
	}
	for _, v := range []*[]float64{&ws.u, &ws.uz, &ws.g, &ws.du, &ws.icur, &ws.didv, &ws.iPrev} {
		*v = grow(*v, p)
	}
	ws.w = grow(ws.w, q*p)
	ws.s = grow(ws.s, p*p)
	b := red.B.Data
	for k := 0; k < p; k++ {
		for r := 0; r < q; r++ {
			ws.col[r] = b[r*p+k]
		}
		ws.a1LU.SolveInto(ws.z, ws.col)
		for r := 0; r < q; r++ {
			ws.w[r*p+k] = ws.z[r]
		}
	}
	for a := 0; a < p; a++ {
		for c := 0; c < p; c++ {
			acc := 0.0
			for r := 0; r < q; r++ {
				acc += b[r*p+a] * ws.w[r*p+c]
			}
			ws.s[a*p+c] = acc
		}
	}

	n := nsteps + 1
	ws.times = grow(ws.times, n)
	ws.vbuf = grow(ws.vbuf, p*n)
	if cap(ws.portV) < p {
		ws.portV = make([][]float64, p)
	}
	ws.portV = ws.portV[:p]
	for k := range ws.portV {
		ws.portV[k] = ws.vbuf[k*n : (k+1)*n : (k+1)*n]
	}
	return nil
}

// record stores sample step at time t: the absolute port voltages V0 + u.
func (ws *engineWorkspace) record(step int, t float64, v0 []float64) {
	ws.times[step] = t
	for k, row := range ws.portV {
		row[step] = v0[k] + ws.u[k]
	}
}

// view returns the recorded waveform at port k without copying; it is
// valid only until the next run on the workspace.
func (ws *engineWorkspace) view(k int) wave.Waveform {
	return wave.Waveform{T: ws.times, V: ws.portV[k]}
}

// measure returns the glitch metrics of port k measured in place.
func (ws *engineWorkspace) measure(k int, quiet float64) wave.NoiseMetrics {
	v := ws.view(k)
	return wave.MeasureNoise(&v, quiet)
}

// waveform returns an owned copy of the recorded waveform at port k.
func (ws *engineWorkspace) waveform(k int) *wave.Waveform {
	return wave.FromPoints(ws.times, ws.portV[k])
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// reshape resizes m to r×c in place, reusing its backing array when it is
// large enough. The contents are unspecified.
func reshape(m *linalg.Matrix, r, c int) {
	m.Rows, m.Cols = r, c
	m.Data = grow(m.Data, r*c)
}

// sizedLU returns lu when it factors n×n systems, or a new workspace.
func sizedLU(lu *linalg.LUWorkspace, n int) *linalg.LUWorkspace {
	if lu == nil || lu.Size() != n {
		return linalg.NewLUWorkspace(n)
	}
	return lu
}
