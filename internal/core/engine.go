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
// The trapezoidal rule at step h turns this into the recurrence
//
//	A1·x⁺ = A2·x + B·(i + i⁺),   A1 = 2Cr/h + Gr,   A2 = 2Cr/h − Gr.
//
// The network is linear and only the p port currents are not, so the
// engine integrates it in the eigen-basis of the pencil (A2, A1). Gr and
// Cr are congruence projections XᵀGX and XᵀCX of a passive RC network:
// symmetric, with Cr positive definite and Gr positive semidefinite.
// A1 is therefore symmetric positive definite and A2 symmetric, and the
// pencil has a real A1-orthonormal eigenbasis. With the Cholesky factor
// A1 = L·Lᵀ and the symmetric eigen-decomposition
// L⁻¹·A2·L⁻ᵀ = V·diag(μ)·Vᵀ, the basis Φ = L⁻ᵀ·V satisfies
//
//	Φᵀ·A1·Φ = I,   Φᵀ·A2·Φ = diag(μ),
//
// and −A1 ⪯ A2 ⪯ A1 (their sum is 4Cr/h ⪰ 0, their difference 2Gr ⪰ 0)
// bounds every |μ| by 1: the modal recurrence is stable. In the modal
// state x = Φ·y, with B̃ = Φᵀ·B (q×p) and S = B̃ᵀ·B̃ = Bᵀ·A1⁻¹·B (p×p), a
// step is
//
//	z = μ⊙y + B̃·i,   u_z = B̃ᵀ·z,
//	u − u_z − S·i(t, V0 + u) = 0   (Newton, Jacobian I − S·diag(∂i/∂v)),
//	y⁺ = z + B̃·i(t, V0 + u),
//
// iterated until max|Δu| < Tol. A step costs q + 3·q·p multiply-adds
// around a p×p Newton solve; no q×q matrix is touched after the
// decomposition, which depends only on the model and h. Samples lie on
// the exact grid t = k·Dt, k = 0..round(TStop/Dt).
//
// This is the "dedicated engine embedded into the noise analysis tool" of
// the paper's §2, and the source of its speed-up over the transistor-level
// golden: the reduced model has q≈15 states and the Newton system only as
// many unknowns as the cluster has ports. The context is checked
// periodically between timesteps so a cancelled analysis stops
// mid-transient; a nil context disables cancellation. Invalid options are
// reported as an *OptionsError. A model whose Gr or Cr is not exactly
// symmetric, or whose A1 is not positive definite, is reported as an
// error wrapping linalg.ErrNotSymmetric or linalg.ErrNotPositiveDefinite;
// the engine never symmetrizes its input.
//
// Each call allocates its own workspace, which the returned result keeps;
// cluster evaluations instead reuse the workspace of their RigPool, which
// also keeps the decomposition across runs of the same model and step.
func RunEngine(ctx context.Context, red *mor.Reduced, sources []PortSource, v0 []float64, opts EngineOptions) (*EngineResult, error) {
	ws := &engineWorkspace{}
	if err := ws.run(ctx, red, sources, v0, opts); err != nil {
		return nil, err
	}
	return &EngineResult{Times: ws.times, PortV: ws.portV, Ports: append([]string(nil), red.Ports...)}, nil
}

// engineWorkspace holds every buffer of a macromodel engine run: the modal
// decomposition of the reduced model, the per-step vectors and the
// recorded port voltages. A run overwrites the per-step state, so one
// workspace serves any sequence of runs, and a run with the same q, p and
// step count as the previous one allocates nothing. The recorded samples
// (times, portV) stay valid until the next run on the workspace; anything
// handed out of an evaluation is copied from them.
//
// The decomposition is memoized for the last (model, step) pair: the
// alignment search and feasibility scenarios of one cluster run the same
// model many times and decompose it once. mor.Reduced is immutable after
// Reduce, so its pointer identifies its matrices, and the workspace's
// reference keeps the address from being reused by another model.
//
// A workspace is not safe for concurrent use: a RigPool owns one for its
// analysis worker (see Cluster.engineWorkspace).
type engineWorkspace struct {
	key     modalKey      // model and step the decomposition below belongs to
	l, m, v linalg.Matrix // q×q: Cholesky factor of A1, L⁻¹A2L⁻ᵀ diagonalized in place, its eigenvectors V
	mu      []float64     // q modal eigenvalues, |μ| ≤ 1
	bt      []float64     // B̃ = ΦᵀB, q×p column-major: port k's column is bt[k*q:(k+1)*q]
	s       []float64     // S = B̃ᵀB̃ (p×p), row-major
	jac     linalg.Matrix // p×p Newton Jacobian I − S·diag(∂i/∂v)
	jacLU   *linalg.LUWorkspace

	y, z                            []float64 // q: modal state and its history part
	u, uz, g, du, icur, didv, iPrev []float64 // p

	times []float64   // recorded sample times
	portV [][]float64 // [port][step], absolute volts; rows of vbuf
	vbuf  []float64
}

// modalKey identifies the (model, step) pair a workspace's decomposition
// was computed for.
type modalKey struct {
	red  *mor.Reduced
	h    float64
	q, p int
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
	mu, bt, s := ws.mu, ws.bt, ws.s
	y, z := ws.y, ws.z
	u, uz, g, du, icur, didv, iPrev := ws.u, ws.uz, ws.g, ws.du, ws.icur, ws.didv, ws.iPrev

	// Quiet point: zero state, initial port currents.
	clear(y)
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
		// z = μ⊙y + B̃·i_prev; u_z = B̃ᵀz.
		for r, m := range mu {
			z[r] = m * y[r]
		}
		addColumns(z, bt, iPrev)
		for k := range uz {
			acc := 0.0
			for r, bv := range bt[k*q : (k+1)*q] {
				acc += bv * z[r]
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
		// state update y = z + B̃·i and the next step's history; stateful
		// sources advance their companions.
		for k, src := range sources {
			iPrev[k], _ = src.Current(t, v0[k]+u[k])
			if d, ok := src.(DynamicPort); ok {
				d.Commit(t, v0[k]+u[k])
			}
		}
		copy(y, z)
		addColumns(y, bt, iPrev)
		ws.record(step, t, v0)
	}
	return nil
}

// addColumns adds B̃·i to dst, with B̃ stored column-major as in
// engineWorkspace.bt.
func addColumns(dst, bt, i []float64) {
	q := len(dst)
	for k, ik := range i {
		for r, bv := range bt[k*q : (k+1)*q] {
			dst[r] += bv * ik
		}
	}
}

// runModels runs the engine on a cluster's reduced model, quiet levels and
// evaluation step and horizon, with the given port sources.
func (ws *engineWorkspace) runModels(ctx context.Context, models *Models, sources []PortSource, opts EvalOptions) error {
	return ws.run(ctx, models.Red, sources, models.V0, EngineOptions{Dt: opts.Dt, TStop: opts.TStop})
}

// setup prepares the workspace for a run of red at step h with nsteps
// steps: it decomposes the model unless the memoized decomposition
// already belongs to (red, h), and sizes the recorded samples.
func (ws *engineWorkspace) setup(red *mor.Reduced, h float64, nsteps int) error {
	key := modalKey{red: red, h: h, q: red.Q, p: len(red.Ports)}
	if ws.key != key {
		ws.key = modalKey{}
		if err := ws.decompose(red, h); err != nil {
			return err
		}
		ws.key = key
	}
	p := len(red.Ports)
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

// decompose sizes the per-step buffers for red and computes its modal
// form at step h (see RunEngine): the eigenvalues μ, B̃ = ΦᵀB and
// S = B̃ᵀB̃.
func (ws *engineWorkspace) decompose(red *mor.Reduced, h float64) error {
	if !red.Gr.IsSymmetric() || !red.Cr.IsSymmetric() {
		return fmt.Errorf("core: reduced model Gr/Cr: %w", linalg.ErrNotSymmetric)
	}
	q, p := red.Q, len(red.Ports)
	reshape(&ws.l, q, q)
	reshape(&ws.m, q, q)
	reshape(&ws.v, q, q)
	reshape(&ws.jac, p, p)
	ws.jacLU = sizedLU(ws.jacLU, p)
	for _, v := range []*[]float64{&ws.mu, &ws.y, &ws.z} {
		*v = grow(*v, q)
	}
	for _, v := range []*[]float64{&ws.u, &ws.uz, &ws.g, &ws.du, &ws.icur, &ws.didv, &ws.iPrev} {
		*v = grow(*v, p)
	}
	ws.bt = grow(ws.bt, q*p)
	ws.s = grow(ws.s, p*p)

	twoOverH := 2 / h
	for i, cv := range red.Cr.Data {
		cv *= twoOverH
		ws.l.Data[i] = cv + red.Gr.Data[i]
		ws.m.Data[i] = cv - red.Gr.Data[i]
	}
	if err := linalg.Cholesky(&ws.l); err != nil {
		return fmt.Errorf("core: macromodel system matrix 2Cr/h + Gr: %w", err)
	}
	// M = L⁻¹·A2·L⁻ᵀ. A2 is symmetric, so its rows are its columns:
	// solving every row in place leaves (L⁻¹A2)ᵀ, and transposing and
	// solving again leaves Mᵀ. M is symmetric up to the rounding of the
	// two solves, which averaging with the transpose removes.
	m := ws.m.Data
	for r := 0; r < q; r++ {
		linalg.SolveLower(&ws.l, m[r*q:(r+1)*q])
	}
	for r := 0; r < q; r++ {
		for c := r + 1; c < q; c++ {
			m[r*q+c], m[c*q+r] = m[c*q+r], m[r*q+c]
		}
	}
	for r := 0; r < q; r++ {
		linalg.SolveLower(&ws.l, m[r*q:(r+1)*q])
	}
	for r := 0; r < q; r++ {
		for c := r + 1; c < q; c++ {
			avg := 0.5 * (m[r*q+c] + m[c*q+r])
			m[r*q+c], m[c*q+r] = avg, avg
		}
	}
	if err := linalg.SymEigen(&ws.m, ws.mu, &ws.v); err != nil {
		return fmt.Errorf("core: macromodel modal decomposition: %w", err)
	}
	// B̃ = ΦᵀB = Vᵀ·L⁻¹·B, one port column at a time (z is scratch here).
	b, v := red.B.Data, ws.v.Data
	for k := 0; k < p; k++ {
		for r := 0; r < q; r++ {
			ws.z[r] = b[r*p+k]
		}
		linalg.SolveLower(&ws.l, ws.z)
		col := ws.bt[k*q : (k+1)*q]
		for c := range col {
			acc := 0.0
			for r, zr := range ws.z {
				acc += v[r*q+c] * zr
			}
			col[c] = acc
		}
	}
	for a := 0; a < p; a++ {
		for c := 0; c < p; c++ {
			acc := 0.0
			for r, bv := range ws.bt[a*q : (a+1)*q] {
				acc += bv * ws.bt[c*q+r]
			}
			ws.s[a*p+c] = acc
		}
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
