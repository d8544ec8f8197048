package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stanoise/internal/circuit"
	"stanoise/internal/linalg"
	"stanoise/internal/wave"
)

// Session is the mutable run state for one compiled Program: preallocated
// matrices, right-hand-side/solution vectors and an in-place LU workspace,
// plus the per-run parameters (source waveforms, capacitor values,
// initial-guess seeds). A characterisation sweep compiles its topology
// once, opens one Session, and then only mutates parameters between
// RunDC/RunTransient calls — no per-point circuit assembly, node
// resolution or matrix allocation.
//
// Newton runs on the free unknowns only (see Program): nodes pinned by
// ground-referenced sources are set from their waveforms at every time
// point, and the currents of those sources are recovered from KCL at
// their nodes after a DC solve converges. The solution vector keeps the
// full MNA layout — node voltages, then branch currents — so results,
// warm seeds and the predictor history read it unchanged.
//
// The Newton inner loop is allocation-free: the Jacobian is copied into
// reused buffers, factored in place, and solved into a preallocated
// update vector (asserted by TestNewtonLoopAllocFree). Results returned by
// RunDC/RunTransient are fresh allocations and remain valid after further
// runs.
//
// A Session is not safe for concurrent use; open one Session per
// goroutine (Programs are immutable and may be shared).
type Session struct {
	prog *Program
	opts Options

	// base holds all voltage-independent, time-independent conductance
	// stamps of the free system: resistors, gmin, and the incidence pattern
	// of the floating voltage sources.
	base *linalg.Matrix
	// stampedGmin is the gmin currently stamped into base; DC gmin
	// stepping temporarily restamps it.
	stampedGmin float64

	// Scratch buffers reused across runs and Newton iterations. lin is
	// allocated lazily on the first transient run; DC-only sessions (the
	// load-curve sweeps) never pay for it. The matrices and f, rhs, b, dx
	// and xr are free-system sized; x is the full solution vector.
	lin *linalg.Matrix // transient system matrix: base + cap companions
	jac *linalg.Matrix
	lu  *linalg.LUWorkspace
	f   []float64
	rhs []float64
	b   []float64
	dx  []float64
	xr  []float64 // the free unknowns of x, gathered for the linear mat-vec
	x   []float64
	kcl []float64 // per-node current sums of the source-current recovery

	// Mutable per-run parameters, seeded from the Program at creation.
	srcW  []*wave.Waveform
	isrcW []*wave.Waveform
	capC  []float64

	// ownConst and ownConstI hold session-owned constant waveforms, one
	// per voltage/current source, lazily created by SetSourceDC and
	// SetISourceDC and mutated in place on later calls so a DC sweep point
	// allocates nothing for its source values.
	ownConst  []*wave.Waveform
	ownConstI []*wave.Waveform

	// Capacitor companion conductance of the running transient, and its
	// history (branch voltage and current).
	capG  []float64
	vPrev []float64
	iPrev []float64

	// Nonlinear-capacitor companion history: branch voltage, branch
	// current and the capacitance C(u) the current was computed with. The
	// charge-conserving companion form divides the history current by its
	// own capacitance (i_last/C_last, see assemble), so C must be carried
	// alongside i — recomputing it from vPrevNL would be wrong after a
	// parameter change and is why the NLNMOS discretization stores it.
	vPrevNL []float64
	iPrevNL []float64
	cPrevNL []float64
	// nlGeq is the active companion factor (1/h for BE, 2/h for
	// trapezoidal) while a transient step loop is running, and 0 outside
	// it. assemble stamps the nonlinear caps only when nlGeq > 0: at DC a
	// capacitor is an open circuit and contributes nothing, which keeps
	// every DC solve — including the transient operating point — exactly
	// on the legacy arithmetic.
	nlGeq  float64
	nlTrap bool

	// Initial-guess seeds resolved to node indices.
	guesses []guessEntry

	// Warm-start state (see WarmStart): the last converged DC solution,
	// used as the Newton seed of the next solve when warm starting is on.
	warmStart bool
	haveWarm  bool
	xWarm     []float64

	// Predictor state (see Predictor): a ring of the last three converged
	// timestep solutions (xHist[0] newest) plus the pre-seed fallback
	// buffer, allocated lazily on the first predictor-mode transient run so
	// predictor-off sessions pay nothing.
	predictor bool
	xHist     [3][]float64
	xFallback []float64

	// noFastPath forces the Newton path even for linear programs. Test
	// hook: the fast-path property tests run both paths on one topology
	// and assert bit-identical results.
	noFastPath bool

	stats SessionStats
}

// SessionStats counts the work a single Session has performed since it was
// opened: solves started, Newton iterations spent, and how the warm-start
// continuation behaved. Warm-start effectiveness is (cold NewtonIters −
// warm NewtonIters) over identical sweeps; WarmFallbacks counts the solves
// where the warm seed failed to converge and the session transparently
// re-solved from the cold initial guess.
type SessionStats struct {
	DCSolves      int64 // DC solves started (RunDC, RunDCInto and transient operating points)
	Transients    int64 // transient runs started
	NewtonIters   int64 // Newton iterations across all solves (including gmin stepping)
	WarmStarts    int64 // DC solves seeded from the previous converged solution
	WarmFallbacks int64 // warm-started solves that had to fall back to a cold start
	// TransientSteps counts accepted transient timesteps — the denominator
	// for per-step work metrics such as NewtonIters/step, which is what the
	// polynomial predictor reduces.
	TransientSteps int64
	// LinearFastPathRuns counts transient runs that took the factor-once
	// linear fast path (see RunTransient); such runs spend zero Newton
	// iterations.
	LinearFastPathRuns int64
	// PredictorSeeds counts timesteps whose Newton solve was seeded by
	// polynomial extrapolation (see Predictor); PredictorFallbacks counts
	// the subset whose seed failed to converge and was transparently
	// re-solved from the previous converged point.
	PredictorSeeds     int64
	PredictorFallbacks int64
	// NLStampEvals counts nonlinear-capacitor stamp evaluations: one per
	// voltage-dependent cap per Newton assembly of a transient step. Zero
	// for constant-cap programs — the counter is the proof a run really
	// exercised the state-dependent charge model (the /statsz assertion of
	// the nlcap smoke job).
	NLStampEvals int64
}

// Stats snapshots the session's work counters.
func (s *Session) Stats() SessionStats { return s.stats }

type guessEntry struct {
	node int
	v    float64
}

// NewSession opens a Session against a compiled Program. Options are
// validated (see Options.Validate) and normalized once here; TStop is
// ignored — RunTransient takes the stop time per run.
func NewSession(p *Program, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		prog: p,
		opts: opts.normalize(),
	}
	fz := p.fsize
	s.base = linalg.NewMatrix(fz, fz)
	s.jac = linalg.NewMatrix(fz, fz)
	s.lu = linalg.NewLUWorkspace(fz)
	s.f = make([]float64, fz)
	s.rhs = make([]float64, fz)
	s.b = make([]float64, fz)
	s.dx = make([]float64, fz)
	s.xr = make([]float64, fz)
	s.x = make([]float64, p.size)
	s.kcl = make([]float64, p.n)
	s.srcW = append([]*wave.Waveform(nil), p.srcW0...)
	s.isrcW = append([]*wave.Waveform(nil), p.isrcW0...)
	s.capC = append([]float64(nil), p.capC0...)
	s.capG = make([]float64, len(p.caps))
	s.vPrev = make([]float64, len(p.caps))
	s.iPrev = make([]float64, len(p.caps))
	if len(p.nlcaps) > 0 {
		s.vPrevNL = make([]float64, len(p.nlcaps))
		s.iPrevNL = make([]float64, len(p.nlcaps))
		s.cPrevNL = make([]float64, len(p.nlcaps))
	}
	s.xWarm = make([]float64, p.size)
	for name, v := range s.opts.InitialGuess {
		s.setGuess(name, v)
	}
	s.stampBase(s.opts.Gmin)
	return s, nil
}

// SetSource replaces the waveform of a voltage source for subsequent runs.
func (s *Session) SetSource(h SourceHandle, w *wave.Waveform) {
	if w == nil {
		panic("sim: SetSource with nil waveform")
	}
	s.srcW[h] = w
}

// SetSourceDC sets a voltage source to a constant value for subsequent
// runs — the per-point mutation of a DC characterisation sweep. The
// constant waveform is session-owned and reused across calls, so a sweep
// point allocates nothing here.
func (s *Session) SetSourceDC(h SourceHandle, v float64) {
	if s.ownConst == nil {
		s.ownConst = make([]*wave.Waveform, len(s.srcW))
	}
	if s.ownConst[h] == nil {
		s.ownConst[h] = wave.Constant(v)
	} else {
		s.ownConst[h].V[0] = v
	}
	s.srcW[h] = s.ownConst[h]
}

// SetISource replaces the waveform of a current source for subsequent
// runs — the symmetric operation to SetSource for injected-noise
// characterisation sweeps that drive a net with a current stimulus.
func (s *Session) SetISource(h ISourceHandle, w *wave.Waveform) {
	if w == nil {
		panic("sim: SetISource with nil waveform")
	}
	s.isrcW[h] = w
}

// SetISourceDC sets a current source to a constant value for subsequent
// runs. Like SetSourceDC, the constant waveform is session-owned and
// mutated in place, so a DC sweep point allocates nothing here.
func (s *Session) SetISourceDC(h ISourceHandle, v float64) {
	if s.ownConstI == nil {
		s.ownConstI = make([]*wave.Waveform, len(s.isrcW))
	}
	if s.ownConstI[h] == nil {
		s.ownConstI[h] = wave.Constant(v)
	} else {
		s.ownConstI[h].V[0] = v
	}
	s.isrcW[h] = s.ownConstI[h]
}

// WarmStart switches the Newton continuation mode of subsequent DC solves
// (including the operating-point solve at the start of every transient).
//
// When on, each solve seeds Newton from the previous converged DC solution
// instead of the cold initial guess — the classic continuation trick for
// characterisation sweeps, where neighbouring grid points have nearly
// identical operating points. Ground-referenced source nodes are known
// boundary values set at their current values on top of the carried
// solution, so the seed satisfies the new boundary conditions exactly, and
// warm solves terminate
// on the standard small-undamped-update criterion (see newton), which
// together reduce a fine sweep to about one iteration per grid point. A
// warm-started solve that fails to converge transparently falls back to
// the cold start (and then gmin stepping), so warm starting never costs
// robustness; it is still opt-in because the converged result can
// legitimately differ from a cold solve in the last bits, breaking
// bit-identical reproducibility with the legacy flow.
//
// Initial-guess seeds (Options.InitialGuess, SetGuess) only apply to cold
// starts; while a warm seed is available they are ignored by design.
// Switching warm start off (or calling ResetWarmStart) discards the stored
// solution, so the next solve is cold again.
func (s *Session) WarmStart(on bool) {
	s.warmStart = on
	if !on {
		s.haveWarm = false
	}
}

// ResetWarmStart discards the stored warm-start seed, forcing the next DC
// solve to start cold even in warm-start mode. Sweeps can call it at grid
// discontinuities where the previous point is a bad predictor.
func (s *Session) ResetWarmStart() { s.haveWarm = false }

// Predictor switches the polynomial-predictor seeding mode of subsequent
// transient runs.
//
// When on, each timestep's Newton solve is seeded by extrapolating the
// previous converged timestep solutions instead of starting from the
// previous point alone: the first step keeps the legacy previous-point
// seed, the second uses linear extrapolation (2·x₁ − x₀), and from the
// third on a second-order polynomial over the last three points
// (3·x₂ − 3·x₁ + x₀). On the smooth waveforms of glitch rigs the seed
// lands close enough to the solution that Newton needs measurably fewer
// iterations per step (TestPredictorCutsNewtonIterations asserts the
// floor). A predicted seed that fails to converge is transparently
// re-solved from the previous converged point — the legacy seed — so the
// predictor never costs robustness; fallbacks are counted in
// SessionStats.PredictorFallbacks.
//
// Like WarmStart it is opt-in because the converged result can differ from
// the legacy flow in the last bits (Newton converges to the same solution
// from a different seed, within tolerance rather than bitwise).
// Linear-fast-path runs ignore the predictor: they perform no Newton
// iterations to seed.
func (s *Session) Predictor(on bool) { s.predictor = on }

// WarmState returns a copy of the stored warm-start seed — the last
// converged DC solution (node voltages followed by branch currents) — and
// whether one exists. Corner-sweep drivers use it to carry a converged
// state across session (and therefore corner) boundaries; see
// SeedWarmStart for the receiving end.
func (s *Session) WarmState() ([]float64, bool) {
	if !s.haveWarm {
		return nil, false
	}
	return append([]float64(nil), s.xWarm...), true
}

// SeedWarmStart installs an externally produced solution vector as the
// session's warm-start seed, extending Newton continuation across session
// boundaries: a corner sweep seeds each corner's first solve from the
// adjacent corner's converged state. The vector must have the session's
// full unknown count (node voltages plus branch currents) — sessions
// compiled from the same Program share that layout, and adjacent-corner
// rigs differ only in device parameters, not topology. The seed is only
// consulted in warm-start mode, and a seed that fails to converge falls
// back to the cold start transparently (see solveDC), so a bad transplant
// never costs robustness. A mismatched length panics: it means the caller
// transplanted between different topologies, a programming error.
func (s *Session) SeedWarmStart(x []float64) {
	if len(x) != s.prog.size {
		panic(fmt.Sprintf("sim: SeedWarmStart with %d unknowns, session has %d", len(x), s.prog.size))
	}
	copy(s.xWarm, x)
	s.haveWarm = true
}

// MemoryBytes estimates the session's resident footprint: the dense
// free-system matrices (base, Jacobian, the LU workspace buffer, and the
// transient system matrix once allocated) at fsize² float64s each, plus
// the per-unknown vectors. Long-lived holders of many sessions —
// core.RigPool above all — use it to enforce byte-based retention bounds;
// it is an accounting estimate, not an exact heap measurement.
func (s *Session) MemoryBytes() int64 {
	fz, sz := int64(s.prog.fsize), int64(s.prog.size)
	matrices := int64(3) // base, jac, lu workspace buffer
	if s.lin != nil {
		matrices++
	}
	b := matrices * fz * fz * 8
	// f, rhs, b, dx, xr, pivots; x, xWarm; kcl.
	b += 6*fz*8 + 2*sz*8 + int64(s.prog.n)*8
	b += int64(len(s.capG)+len(s.vPrev)+len(s.iPrev)) * 8
	b += int64(len(s.vPrevNL)) * 24 // vPrevNL + iPrevNL + cPrevNL
	if s.xFallback != nil {
		// Predictor history ring (3 vectors) plus the fallback buffer.
		b += 4 * sz * 8
	}
	return b
}

// SetLoad replaces the value of a capacitor for subsequent runs — the
// per-point mutation of a load sweep. A zero value is legal and stamps
// nothing; negative or non-finite values are programming errors.
func (s *Session) SetLoad(h CapHandle, c float64) {
	if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("sim: SetLoad with invalid capacitance %g", c))
	}
	s.capC[h] = c
}

// SetGuess overrides the initial-guess voltage of a named node for
// subsequent runs, replacing any value the Options carried for it.
// Unknown node names and ground are silently ignored, matching how
// Options.InitialGuess treats them; the value must be finite.
func (s *Session) SetGuess(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("sim: SetGuess(%q) with non-finite value %g", name, v))
	}
	s.setGuess(name, v)
}

func (s *Session) setGuess(name string, v float64) {
	id, ok := s.prog.ckt.LookupNode(name)
	if !ok || id == circuit.Ground {
		return
	}
	for i := range s.guesses {
		if s.guesses[i].node == int(id) {
			s.guesses[i].v = v
			return
		}
	}
	s.guesses = append(s.guesses, guessEntry{node: int(id), v: v})
}

// stampBase fills the linear, time-invariant part of the free-system
// Jacobian. gmin goes on every free node; a pinned node's gmin current is
// accounted in the source-current recovery (recoverSourceCurrents).
func (s *Session) stampBase(gmin float64) {
	p := s.prog
	s.base.Zero()
	for r := 0; r < p.nfree; r++ {
		s.base.Add(r, r, gmin)
	}
	for _, r := range p.res {
		s.stampConductance(s.base, r.ra, r.rb, r.g)
	}
	for k, v := range p.vsrc {
		br := p.row[p.n+k]
		if br < 0 {
			continue // pinned: no branch unknown
		}
		if v.rpos >= 0 {
			s.base.Add(v.rpos, br, 1)
			s.base.Add(br, v.rpos, 1)
		}
		if v.rneg >= 0 {
			s.base.Add(v.rneg, br, -1)
			s.base.Add(br, v.rneg, -1)
		}
	}
	s.stampedGmin = gmin
}

// stampConductance stamps conductance g between free rows a and b (-1 for
// a known voltage: ground or a pinned node).
func (s *Session) stampConductance(m *linalg.Matrix, a, b int, g float64) {
	if a >= 0 {
		m.Add(a, a, g)
	}
	if b >= 0 {
		m.Add(b, b, g)
	}
	if a >= 0 && b >= 0 {
		m.Add(a, b, -g)
		m.Add(b, a, -g)
	}
}

// vIdx returns the voltage at unknown index i (ground is -1).
func vIdx(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

// residual gathers the free unknowns of x and sets f = lin·x_free − b: the
// linear part of the free-system residual. The pinned columns' share of
// lin·x is already in b (see sourceRHS and the capacitor coupling of the
// step loop).
func (s *Session) residual(lin *linalg.Matrix, x, b []float64) {
	for r, i := range s.prog.free {
		s.xr[r] = x[i]
	}
	lin.MulVecInto(s.f, s.xr)
	for r := range s.f {
		s.f[r] -= b[r]
	}
}

// assemble builds the free-system Jacobian and residual F(x) at the given
// Newton iterate. lin is the linear system matrix to start from (base for
// DC, base+cap companions for transients); b carries the time-dependent
// source, boundary and capacitor-history terms as "current injected" (so
// F = lin·x − b + nl). Devices read every terminal voltage from the full
// x — pinned nodes hold their boundary values — and stamp only free rows
// and columns.
func (s *Session) assemble(lin *linalg.Matrix, x, b []float64) {
	s.jac.CopyFrom(lin)
	s.residual(lin, x, b)
	// MOSFETs.
	for i := range s.prog.mos {
		m := &s.prog.mos[i]
		id, gd, gg, gs := m.p.Eval(vIdx(x, m.d), vIdx(x, m.g), vIdx(x, m.s))
		d, g, src := m.rd, m.rg, m.rs
		// id is the current into the drain terminal, i.e. leaving node D.
		if d >= 0 {
			s.f[d] += id
			s.jac.Add(d, d, gd)
			if g >= 0 {
				s.jac.Add(d, g, gg)
			}
			if src >= 0 {
				s.jac.Add(d, src, gs)
			}
		}
		if src >= 0 {
			s.f[src] -= id
			s.jac.Add(src, src, -gs)
			if d >= 0 {
				s.jac.Add(src, d, -gd)
			}
			if g >= 0 {
				s.jac.Add(src, g, -gg)
			}
		}
	}
	// Nonlinear gate-charge capacitors: the charge-conserving companion
	// form of the NLMOS discretization, re-evaluated from the current
	// iterate on every assembly. With u = v(a) − v(b) and geq = 2/h
	// (trapezoidal) or 1/h (backward Euler):
	//
	//	i     = C(u)·(geq·(u − u_last) − i_last/C_last)   (trap)
	//	i     = C(u)·geq·(u − u_last)                     (BE)
	//	di/du = C'(u)·(…) + C(u)·geq
	//
	// The history current is divided by the capacitance it was computed
	// with (C_last), not the current one — that is what makes the scheme
	// charge-conserving when C varies between steps (DESIGN.md §12).
	// Outside a transient step loop nlGeq is 0 and the caps stamp nothing:
	// open circuits at DC, exactly like the pre-stamped linear caps.
	if s.nlGeq > 0 && len(s.prog.stepNL) > 0 {
		geq := s.nlGeq
		for _, i := range s.prog.stepNL {
			nc := &s.prog.nlcaps[i]
			u := vIdx(x, nc.a) - vIdx(x, nc.b)
			c, dc := nc.cp.Eval(u)
			rate := geq * (u - s.vPrevNL[i])
			if s.nlTrap {
				rate -= s.iPrevNL[i] / s.cPrevNL[i]
			}
			cur := c * rate
			g := dc*rate + c*geq
			a, bn := nc.ra, nc.rb
			if a >= 0 {
				s.f[a] += cur
				s.jac.Add(a, a, g)
				if bn >= 0 {
					s.jac.Add(a, bn, -g)
				}
			}
			if bn >= 0 {
				s.f[bn] -= cur
				s.jac.Add(bn, bn, g)
				if a >= 0 {
					s.jac.Add(bn, a, -g)
				}
			}
		}
		s.stats.NLStampEvals += int64(len(s.prog.stepNL))
		nlStampEvalCount.Add(int64(len(s.prog.stepNL)))
	}
	// Table VCCSs: current i injected into Out.
	for i := range s.prog.vccs {
		e := &s.prog.vccs[i]
		if e.rout < 0 {
			continue
		}
		cur, gc, gout := e.f.Eval(vIdx(x, e.ctrl), vIdx(x, e.out))
		s.f[e.rout] -= cur
		s.jac.Add(e.rout, e.rout, -gout)
		if e.rctrl >= 0 {
			s.jac.Add(e.rout, e.rctrl, -gc)
		}
	}
}

// newton solves F(x) = 0 on the free unknowns of x, modifying them in
// place; the pinned entries must already hold their boundary values. The
// loop body allocates nothing: the Jacobian factors into the session's LU
// workspace and the update solves into the preallocated dx buffer.
//
// relaxed selects the warm-start termination criterion (small undamped
// update, no residual verification); DC solves pass it in warm-start mode,
// transient timestep solves always use the strict dual criterion.
func (s *Session) newton(lin *linalg.Matrix, x, b []float64, relaxed bool) error {
	if s.prog.fsize == 0 {
		return nil // every node is pinned: nothing to solve
	}
	for it := 0; it < s.opts.MaxNewton; it++ {
		s.stats.NewtonIters++
		newtonIterCount.Add(1)
		s.assemble(lin, x, b)
		if err := s.lu.Factor(s.jac); err != nil {
			return fmt.Errorf("sim: singular Jacobian at Newton iteration %d: %w", it, err)
		}
		s.lu.SolveInto(s.dx, s.f)
		if s.update(x, relaxed) {
			return nil
		}
	}
	return ErrNoConvergence
}

// update applies the damped Newton step in s.dx to the free unknowns of x
// and reports convergence. Damping bounds the largest free node-voltage
// update to MaxStep.
//
// The strict criterion needs both a small update and a small residual on
// every free KCL row, against ITol scaled by the circuit's node count. The
// relaxed (warm-start) criterion accepts on a small undamped update alone:
// a full Newton step (scale == 1) below VTol bounds the remaining error
// quadratically — the linearised residual is solved exactly, so what is
// left is O(curvature·dv²) — which makes the cold path's extra
// residual-verification iteration redundant. This is what turns a
// continuation sweep into one iteration per grid point; it is confined to
// warm-mode DC solves (transient timesteps always verify the residual).
func (s *Session) update(x []float64, relaxed bool) bool {
	p, opts, dx := s.prog, &s.opts, s.dx
	maxdv := 0.0
	for r := 0; r < p.nfree; r++ {
		if a := math.Abs(dx[r]); a > maxdv {
			maxdv = a
		}
	}
	scale := 1.0
	if maxdv > opts.MaxStep {
		scale = opts.MaxStep / maxdv
	}
	for r, i := range p.free {
		x[i] -= scale * dx[r]
	}
	if relaxed {
		return maxdv*scale < opts.VTol && scale == 1
	}
	maxf := 0.0
	for r := 0; r < p.nfree; r++ {
		if a := math.Abs(s.f[r]); a > maxf {
			maxf = a
		}
	}
	return maxdv*scale < opts.VTol && maxf < opts.ITol*math.Max(1, float64(p.n))
}

// linearRefine is the inner loop of the linear transient fast path: the
// exact arithmetic of newton specialised to a program with no nonlinear
// device stamps, with the factorisation hoisted out of the loop. For such
// a program assemble's Jacobian is bitwise the linear system matrix on
// every iteration, so newton's per-iteration Factor recomputes identical
// LU bits each time; the caller factors lin into s.lu once and each pass
// here is a residual evaluation plus forward/back-substitution — O(n²)
// instead of O(n³) — producing bit-identical iterates, damping decisions
// and convergence checks (asserted by the fast-path property tests).
//
// Passes of this loop are plain linear solves, deliberately not counted in
// NewtonIters: a fast-path transient run reports zero Newton iterations,
// and that counter assertion is the proof the run never re-factored.
func (s *Session) linearRefine(lin *linalg.Matrix, x, b []float64) error {
	if s.prog.fsize == 0 {
		return nil
	}
	for it := 0; it < s.opts.MaxNewton; it++ {
		s.residual(lin, x, b)
		s.lu.SolveInto(s.dx, s.f)
		if s.update(x, false) {
			return nil
		}
	}
	return ErrNoConvergence
}

// ensurePredictorBuffers lazily allocates the predictor history ring and
// fallback buffer on the first predictor-mode transient run.
func (s *Session) ensurePredictorBuffers() {
	if s.xFallback != nil {
		return
	}
	s.xFallback = make([]float64, s.prog.size)
	for i := range s.xHist {
		s.xHist[i] = make([]float64, s.prog.size)
	}
}

// pushHistory records a converged timestep solution in the predictor ring
// by pointer rotation (the oldest buffer is overwritten and becomes the
// newest), allocating nothing. nh is the current history depth; the new
// depth (capped at 3) is returned.
func (s *Session) pushHistory(x []float64, nh int) int {
	buf := s.xHist[2]
	s.xHist[2] = s.xHist[1]
	s.xHist[1] = s.xHist[0]
	copy(buf, x)
	s.xHist[0] = buf
	if nh < 3 {
		nh++
	}
	return nh
}

// predictSeed overwrites the free unknowns of x with the polynomial
// extrapolation of the history ring: linear over two points, second-order
// over three. The uniform-step Lagrange forms (2·x₁ − x₀ and
// 3·x₂ − 3·x₁ + x₀) are exact for the session's fixed Dt grid. Pinned
// nodes keep the boundary values already set for the step.
func (s *Session) predictSeed(x []float64, nh int) {
	h0, h1 := s.xHist[0], s.xHist[1]
	if nh >= 3 {
		h2 := s.xHist[2]
		for _, i := range s.prog.free {
			x[i] = 3*h0[i] - 3*h1[i] + h2[i]
		}
		return
	}
	for _, i := range s.prog.free {
		x[i] = 2*h0[i] - h1[i]
	}
}

// sourceRHS sets the boundary of time point t: every pinned node of s.x
// takes its source's value, and b is filled with the independent-source
// terms of the free rows — floating-source values, current sources, and
// the known share of the linear stamps on pinned columns.
func (s *Session) sourceRHS(b []float64, t float64) {
	p, x := s.prog, s.x
	for _, pn := range p.pins {
		x[pn.node] = pn.sign * s.srcW[pn.src].At(t)
	}
	for r := range b {
		b[r] = 0
	}
	for k := range p.vsrc {
		if br := p.row[p.n+k]; br >= 0 {
			b[br] = s.srcW[k].At(t)
		}
	}
	for k, is := range p.isrc {
		i := s.isrcW[k].At(t)
		if is.rpos >= 0 {
			b[is.rpos] += i
		}
		if is.rneg >= 0 {
			b[is.rneg] -= i
		}
	}
	for _, c := range p.bound {
		b[c.row] -= c.g * x[c.node]
	}
}

// initialGuess fills x with the DC starting point: zero, overridden by the
// initial-guess seeds. Pinned nodes are then set by sourceRHS.
func (s *Session) initialGuess(x []float64) {
	for i := range x {
		x[i] = 0
	}
	for _, g := range s.guesses {
		x[g.node] = g.v
	}
}

// recoverSourceCurrents fills the branch currents of the pinned sources
// in x from KCL at their nodes: with every other unknown converged, a
// pinned source carries exactly the current its node's other elements
// draw (DC: capacitors are open). Floating-source branch currents are
// Newton unknowns and already in x.
func (s *Session) recoverSourceCurrents(x []float64) {
	p := s.prog
	if len(p.pins) == 0 {
		return
	}
	// kcl[i] is the current leaving node i through everything but the
	// pinned sources — the full-MNA KCL row without its branch term.
	kcl := s.kcl
	for i := range kcl {
		kcl[i] = s.stampedGmin * x[i]
	}
	for _, r := range p.res {
		cur := r.g * (vIdx(x, r.a) - vIdx(x, r.b))
		if r.a >= 0 {
			kcl[r.a] += cur
		}
		if r.b >= 0 {
			kcl[r.b] -= cur
		}
	}
	for i := range p.mos {
		m := &p.mos[i]
		id, _, _, _ := m.p.Eval(vIdx(x, m.d), vIdx(x, m.g), vIdx(x, m.s))
		if m.d >= 0 {
			kcl[m.d] += id
		}
		if m.s >= 0 {
			kcl[m.s] -= id
		}
	}
	for i := range p.vccs {
		e := &p.vccs[i]
		if e.out >= 0 {
			cur, _, _ := e.f.Eval(vIdx(x, e.ctrl), vIdx(x, e.out))
			kcl[e.out] -= cur
		}
	}
	for k, v := range p.vsrc {
		if p.row[p.n+k] < 0 {
			continue
		}
		if v.pos >= 0 {
			kcl[v.pos] += x[p.n+k]
		}
		if v.neg >= 0 {
			kcl[v.neg] -= x[p.n+k]
		}
	}
	for k, is := range p.isrc {
		i := s.isrcW[k].At(0)
		if is.pos >= 0 {
			kcl[is.pos] -= i
		}
		if is.neg >= 0 {
			kcl[is.neg] += i
		}
	}
	// Full MNA stamps branch k at +1 on its positive node and −1 on its
	// negative one, so KCL there reads kcl ± i_k = 0.
	for _, pn := range p.pins {
		x[p.n+pn.src] = -pn.sign * kcl[pn.node]
	}
}

// RunDC computes the operating point at t = 0 with the session's current
// parameters. When plain Newton fails it falls back to gmin stepping:
// solving a sequence of progressively less regularised systems,
// warm-starting each from the last. The returned result does not alias
// session buffers; sweeps that want an allocation-free loop use RunDCInto.
func (s *Session) RunDC() (*DCResult, error) {
	if err := s.solveDC(); err != nil {
		return nil, err
	}
	s.recoverSourceCurrents(s.x)
	return &DCResult{c: s.prog.ckt, X: append([]float64(nil), s.x...), n: s.prog.n}, nil
}

// RunDCInto is RunDC writing the operating point into a caller-owned
// result, reusing its backing storage: after the first call on a given
// DCResult, a sweep loop of SetSourceDC + RunDCInto + SourceCurrent
// performs zero allocations per grid point (asserted by
// TestRunDCIntoAllocFree). On error the result is left untouched. The
// filled result does not alias session buffers and stays valid across
// further runs.
func (s *Session) RunDCInto(res *DCResult) error {
	if res == nil {
		panic("sim: RunDCInto with nil result")
	}
	if err := s.solveDC(); err != nil {
		return err
	}
	s.recoverSourceCurrents(s.x)
	res.c = s.prog.ckt
	res.n = s.prog.n
	if cap(res.X) < s.prog.size {
		res.X = make([]float64, s.prog.size)
	}
	res.X = res.X[:s.prog.size]
	copy(res.X, s.x)
	return nil
}

// solveDC runs the DC solve, leaving the operating point in s.x.
//
// In warm-start mode (see WarmStart) the solve is attempted first from the
// previous converged solution; a cold start — the bit-identical legacy
// path — runs when warm starting is off, no previous solution exists, or
// the warm seed failed to converge.
func (s *Session) solveDC() error {
	dcCount.Add(1)
	s.stats.DCSolves++
	if s.stampedGmin != s.opts.Gmin {
		s.stampBase(s.opts.Gmin)
	}
	if s.warmStart && s.haveWarm {
		s.stats.WarmStarts++
		// Hybrid continuation seed: carry the internal-node voltages and
		// floating-source currents of the previous converged solution —
		// the part a cold guess can only approximate — while every
		// ground-referenced source node takes its *new* value as a
		// boundary. The sweep mutates exactly those sources between
		// points, so the seed satisfies the new boundary conditions
		// exactly and Newton only has to track the interior.
		copy(s.x, s.xWarm)
		s.sourceRHS(s.rhs, 0)
		if err := s.newton(s.base, s.x, s.rhs, true); err == nil {
			copy(s.xWarm, s.x)
			return nil
		}
		// The previous solution was a bad predictor (a sweep
		// discontinuity, a basin change); fall through to the cold path.
		s.stats.WarmFallbacks++
	}
	s.initialGuess(s.x)
	s.sourceRHS(s.rhs, 0)
	if err := s.newton(s.base, s.x, s.rhs, false); err == nil {
		s.saveWarm()
		return nil
	}
	// gmin stepping.
	s.initialGuess(s.x)
	s.sourceRHS(s.rhs, 0)
	for gmin := 1e-3; gmin >= s.opts.Gmin; gmin /= 10 {
		s.stampBase(gmin)
		if err := s.newton(s.base, s.x, s.rhs, false); err != nil {
			s.haveWarm = false
			return fmt.Errorf("sim: DC gmin stepping failed at gmin=%g: %w", gmin, err)
		}
	}
	s.stampBase(s.opts.Gmin)
	if err := s.newton(s.base, s.x, s.rhs, false); err != nil {
		s.haveWarm = false
		return fmt.Errorf("sim: DC failed after gmin stepping: %w", err)
	}
	s.saveWarm()
	return nil
}

// saveWarm records the converged DC solution as the next warm-start seed.
// Skipped when warm starting is off so cold sessions pay nothing.
func (s *Session) saveWarm() {
	if !s.warmStart {
		return
	}
	copy(s.xWarm, s.x)
	s.haveWarm = true
}

// RunTransient runs a transient analysis from a DC operating point at
// t = 0 to tstop with the session's fixed step (Options.Dt). The context
// is checked periodically between timesteps; a nil context disables
// cancellation. The returned result does not alias session buffers; sweeps
// that want an allocation-free loop use RunTransientInto.
//
// Programs with no nonlinear device stamps (Program.Linear) take the
// linear fast path: the transient system matrix is factored exactly once
// per run and every timestep is a forward/back-substitution, with zero
// Newton iterations — counted in SessionStats.LinearFastPathRuns and
// bit-identical to the Newton path by construction (see linearRefine).
// Warm-start mode disables the fast path for the run, keeping WarmStart's
// documented DC continuation semantics; nonlinear programs can opt into
// predictor seeding instead (see Predictor).
func (s *Session) RunTransient(ctx context.Context, tstop float64) (*Result, error) {
	res := &Result{}
	if err := s.RunTransientInto(ctx, res, tstop); err != nil {
		return nil, err
	}
	return res, nil
}

// RunTransientInto is RunTransient writing the waveforms into a
// caller-owned result, reusing its backing storage: after the first call
// on a given Result, a glitch-sweep loop of SetSource/SetLoad +
// RunTransientInto performs zero allocations per run, and the warm
// per-step loop allocates zero bytes (asserted by
// TestTransientStepAllocFree). On error the result's contents are
// unspecified and must not be read; it may be reused for the next run. The
// filled result does not alias session buffers and stays valid across
// further runs — but waveforms obtained from it before the next
// RunTransientInto call on the same Result are only safe because
// wave.FromPoints copies its inputs; slices read directly from Result are
// overwritten by the next run.
func (s *Session) RunTransientInto(ctx context.Context, res *Result, tstop float64) error {
	if res == nil {
		panic("sim: RunTransientInto with nil result")
	}
	transientCount.Add(1)
	s.stats.Transients++
	if ctx == nil {
		ctx = context.Background()
	}
	if math.IsNaN(tstop) || math.IsInf(tstop, 0) {
		return &OptionsError{Field: "TStop", Value: tstop}
	}
	if tstop <= 0 {
		return errors.New("sim: Transient requires positive TStop")
	}

	opts := s.opts
	h := opts.Dt
	// Indexed time grid: t = k·h instead of the legacy accumulating
	// t += h, which drifted by an ulp per step and could drop or duplicate
	// the final step on long runs (TestTransientStepCountExact pins the
	// count at large tstop/Dt ratios). nsteps reproduces the legacy loop's
	// step count: it ran while t ≤ tstop + h/2.
	nsteps := int(math.Floor(tstop/h + 0.5))
	p := s.prog
	res.reset(p.ckt, p.n, nsteps+1)

	// Linear fast path, part 1: the operating point. The program has no
	// nonlinear stamps, so the DC system is s.base itself; factor it once
	// and refine — the same arithmetic newton performs, minus the
	// per-iteration re-factorisation (see linearRefine). Any failure falls
	// back to the full legacy ladder (solveDC: cold Newton, then gmin
	// stepping). Warm-start mode takes the legacy path unconditionally so
	// its continuation semantics and stats are untouched.
	fast := s.prog.linear && !s.noFastPath && !s.warmStart
	if fast {
		fast = false
		if s.stampedGmin != opts.Gmin {
			s.stampBase(opts.Gmin)
		}
		if s.lu.Factor(s.base) == nil {
			dcCount.Add(1)
			s.stats.DCSolves++
			s.initialGuess(s.x)
			s.sourceRHS(s.rhs, 0)
			fast = s.linearRefine(s.base, s.x, s.rhs) == nil
		}
	}
	if !fast {
		if err := s.solveDC(); err != nil {
			return fmt.Errorf("sim: transient operating point: %w", err)
		}
	}
	x := s.x // holds the operating point
	res.record(0, x)

	// Transient system matrix: base + capacitor companion conductances.
	// A capacitor between two known voltages stamps nothing and keeps no
	// history (Program.stepCaps).
	geqFactor := 1.0 / h // BE
	if opts.Method == Trapezoidal {
		geqFactor = 2.0 / h
	}
	if s.lin == nil {
		s.lin = linalg.NewMatrix(p.fsize, p.fsize)
	}
	s.lin.CopyFrom(s.base)
	for _, i := range p.stepCaps {
		cp := &p.caps[i]
		s.capG[i] = s.capC[i] * geqFactor
		s.stampConductance(s.lin, cp.ra, cp.rb, s.capG[i])
	}
	// Linear fast path, part 2: factor the timestep system once for the
	// whole run. Every step below is then a substitution against this
	// factorisation.
	if fast {
		fast = s.lu.Factor(s.lin) == nil
	}
	if fast {
		s.stats.LinearFastPathRuns++
		linearFastRunCount.Add(1)
	}

	// Capacitor history: branch voltage and (for trapezoidal) current.
	//
	// iPrev is deliberately zeroed, and this is exact, not an
	// approximation: the run starts from a *converged DC operating point*,
	// where every capacitor is an open circuit carrying zero current. It
	// would only be approximate if the solution at t = 0 were not a steady
	// state — but SetGuess/InitialGuess perturb the Newton seed, never the
	// converged operating point itself, so a non-steady start cannot be
	// constructed through this API (TestTransientOPCapCurrentIsZero pins
	// the flat-output consequence), and mid-transient restarts are not
	// supported: resuming would additionally need the capacitor branch
	// currents of the interrupted run, exactly what iPrev would carry.
	for _, i := range p.stepCaps {
		cp := &p.caps[i]
		s.vPrev[i] = vIdx(x, cp.a) - vIdx(x, cp.b)
		s.iPrev[i] = 0
	}
	// Nonlinear-cap history starts from the same steady state: zero branch
	// current, and C_last evaluated at the operating-point branch voltage
	// so the first step's i_last/C_last term is well-defined.
	for _, i := range p.stepNL {
		nc := &p.nlcaps[i]
		u := vIdx(x, nc.a) - vIdx(x, nc.b)
		s.vPrevNL[i] = u
		s.iPrevNL[i] = 0
		s.cPrevNL[i], _ = nc.cp.Eval(u)
	}
	// Arm the per-iteration nonlinear-cap stamps for the step loop (and
	// only for it: DC solves must keep seeing open circuits).
	s.nlGeq = geqFactor
	s.nlTrap = opts.Method == Trapezoidal
	defer func() { s.nlGeq = 0 }()

	// Predictor seeding only applies to Newton-path runs; a fast-path run
	// has no Newton solve to seed.
	pred := s.predictor && !fast
	nh := 0
	if pred {
		s.ensurePredictorBuffers()
		nh = s.pushHistory(x, nh)
	}

	b := s.b
	for k := 1; k <= nsteps; k++ {
		t := float64(k) * h
		if k&15 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.sourceRHS(b, t)
		// Companion history, plus the companion's share on a known
		// terminal: g·v(known) moves into b like the pinned columns of
		// sourceRHS (ground contributes zero).
		for _, i := range p.stepCaps {
			cp := &p.caps[i]
			g := s.capG[i]
			hist := g * s.vPrev[i]
			if opts.Method == Trapezoidal {
				hist += s.iPrev[i]
			}
			if cp.ra >= 0 {
				b[cp.ra] += hist
				if cp.rb < 0 {
					b[cp.ra] += g * vIdx(x, cp.b)
				}
			}
			if cp.rb >= 0 {
				b[cp.rb] -= hist
				if cp.ra < 0 {
					b[cp.rb] += g * vIdx(x, cp.a)
				}
			}
		}
		var err error
		if fast {
			err = s.linearRefine(s.lin, x, b)
		} else {
			seeded := false
			if pred && nh >= 2 {
				copy(s.xFallback, x)
				s.predictSeed(x, nh)
				seeded = true
				s.stats.PredictorSeeds++
				predictorSeedCount.Add(1)
			}
			err = s.newton(s.lin, x, b, false)
			if err != nil && seeded {
				// The extrapolated seed left the convergence basin;
				// re-solve from the previous converged point — exactly the
				// legacy seed — so the predictor never costs robustness.
				s.stats.PredictorFallbacks++
				copy(x, s.xFallback)
				err = s.newton(s.lin, x, b, false)
			}
		}
		if err != nil {
			return fmt.Errorf("sim: transient at t=%.3gps: %w", t*1e12, err)
		}
		for _, i := range p.stepCaps {
			cp := &p.caps[i]
			v := vIdx(x, cp.a) - vIdx(x, cp.b)
			if opts.Method == Trapezoidal {
				s.iPrev[i] = s.capG[i]*(v-s.vPrev[i]) - s.iPrev[i]
			} else {
				s.iPrev[i] = s.capG[i] * (v - s.vPrev[i])
			}
			s.vPrev[i] = v
		}
		for _, i := range p.stepNL {
			nc := &p.nlcaps[i]
			u := vIdx(x, nc.a) - vIdx(x, nc.b)
			c, _ := nc.cp.Eval(u)
			rate := geqFactor * (u - s.vPrevNL[i])
			if opts.Method == Trapezoidal {
				rate -= s.iPrevNL[i] / s.cPrevNL[i]
			}
			s.iPrevNL[i] = c * rate
			s.vPrevNL[i] = u
			s.cPrevNL[i] = c
		}
		if pred {
			nh = s.pushHistory(x, nh)
		}
		s.stats.TransientSteps++
		transientStepCount.Add(1)
		res.record(t, x)
	}
	return nil
}
