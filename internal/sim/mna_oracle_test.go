package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stanoise/internal/linalg"
)

// mnaOracle is the full modified-nodal-analysis solver that Session's
// source-eliminated Newton replaced, kept as the differential oracle of
// TestSimMatchesMNAOracle. Every node voltage and every voltage-source
// branch current is a Newton unknown: a ground-referenced source fixes
// its node through its branch row, and source currents come out of the
// solve instead of KCL recovery.
//
// It reads its parameters — waveforms, loads, guesses, options — from the
// embedded Session, so a test drives both solvers through the same
// setters. It runs the default path only: a cold DC solve with gmin
// stepping, then Newton at every timestep (no warm start, predictor or
// linear fast path).
type mnaOracle struct {
	*Session

	size                   int
	fullBase, fullLin, jac *linalg.Matrix
	lu                     *linalg.LUWorkspace
	f, rhs, b, x, dx       []float64
	vPrev, iPrev           []float64
	vPrevNL, iPrevNL       []float64
	cPrevNL                []float64
	nlGeq                  float64
	nlTrap                 bool
}

func newMNAOracle(p *Program, opts Options) (*mnaOracle, error) {
	s, err := NewSession(p, opts)
	if err != nil {
		return nil, err
	}
	n := p.size
	return &mnaOracle{
		Session:  s,
		size:     n,
		fullBase: linalg.NewMatrix(n, n),
		fullLin:  linalg.NewMatrix(n, n),
		jac:      linalg.NewMatrix(n, n),
		lu:       linalg.NewLUWorkspace(n),
		f:        make([]float64, n),
		rhs:      make([]float64, n),
		b:        make([]float64, n),
		x:        make([]float64, n),
		dx:       make([]float64, n),
		vPrev:    make([]float64, len(p.caps)),
		iPrev:    make([]float64, len(p.caps)),
		vPrevNL:  make([]float64, len(p.nlcaps)),
		iPrevNL:  make([]float64, len(p.nlcaps)),
		cPrevNL:  make([]float64, len(p.nlcaps)),
	}, nil
}

// stampConductanceFull stamps g between full node indices a and b.
func stampConductanceFull(m *linalg.Matrix, a, b int, g float64) {
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

// stampBase fills the full MNA base: gmin on every node, resistors, and
// the incidence of every voltage source.
func (o *mnaOracle) stampBase(gmin float64) {
	p := o.prog
	o.fullBase.Zero()
	for i := 0; i < p.n; i++ {
		o.fullBase.Add(i, i, gmin)
	}
	for _, r := range p.res {
		stampConductanceFull(o.fullBase, r.a, r.b, r.g)
	}
	for k, v := range p.vsrc {
		row := p.n + k
		if v.pos >= 0 {
			o.fullBase.Add(v.pos, row, 1)
			o.fullBase.Add(row, v.pos, 1)
		}
		if v.neg >= 0 {
			o.fullBase.Add(v.neg, row, -1)
			o.fullBase.Add(row, v.neg, -1)
		}
	}
}

// assemble builds the full Jacobian and residual F = lin·x − b + nl.
func (o *mnaOracle) assemble(lin *linalg.Matrix, x, b []float64) {
	p := o.prog
	o.jac.CopyFrom(lin)
	lin.MulVecInto(o.f, x)
	for i := range o.f {
		o.f[i] -= b[i]
	}
	for i := range p.mos {
		m := &p.mos[i]
		id, gd, gg, gs := m.p.Eval(vIdx(x, m.d), vIdx(x, m.g), vIdx(x, m.s))
		d, g, src := m.d, m.g, m.s
		if d >= 0 {
			o.f[d] += id
			o.jac.Add(d, d, gd)
			if g >= 0 {
				o.jac.Add(d, g, gg)
			}
			if src >= 0 {
				o.jac.Add(d, src, gs)
			}
		}
		if src >= 0 {
			o.f[src] -= id
			o.jac.Add(src, src, -gs)
			if d >= 0 {
				o.jac.Add(src, d, -gd)
			}
			if g >= 0 {
				o.jac.Add(src, g, -gg)
			}
		}
	}
	if o.nlGeq > 0 {
		geq := o.nlGeq
		for i := range p.nlcaps {
			nc := &p.nlcaps[i]
			u := vIdx(x, nc.a) - vIdx(x, nc.b)
			c, dc := nc.cp.Eval(u)
			rate := geq * (u - o.vPrevNL[i])
			if o.nlTrap {
				rate -= o.iPrevNL[i] / o.cPrevNL[i]
			}
			cur := c * rate
			g := dc*rate + c*geq
			a, bn := nc.a, nc.b
			if a >= 0 {
				o.f[a] += cur
				o.jac.Add(a, a, g)
				if bn >= 0 {
					o.jac.Add(a, bn, -g)
				}
			}
			if bn >= 0 {
				o.f[bn] -= cur
				o.jac.Add(bn, bn, g)
				if a >= 0 {
					o.jac.Add(bn, a, -g)
				}
			}
		}
	}
	for i := range p.vccs {
		e := &p.vccs[i]
		cur, gc, gout := e.f.Eval(vIdx(x, e.ctrl), vIdx(x, e.out))
		if e.out >= 0 {
			o.f[e.out] -= cur
			o.jac.Add(e.out, e.out, -gout)
			if e.ctrl >= 0 {
				o.jac.Add(e.out, e.ctrl, -gc)
			}
		}
	}
}

// newton is the full-MNA damped Newton with the strict dual criterion.
func (o *mnaOracle) newton(lin *linalg.Matrix, x, b []float64) error {
	p, opts := o.prog, o.opts
	for it := 0; it < opts.MaxNewton; it++ {
		o.assemble(lin, x, b)
		if err := o.lu.Factor(o.jac); err != nil {
			return fmt.Errorf("oracle: singular Jacobian at Newton iteration %d: %w", it, err)
		}
		o.lu.SolveInto(o.dx, o.f)
		maxdv := 0.0
		for i := 0; i < p.n; i++ {
			maxdv = math.Max(maxdv, math.Abs(o.dx[i]))
		}
		scale := 1.0
		if maxdv > opts.MaxStep {
			scale = opts.MaxStep / maxdv
		}
		for i := range x {
			x[i] -= scale * o.dx[i]
		}
		maxf := 0.0
		for i := 0; i < p.n; i++ {
			maxf = math.Max(maxf, math.Abs(o.f[i]))
		}
		if maxdv*scale < opts.VTol && maxf < opts.ITol*math.Max(1, float64(p.n)) {
			return nil
		}
	}
	return ErrNoConvergence
}

// sourceRHS fills b with every source value at time t: voltage sources in
// their branch rows, current sources in their node rows.
func (o *mnaOracle) sourceRHS(b []float64, t float64) {
	p := o.prog
	for i := range b {
		b[i] = 0
	}
	for k := range p.vsrc {
		b[p.n+k] = o.srcW[k].At(t)
	}
	for k, is := range p.isrc {
		if is.pos >= 0 {
			b[is.pos] += o.isrcW[k].At(t)
		}
		if is.neg >= 0 {
			b[is.neg] -= o.isrcW[k].At(t)
		}
	}
}

// initialGuess starts ground-referenced source nodes at their value and
// applies the initial-guess seeds on top.
func (o *mnaOracle) initialGuess(x []float64) {
	for i := range x {
		x[i] = 0
	}
	for k, v := range o.prog.vsrc {
		if v.neg < 0 && v.pos >= 0 {
			x[v.pos] = o.srcW[k].At(0)
		}
	}
	for _, g := range o.guesses {
		x[g.node] = g.v
	}
}

// solveDC is the cold DC solve with the gmin-stepping fallback.
func (o *mnaOracle) solveDC() error {
	gmin := o.opts.Gmin
	o.stampBase(gmin)
	o.sourceRHS(o.rhs, 0)
	o.initialGuess(o.x)
	if o.newton(o.fullBase, o.x, o.rhs) == nil {
		return nil
	}
	o.initialGuess(o.x)
	for g := 1e-3; g >= gmin; g /= 10 {
		o.stampBase(g)
		if err := o.newton(o.fullBase, o.x, o.rhs); err != nil {
			return fmt.Errorf("oracle: DC gmin stepping failed at gmin=%g: %w", g, err)
		}
	}
	o.stampBase(gmin)
	return o.newton(o.fullBase, o.x, o.rhs)
}

// RunDC computes the operating point; branch currents are Newton unknowns.
func (o *mnaOracle) RunDC() (*DCResult, error) {
	if err := o.solveDC(); err != nil {
		return nil, err
	}
	return &DCResult{c: o.prog.ckt, X: append([]float64(nil), o.x...), n: o.prog.n}, nil
}

// RunTransient integrates from the DC operating point to tstop on the
// grid t = k·Dt, Newton at every step.
func (o *mnaOracle) RunTransient(ctx context.Context, tstop float64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if tstop <= 0 {
		return nil, errors.New("oracle: transient requires positive tstop")
	}
	p, opts := o.prog, o.opts
	h := opts.Dt
	nsteps := int(math.Floor(tstop/h + 0.5))
	res := &Result{}
	res.reset(p.ckt, p.n, nsteps+1)
	if err := o.solveDC(); err != nil {
		return nil, fmt.Errorf("oracle: transient operating point: %w", err)
	}
	x := o.x
	res.record(0, x)

	geq := 1.0 / h
	trap := opts.Method == Trapezoidal
	if trap {
		geq = 2.0 / h
	}
	o.fullLin.CopyFrom(o.fullBase)
	for i, cp := range p.caps {
		stampConductanceFull(o.fullLin, cp.a, cp.b, o.capC[i]*geq)
		o.vPrev[i] = vIdx(x, cp.a) - vIdx(x, cp.b)
		o.iPrev[i] = 0
	}
	for i := range p.nlcaps {
		nc := &p.nlcaps[i]
		u := vIdx(x, nc.a) - vIdx(x, nc.b)
		o.vPrevNL[i] = u
		o.iPrevNL[i] = 0
		o.cPrevNL[i], _ = nc.cp.Eval(u)
	}
	o.nlGeq, o.nlTrap = geq, trap
	defer func() { o.nlGeq = 0 }()

	for k := 1; k <= nsteps; k++ {
		t := float64(k) * h
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o.sourceRHS(o.b, t)
		for i, cp := range p.caps {
			hist := o.capC[i] * geq * o.vPrev[i]
			if trap {
				hist += o.iPrev[i]
			}
			if cp.a >= 0 {
				o.b[cp.a] += hist
			}
			if cp.b >= 0 {
				o.b[cp.b] -= hist
			}
		}
		if err := o.newton(o.fullLin, x, o.b); err != nil {
			return nil, fmt.Errorf("oracle: transient at t=%.3gps: %w", t*1e12, err)
		}
		for i, cp := range p.caps {
			v := vIdx(x, cp.a) - vIdx(x, cp.b)
			if trap {
				o.iPrev[i] = o.capC[i]*geq*(v-o.vPrev[i]) - o.iPrev[i]
			} else {
				o.iPrev[i] = o.capC[i] * geq * (v - o.vPrev[i])
			}
			o.vPrev[i] = v
		}
		for i := range p.nlcaps {
			nc := &p.nlcaps[i]
			u := vIdx(x, nc.a) - vIdx(x, nc.b)
			c, _ := nc.cp.Eval(u)
			rate := geq * (u - o.vPrevNL[i])
			if trap {
				rate -= o.iPrevNL[i] / o.cPrevNL[i]
			}
			o.iPrevNL[i] = c * rate
			o.vPrevNL[i] = u
			o.cPrevNL[i] = c
		}
		res.record(t, x)
	}
	return res, nil
}

// maxNodeDeviation returns the largest |Δv| between two runs of one
// program over every node and time point, or +Inf when their grids
// differ.
func maxNodeDeviation(a, b *Result) float64 {
	if len(a.Times) != len(b.Times) || len(a.nodeV) != len(b.nodeV) {
		return math.Inf(1)
	}
	d := 0.0
	for n := range a.nodeV {
		for k := range a.nodeV[n] {
			d = math.Max(d, math.Abs(a.nodeV[n][k]-b.nodeV[n][k]))
		}
	}
	return d
}
