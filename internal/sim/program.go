package sim

import (
	"fmt"

	"stanoise/internal/circuit"
	"stanoise/internal/device"
	"stanoise/internal/wave"
)

// Program is an immutable compiled form of a circuit: node names resolved
// to matrix indices, one stamp plan per device, and handles for the
// parameters a characterisation sweep mutates between runs (voltage-source
// waveforms, capacitor values, initial-guess seeds).
//
// Compile once per topology, then open any number of Sessions against the
// Program; each Session owns the mutable solver state (matrices, vectors,
// LU workspace) and can be re-run with different parameters without paying
// netlist assembly or index resolution again. The source circuit must not
// be modified after Compile — the Program aliases its node table and
// element metadata.
type Program struct {
	ckt *circuit.Circuit

	n    int // node unknowns
	m    int // voltage-source branch unknowns
	size int // full MNA unknowns n+m: the layout of DCResult.X and warm seeds

	// Source elimination (DESIGN.md §7). A node fixed by a ground-referenced
	// voltage source is a known boundary value, written from the source's
	// waveform at every time point: its KCL row and the source's branch
	// current leave the Newton system, which keeps only the free unknowns —
	// the remaining node voltages first, then the branch currents of the
	// floating sources. row maps a full MNA unknown to its free-system
	// index (-1 when eliminated), free maps back; plans carry both, reading
	// voltages by full index and stamping by free index.
	pins  []pinPlan
	row   []int
	free  []int
	nfree int // free node voltages: free indices [0, nfree)
	fsize int // free-system size: nfree + floating-source branches
	// bound lists the linear entries of free rows on pinned-node columns
	// (resistors, floating-source incidence); with the node values known
	// they move into the right-hand side.
	bound []coupling
	// stepCaps and stepNL index the capacitors with at least one free
	// terminal: a capacitor between two known voltages cannot affect the
	// free solution, so it drops out of the transient step loop.
	stepCaps []int
	stepNL   []int

	// linear records, once at Compile time, that the program contains no
	// nonlinear device stamps (MOSFETs, table VCCSs): its Jacobian never
	// depends on the iterate, so a transient run can factor the system
	// matrix once and back-substitute per timestep (see
	// Session.RunTransient's linear fast path).
	linear bool

	// Stamp plans. Node fields are full indices and r-prefixed fields
	// free-system rows; ground is -1 in both, and a pinned node is -1 as a
	// row.
	res    []resPlan
	caps   []capPlan
	nlcaps []nlCapPlan // voltage-dependent gate caps, re-stamped per Newton iteration
	mos    []mosPlan
	vccs   []vccsPlan
	vsrc   []twoTerm // full branch index of source k is n+k
	isrc   []twoTerm

	// Compile-time parameter values, copied into each new Session.
	srcW0  []*wave.Waveform // voltage-source waveforms
	isrcW0 []*wave.Waveform // current-source waveforms
	capC0  []float64        // capacitances (F)

	srcIdx  map[string]int // voltage-source name -> handle
	capIdx  map[string]int // capacitor name -> handle
	isrcIdx map[string]int // current-source name -> handle
}

// pinPlan is a node fixed by voltage source src: v(node) = sign·V_src(t),
// with sign +1 when the node is the source's positive terminal and −1 when
// it is the negative one (the other terminal being ground).
type pinPlan struct {
	node, src int
	sign      float64
}

// coupling is one linear Jacobian entry of free row `row` on the column
// of pinned node `node`: the residual holds g·v(node), a known value.
type coupling struct {
	row, node int
	g         float64
}

type resPlan struct {
	a, b, ra, rb int
	g            float64
}

type capPlan struct{ a, b, ra, rb int }

// nlCapPlan is a voltage-dependent capacitor stamp: unlike capPlan, whose
// companion conductance is pre-stamped into the transient system matrix
// once per run, an nlCapPlan re-evaluates C(u) and dC/du from the current
// iterate inside every Newton assembly (charge-conserving companion form,
// see Session.assemble). u = v(a) − v(b).
type nlCapPlan struct {
	a, b, ra, rb int
	cp           device.CapParams
}

type mosPlan struct {
	d, g, s    int
	rd, rg, rs int
	p          device.Params
}

type vccsPlan struct {
	out, ctrl   int
	rout, rctrl int
	f           circuit.VCCSFunc
}

type twoTerm struct{ pos, neg, rpos, rneg int }

// SourceHandle identifies a voltage source of a compiled Program for
// parameter mutation between Session runs.
type SourceHandle int

// CapHandle identifies a capacitor of a compiled Program for load mutation
// between Session runs.
type CapHandle int

// ISourceHandle identifies a current source of a compiled Program for
// stimulus mutation between Session runs (see Session.SetISource).
type ISourceHandle int

// Compile resolves a circuit into an immutable Program. The circuit must
// not be modified afterwards.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{
		ckt:     c,
		n:       c.NumNodes(),
		m:       len(c.VSources),
		srcIdx:  make(map[string]int, len(c.VSources)),
		capIdx:  make(map[string]int, len(c.Capacitors)),
		isrcIdx: make(map[string]int, len(c.ISources)),
	}
	p.size = p.n + p.m
	p.eliminateSources()
	for _, r := range c.Resistors {
		a, b := idx(r.A), idx(r.B)
		rp := resPlan{a: a, b: b, ra: p.rowOf(a), rb: p.rowOf(b), g: 1 / r.R}
		p.res = append(p.res, rp)
		p.couple(rp.ra, b, -rp.g)
		p.couple(rp.rb, a, -rp.g)
	}
	for _, cp := range c.Capacitors {
		p.caps = append(p.caps, p.capPlanOf(idx(cp.A), idx(cp.B)))
		p.capC0 = append(p.capC0, cp.C)
	}
	for i := range c.Capacitors {
		p.capIdx[c.Capacitors[i].Name] = i
	}
	for i := range c.Mosfets {
		mf := &c.Mosfets[i]
		d, g, s := idx(mf.D), idx(mf.G), idx(mf.S)
		p.mos = append(p.mos, mosPlan{d: d, g: g, s: s, rd: p.rowOf(d), rg: p.rowOf(g), rs: p.rowOf(s), p: mf.P})
		// Gate-charge caps riding on the device. Co = 0 is the
		// zero-modulation reduction: the cap is constant, so it joins the
		// ordinary pre-stamped capPlan list (registered under
		// "<name>.cgd"/"<name>.cgs") and the program keeps the precomputed
		// companion fast path — bit-identical to an explicit AddC.
		p.compileMOSCap(mf.Name+".cgd", mf.P.CGD, g, d)
		p.compileMOSCap(mf.Name+".cgs", mf.P.CGS, g, s)
	}
	for i := range c.VCCSs {
		e := &c.VCCSs[i]
		out, ctrl := idx(e.Out), idx(e.Ctrl)
		p.vccs = append(p.vccs, vccsPlan{out: out, ctrl: ctrl, rout: p.rowOf(out), rctrl: p.rowOf(ctrl), f: e.F})
	}
	for k, v := range c.VSources {
		pos, neg := idx(v.Pos), idx(v.Neg)
		p.vsrc = append(p.vsrc, twoTerm{pos: pos, neg: neg, rpos: p.rowOf(pos), rneg: p.rowOf(neg)})
		p.srcW0 = append(p.srcW0, v.W)
		p.srcIdx[v.Name] = k
		// A floating source keeps its branch row v(pos) − v(neg) = V; a
		// pinned terminal's part of it is known.
		if br := p.row[p.n+k]; br >= 0 {
			p.couple(br, pos, 1)
			p.couple(br, neg, -1)
		}
	}
	for k, is := range c.ISources {
		pos, neg := idx(is.Pos), idx(is.Neg)
		p.isrc = append(p.isrc, twoTerm{pos: pos, neg: neg, rpos: p.rowOf(pos), rneg: p.rowOf(neg)})
		p.isrcW0 = append(p.isrcW0, is.W)
		p.isrcIdx[is.Name] = k
	}
	for i, cp := range p.caps {
		if cp.ra >= 0 || cp.rb >= 0 {
			p.stepCaps = append(p.stepCaps, i)
		}
	}
	for i, nc := range p.nlcaps {
		if nc.ra >= 0 || nc.rb >= 0 {
			p.stepNL = append(p.stepNL, i)
		}
	}
	p.linear = len(p.mos) == 0 && len(p.vccs) == 0 && len(p.nlcaps) == 0
	return p
}

// eliminateSources pins every node that a ground-referenced voltage source
// fixes and numbers the free unknowns: free nodes in node order, then the
// branches of the remaining (floating) sources in source order. A second
// source on an already pinned node stays floating, so a parallel-source
// conflict stays the singular system it is in full MNA.
func (p *Program) eliminateSources() {
	pinned := make([]bool, p.n)
	for k, v := range p.ckt.VSources {
		pos, neg := idx(v.Pos), idx(v.Neg)
		switch {
		case neg < 0 && pos >= 0 && !pinned[pos]:
			pinned[pos] = true
			p.pins = append(p.pins, pinPlan{node: pos, src: k, sign: 1})
		case pos < 0 && neg >= 0 && !pinned[neg]:
			pinned[neg] = true
			p.pins = append(p.pins, pinPlan{node: neg, src: k, sign: -1})
		}
	}
	isPinSrc := make([]bool, p.m)
	for _, pn := range p.pins {
		isPinSrc[pn.src] = true
	}
	p.row = make([]int, p.size)
	for i := range p.row {
		p.row[i] = -1
	}
	for i := 0; i < p.n; i++ {
		if !pinned[i] {
			p.row[i] = len(p.free)
			p.free = append(p.free, i)
		}
	}
	p.nfree = len(p.free)
	for k := 0; k < p.m; k++ {
		if !isPinSrc[k] {
			p.row[p.n+k] = len(p.free)
			p.free = append(p.free, p.n+k)
		}
	}
	p.fsize = len(p.free)
}

// rowOf returns the free-system row of node i: -1 for ground and for a
// pinned node.
func (p *Program) rowOf(i int) int {
	if i < 0 {
		return -1
	}
	return p.row[i]
}

// couple records a linear entry g of free row r on node i when the entry
// falls on a pinned column (r is free, i is neither ground nor free).
func (p *Program) couple(r, i int, g float64) {
	if r >= 0 && i >= 0 && p.row[i] < 0 {
		p.bound = append(p.bound, coupling{row: r, node: i, g: g})
	}
}

func (p *Program) capPlanOf(a, b int) capPlan {
	return capPlan{a: a, b: b, ra: p.rowOf(a), rb: p.rowOf(b)}
}

// compileMOSCap compiles one gate-charge capacitor of a MOSFET instance. A
// zero CapParams means the device has no gate-charge model and stamps
// nothing; Co = 0 reduces to a constant capPlan; otherwise the cap becomes
// an nlCapPlan re-evaluated per Newton iteration. u = v(a) − v(b) with a
// the gate node.
func (p *Program) compileMOSCap(name string, cp device.CapParams, a, b int) {
	if cp.IsZero() || a == b {
		return
	}
	if cp.Co == 0 {
		p.capIdx[name] = len(p.caps)
		p.caps = append(p.caps, p.capPlanOf(a, b))
		p.capC0 = append(p.capC0, cp.Cp)
		return
	}
	p.nlcaps = append(p.nlcaps, nlCapPlan{a: a, b: b, ra: p.rowOf(a), rb: p.rowOf(b), cp: cp})
}

// Linear reports whether the program contains no nonlinear device stamps —
// resistors, capacitors and independent sources only. Linear programs take
// the transient fast path: the system matrix is factored once per run and
// every timestep is a forward/back-substitution, with zero Newton
// iterations (see Session.RunTransient).
func (p *Program) Linear() bool { return p.linear }

// Circuit returns the source circuit, for node and probe name lookups.
func (p *Program) Circuit() *circuit.Circuit { return p.ckt }

// Size returns the number of full MNA unknowns (nodes plus source
// branches) — the layout of DCResult.X and of SeedWarmStart vectors. The
// Newton system a Session solves keeps only the free unknowns.
func (p *Program) Size() int { return p.size }

// Source returns the handle of the named voltage source.
func (p *Program) Source(name string) (SourceHandle, bool) {
	k, ok := p.srcIdx[name]
	return SourceHandle(k), ok
}

// MustSource is Source for names known to exist; it panics otherwise.
func (p *Program) MustSource(name string) SourceHandle {
	h, ok := p.Source(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown voltage source %q", name))
	}
	return h
}

// Cap returns the handle of the named capacitor.
func (p *Program) Cap(name string) (CapHandle, bool) {
	k, ok := p.capIdx[name]
	return CapHandle(k), ok
}

// MustCap is Cap for names known to exist; it panics otherwise.
func (p *Program) MustCap(name string) CapHandle {
	h, ok := p.Cap(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown capacitor %q", name))
	}
	return h
}

// ISource returns the handle of the named current source.
func (p *Program) ISource(name string) (ISourceHandle, bool) {
	k, ok := p.isrcIdx[name]
	return ISourceHandle(k), ok
}

// MustISource is ISource for names known to exist; it panics otherwise.
func (p *Program) MustISource(name string) ISourceHandle {
	h, ok := p.ISource(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown current source %q", name))
	}
	return h
}
