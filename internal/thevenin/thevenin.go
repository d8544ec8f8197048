// Package thevenin fits linear Thevenin-equivalent models of switching
// aggressor drivers: a saturated voltage ramp V_TH behind a resistance
// R_TH, following the approach of Dartu–Pileggi ("Calculating Worst-Case
// Gate Delay Due to Dominant Capacitance Coupling", DAC'97 — the paper's
// reference [7]).
//
// R_TH comes from the driver's DC strength at mid-swing; the ramp's start
// time and transition time are then fitted so the linear model's response
// into the driver's lumped load reproduces two crossing times of the
// transistor-level response. The fitted model is what the noise-cluster
// macromodel (Figure 1) places at each aggressor driving point.
package thevenin

import (
	"context"
	"fmt"
	"math"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/circuit"
	"stanoise/internal/sim"
	"stanoise/internal/wave"
)

// FitVersion identifies the fitting procedure. Memoized and persisted fits
// key on it, so a change to how Fit maps a golden response to a Driver
// must bump it: a store filled by the previous procedure then misses
// instead of serving its fits. Version 2 fits the ramp of a re-fitted
// (sharp) transition to the early 20→50 % crossing gap (see fitRamp).
const FitVersion = 2

// refitCrossing is the early swing fraction that pins the ramp duration
// of a re-fitted transition (see fitRamp).
const refitCrossing = 0.2

// Driver is a fitted Thevenin model of a switching driver.
type Driver struct {
	V0, V1 float64 // pre- and post-transition output levels (V)
	T0     float64 // fitted ramp start time (s)
	Tr     float64 // fitted transition (ramp) time (s)
	RTh    float64 // Thevenin resistance (Ω)
}

// Waveform returns the saturated-ramp source V_TH(t).
func (d *Driver) Waveform() *wave.Waveform {
	return wave.SaturatedRamp(d.V0, d.V1, d.T0, d.Tr)
}

// Shifted returns a copy of the driver with its ramp start moved by dt —
// the knob the alignment search turns.
func (d *Driver) Shifted(dt float64) *Driver {
	out := *d
	out.T0 += dt
	return &out
}

// FitOptions tunes the fitting procedure.
type FitOptions struct {
	InputSlew float64 // input ramp transition time; default 60 ps
	InputT0   float64 // input ramp start; default 100 ps
	Dt        float64 // golden simulation step; default 1 ps
	// Crossings are the two normalised swing fractions matched between the
	// golden response and the linear model; defaults {0.5, 0.8} — the 50 %
	// point and the 80 %-complete point.
	Crossings [2]float64
}

// Normalized returns the options with every default filled in — the
// canonical form callers should fingerprint when memoizing fits, so that
// zero values and explicit defaults key identically.
func (o FitOptions) Normalized() FitOptions { return o.normalize() }

func (o FitOptions) normalize() FitOptions {
	if o.InputSlew <= 0 {
		o.InputSlew = 60e-12
	}
	if o.InputT0 <= 0 {
		o.InputT0 = 100e-12
	}
	if o.Dt <= 0 {
		o.Dt = 1e-12
	}
	if o.Crossings[0] == 0 && o.Crossings[1] == 0 {
		o.Crossings = [2]float64{0.5, 0.8}
	}
	return o
}

// Fit characterises the aggressor driver cl switching pin switchPin from
// fromState (the remaining pins stay at their fromState rails), driving a
// lumped load of loadCap farads.
func Fit(ctx context.Context, cl *cell.Cell, fromState cell.State, switchPin string, loadCap float64, opts FitOptions) (*Driver, error) {
	opts = opts.normalize()
	toState := fromState.Clone()
	toState[switchPin] = !toState[switchPin]
	out0 := cl.Logic(fromState)
	out1 := cl.Logic(toState)
	if out0 == out1 {
		return nil, fmt.Errorf("thevenin: switching %s does not toggle %s output (state %v)",
			switchPin, cl.Name(), fromState)
	}
	v0 := cl.PinVoltage(out0)
	v1 := cl.PinVoltage(out1)

	rth, err := midSwingResistance(cl, toState, v0, v1)
	if err != nil {
		return nil, err
	}

	// Golden transistor-level response.
	goldenOut, err := simulateSwitch(ctx, cl, fromState, switchPin, loadCap, opts)
	if err != nil {
		return nil, err
	}
	// Crossing times of the normalised transition progress.
	progress := func(v float64) float64 { return (v - v0) / (v1 - v0) }
	tA := crossingTime(goldenOut, progress, opts.Crossings[0])
	tB := crossingTime(goldenOut, progress, opts.Crossings[1])
	if math.IsInf(tA, 0) || math.IsInf(tB, 0) || tB <= tA {
		return nil, fmt.Errorf("thevenin: golden response of %s never completes its transition", cl.Name())
	}
	tEarly := crossingTime(goldenOut, progress, refitCrossing)
	t0, tr, rth := fitRamp(rth, loadCap, opts.Crossings, tEarly, tA, tB)
	return &Driver{V0: v0, V1: v1, T0: t0, Tr: tr, RTh: rth}, nil
}

// fitRamp fits the ramp of the linear model to the golden crossing times
// tEarly (refitCrossing), tA and tB (crossings[0] and [1]) and returns
// its start time, duration and — re-fitted or not — resistance.
//
// The ramp duration reproduces the crossing spread tB−tA, and the start
// is placed from the first crossing. When the golden transition is
// sharper than the pure RC tail of the mid-swing resistance (even an
// instantaneous ramp spreads too much), the resistance is re-fitted from
// the observed spread instead, as the Dartu–Pileggi iteration adapts R_TH,
// so τ·ln((1−c₀)/(1−c₁)) equals the spread. That spread is then the
// model's for *every* ramp ending before the tA crossing: the tail past
// the ramp end is a pure exponential. Bisecting it for the duration
// would pick rounding noise, so a re-fitted ramp matches the golden
// tEarly→tA gap instead — the part of the transition the input ramp
// still shapes (DESIGN.md §14).
func fitRamp(rth, loadCap float64, crossings [2]float64, tEarly, tA, tB float64) (t0, tr, rthFit float64) {
	tau := rth * loadCap
	spread := tB - tA
	tr = fitRampDuration(tau, crossings, spread)
	if tr <= 2e-13 && loadCap > 0 {
		tauFit := spread / math.Log((1-crossings[0])/(1-crossings[1]))
		if tauFit > 0 && tauFit < tau {
			rth = tauFit / loadCap
			tau = tauFit
		}
		if tEarly < tA && refitCrossing < crossings[0] {
			tr = fitRampDuration(tau, [2]float64{refitCrossing, crossings[0]}, tA-tEarly)
		}
	}
	return tA - rampCrossing(tr, tau, crossings[0]), tr, rth
}

// midSwingResistance computes R_TH from the driver's DC current at
// mid-swing in its post-transition input state: R = (VDD/2)/|I(mid)|.
func midSwingResistance(cl *cell.Cell, toState cell.State, v0, v1 float64) (float64, error) {
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", cl.Tech.VDD)
	pins := map[string]string{}
	for _, in := range cl.Inputs() {
		node := "in_" + in
		pins[in] = node
		ckt.AddVDC("v_"+in, node, "0", cl.PinVoltage(toState[in]))
	}
	if err := cl.Build(ckt, "drv", pins, "out", "vdd"); err != nil {
		return 0, err
	}
	mid := 0.5 * (v0 + v1)
	ckt.AddVDC("vforce", "out", "0", mid)
	// A fit solves this bench exactly once, so the one-shot wrapper (which
	// compiles and opens a session internally) is the right interface.
	dc, err := sim.DC(ckt, sim.Options{})
	if err != nil {
		return 0, fmt.Errorf("thevenin: mid-swing DC: %w", err)
	}
	i := math.Abs(dc.BranchI("vforce"))
	if i <= 0 {
		return 0, fmt.Errorf("thevenin: %s sources no current at mid-swing", cl.Name())
	}
	return math.Abs(mid-v1) / i, nil
}

func simulateSwitch(ctx context.Context, cl *cell.Cell, fromState cell.State, switchPin string, loadCap float64, opts FitOptions) (*wave.Waveform, error) {
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", cl.Tech.VDD)
	pins := map[string]string{}
	for _, in := range cl.Inputs() {
		node := "in_" + in
		pins[in] = node
		if in == switchPin {
			from := cl.PinVoltage(fromState[in])
			to := cl.PinVoltage(!fromState[in])
			ckt.AddV("v_"+in, node, "0", wave.SaturatedRamp(from, to, opts.InputT0, opts.InputSlew))
		} else {
			ckt.AddVDC("v_"+in, node, "0", cl.PinVoltage(fromState[in]))
		}
	}
	if err := cl.Build(ckt, "drv", pins, "out", "vdd"); err != nil {
		return nil, err
	}
	if loadCap > 0 {
		ckt.AddC("cl", "out", "0", loadCap)
	}
	tstop := opts.InputT0 + opts.InputSlew + 2e-9
	res, err := sim.Transient(ctx, ckt, sim.Options{Dt: opts.Dt, TStop: tstop})
	if err != nil {
		return nil, fmt.Errorf("thevenin: golden switch simulation: %w", err)
	}
	return res.Waveform("out"), nil
}

// crossingTime returns the first time the normalised progress crosses frac.
func crossingTime(w *wave.Waveform, progress func(float64) float64, frac float64) float64 {
	for i := 1; i < len(w.T); i++ {
		p0, p1 := progress(w.V[i-1]), progress(w.V[i])
		if p0 < frac && p1 >= frac {
			f := (frac - p0) / (p1 - p0)
			return w.T[i-1] + f*(w.T[i]-w.T[i-1])
		}
	}
	return math.Inf(1)
}

// rampResponse returns the normalised transition progress of an RC load
// driven by a unit saturated ramp of duration tr through time constant tau,
// evaluated at time u after the ramp start. Progress goes 0→1.
func rampResponse(u, tr, tau float64) float64 {
	if u <= 0 {
		return 0
	}
	if u <= tr {
		// p(u) = (u - tau(1-e^{-u/tau})) / tr
		return (u - tau*(1-math.Exp(-u/tau))) / tr
	}
	pEnd := (tr - tau*(1-math.Exp(-tr/tau))) / tr
	return 1 - (1-pEnd)*math.Exp(-(u-tr)/tau)
}

// rampCrossing returns the time after ramp start at which rampResponse
// crosses frac (bisection; the response is monotonic).
func rampCrossing(tr, tau, frac float64) float64 {
	lo, hi := 0.0, tr+40*tau+1e-12
	for rampResponse(hi, tr, tau) < frac {
		hi *= 2
		if hi > 1 { // 1 second — hopeless
			return math.Inf(1)
		}
	}
	for k := 0; k < 80; k++ {
		midT := 0.5 * (lo + hi)
		if rampResponse(midT, tr, tau) < frac {
			lo = midT
		} else {
			hi = midT
		}
	}
	return 0.5 * (lo + hi)
}

// fitRampDuration finds tr such that the spread between the two crossing
// times of the linear model equals the golden spread. The spread grows
// monotonically with tr, so bisection is safe.
func fitRampDuration(tau float64, crossings [2]float64, spread float64) float64 {
	spreadOf := func(tr float64) float64 {
		return rampCrossing(tr, tau, crossings[1]) - rampCrossing(tr, tau, crossings[0])
	}
	lo := 1e-13
	hi := 10 * spread
	for spreadOf(hi) < spread && hi < 1e-6 {
		hi *= 2
	}
	if spreadOf(lo) > spread {
		// Even an instantaneous ramp spreads more than the golden response
		// (pure RC tail dominates): use the minimal ramp.
		return lo
	}
	for k := 0; k < 70; k++ {
		mid := 0.5 * (lo + hi)
		if spreadOf(mid) < spread {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// RTFromLoadCurve derives R_TH directly from a characterised load curve at
// mid-swing, avoiding a DC solve when a table is already available.
func RTFromLoadCurve(lc *charlib.LoadCurve, vinFinal, v0, v1 float64) float64 {
	mid := 0.5 * (v0 + v1)
	i, _, _ := lc.Eval(vinFinal, mid)
	if i == 0 {
		return math.Inf(1)
	}
	return math.Abs(mid-v1) / math.Abs(i)
}
