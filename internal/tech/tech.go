// Package tech defines the technology cards for the two process nodes the
// paper evaluates: 0.13 µm (VDD 1.2 V) and 90 nm (VDD 1.0 V).
//
// A card bundles the Level-1 transistor parameters, capacitance
// coefficients used to derive pin and diffusion loads, and per-layer wire
// parasitics used by the interconnect generator. Values are representative
// of published data for these nodes; the reproduction needs realistic
// *ratios* (coupling versus ground capacitance, driver resistance versus
// wire resistance), not any particular foundry's absolutes — see
// DESIGN.md §2.
package tech

import (
	"fmt"
	"sort"

	"stanoise/internal/device"
)

// WireParams holds per-micron parasitics of a routing layer at minimum
// width. CcPerUm is the line-to-line coupling at minimum spacing; the
// coupling at s times minimum spacing scales as CcPerUm/s (parallel-plate
// approximation, adequate for noise-cluster modelling).
type WireParams struct {
	RPerUm  float64 // series resistance (Ω/µm)
	CgPerUm float64 // capacitance to ground (F/µm)
	CcPerUm float64 // coupling capacitance to one neighbour at min spacing (F/µm)
}

// Coupling returns the per-micron coupling capacitance at the given
// multiple of minimum spacing.
func (w WireParams) Coupling(spacingFactor float64) float64 {
	if spacingFactor <= 0 {
		panic("tech: spacing factor must be positive")
	}
	return w.CcPerUm / spacingFactor
}

// MOSParams holds the Level-1 card for one polarity plus the capacitance
// coefficients needed to build pin loads.
type MOSParams struct {
	KP     float64 // µCox (A/V²)
	VT0    float64 // threshold (V); negative for PMOS
	Lambda float64 // channel-length modulation (1/V)

	CGatePerWL float64 // gate-oxide capacitance per W·L (F/m²)
	COverlap   float64 // gate-drain/source overlap capacitance per width (F/m)
	CJunction  float64 // drain/source junction capacitance per width (F/m)

	// Nonlinear gate-charge model (the NLMOS extension, see
	// device.CapParams). CNLFrac is the fraction of each half-gate
	// capacitance carried by the tanh modulation term: the cell builder
	// splits C_half into Cp = (1−CNLFrac)·C_half and Co = CNLFrac·C_half,
	// so the capacitance swings between (1−CNLFrac)·C_half and
	// (1+CNLFrac)·C_half with C_half at the transition midpoint. The P0/P1
	// pairs place and scale the C_GD and C_GS transitions along their
	// branch voltages (u_gd = vg−vd, u_gs = vg−vs).
	//
	// All-zero means "no nonlinear gate model" — the zero-means-constant
	// trick mirroring Corner's zero-means-nominal: base cards carry zeros,
	// so every legacy netlist, fingerprint and store artefact stays
	// bit-stable, and only cards derived via Tech.WithNonlinearCaps opt
	// into the model.
	CNLFrac float64 // modulation fraction of the half-gate cap; 0 = constant caps
	CNLGDP0 float64 // C_GD transition offset
	CNLGDP1 float64 // C_GD transition slope (1/V)
	CNLGSP0 float64 // C_GS transition offset
	CNLGSP1 float64 // C_GS transition slope (1/V)
}

// Tech is a process technology card.
type Tech struct {
	Name string
	VDD  float64 // supply (V)
	Lmin float64 // minimum channel length (m)

	NMOS MOSParams
	PMOS MOSParams

	// Wires maps layer names ("M2".."M6") to parasitics.
	Wires map[string]WireParams

	// WUnit is the NMOS width of a unit-drive (X1) inverter; PMOS widths
	// are scaled by PNRatio to balance rise/fall strength.
	WUnit   float64
	PNRatio float64

	// Corner records the operating corner this card was derived for
	// (Corner.Apply); nil on a nominal base card. Fingerprint renders it,
	// so per-corner artefacts never alias, and its absence keeps every
	// pre-corner key bit-stable. Like every other field it is part of the
	// card's content identity: a card edited in place after use simply
	// keys as the new card it has become.
	Corner *Corner
}

// Fingerprint renders the card's identity: every device-relevant field at
// full precision, deterministically. It is the one identity every
// in-process cache and pool key and every persistent store key is built
// from (cell.Cell.Fingerprint adds the cell name), so two cards that
// simulate differently never share an artefact, whatever their names.
// The text is recomputed on each call rather than memoized: a memo would
// be copied along with the card by Corner.Apply and WithNonlinearCaps and
// go stale on the derived card.
//
// Wire parasitics are deliberately excluded: they shape interconnect
// models, not cell characterisation, and including them would invalidate
// every cell artefact on a routing-stack edit. Keys of artefacts that do
// embed wires (core's compiled golden benches) render the wire
// parameters they use themselves.
//
// A card derived for an operating corner (Corner.Apply) additionally
// renders the corner fingerprint, so per-corner artefacts are addressed by
// both the scaled parameters *and* the corner identity — two corners that
// happened to scale to the same numbers still never alias. The nonlinear
// gate-charge segment renders only on cards that carry the model
// (WithNonlinearCaps). Nominal constant-cap cards therefore render exactly
// the text that predates both axes, keeping every existing store entry
// reachable (pinned by charstore's TestStoreKeysPinned).
func (t *Tech) Fingerprint() string {
	mos := func(m MOSParams) string {
		fp := fmt.Sprintf("KP=%.17g VT0=%.17g LAMBDA=%.17g CG=%.17g COV=%.17g CJ=%.17g",
			m.KP, m.VT0, m.Lambda, m.CGatePerWL, m.COverlap, m.CJunction)
		if m.CNLFrac != 0 {
			fp += fmt.Sprintf(" NLCAP{frac=%.17g gd=%.17g/%.17g gs=%.17g/%.17g}",
				m.CNLFrac, m.CNLGDP0, m.CNLGDP1, m.CNLGSP0, m.CNLGSP1)
		}
		return fp
	}
	fp := fmt.Sprintf("tech=%s VDD=%.17g Lmin=%.17g WUnit=%.17g PNRatio=%.17g NMOS{%s} PMOS{%s}",
		t.Name, t.VDD, t.Lmin, t.WUnit, t.PNRatio, mos(t.NMOS), mos(t.PMOS))
	if t.Corner != nil {
		fp += " Corner{" + t.Corner.Fingerprint() + "}"
	}
	return fp
}

// Layer returns the wire parameters for a layer name.
func (t *Tech) Layer(name string) (WireParams, error) {
	w, ok := t.Wires[name]
	if !ok {
		names := make([]string, 0, len(t.Wires))
		for n := range t.Wires {
			names = append(names, n)
		}
		sort.Strings(names)
		return WireParams{}, fmt.Errorf("tech %s: unknown layer %q (have %v)", t.Name, name, names)
	}
	return w, nil
}

// NMOSDevice returns a Level-1 instance card for an NMOS of the given
// width at minimum length.
func (t *Tech) NMOSDevice(w float64) device.Params {
	return device.Params{
		Kind: device.NMOS, W: w, L: t.Lmin,
		KP: t.NMOS.KP, VT0: t.NMOS.VT0, Lambda: t.NMOS.Lambda,
	}
}

// PMOSDevice returns a Level-1 instance card for a PMOS of the given
// width at minimum length.
func (t *Tech) PMOSDevice(w float64) device.Params {
	return device.Params{
		Kind: device.PMOS, W: w, L: t.Lmin,
		KP: t.PMOS.KP, VT0: t.PMOS.VT0, Lambda: t.PMOS.Lambda,
	}
}

// NonlinearCaps reports whether the card carries the NLMOS voltage-dependent
// gate-charge model (see MOSParams.CNLFrac). False for every base card.
func (t *Tech) NonlinearCaps() bool {
	return t.NMOS.CNLFrac != 0 || t.PMOS.CNLFrac != 0
}

// WithNonlinearCaps derives a card carrying the NLMOS gate-charge model:
// half of each half-gate capacitance becomes tanh-modulated (CNLFrac = 0.5),
// with the C_GS transition anchored at the polarity's threshold voltage
// (P0 = −P1·VT0, so the capacitance rises as the channel forms) and a
// gentler C_GD transition around the drain-overlap bias. The receiver is a
// fresh card — the base card is never mutated, mirroring Corner.Apply — and
// a card that already carries the model is returned unchanged, which makes
// the derivation idempotent and commutes with Corner.Apply (Apply shifts
// the VT-anchored P0 alongside VT0; property-tested).
func (t *Tech) WithNonlinearCaps() *Tech {
	if t.NonlinearCaps() {
		return t
	}
	d := *t
	d.NMOS.CNLFrac = 0.5
	d.NMOS.CNLGSP1 = 2.0
	d.NMOS.CNLGSP0 = -d.NMOS.CNLGSP1 * t.NMOS.VT0
	d.NMOS.CNLGDP1 = 1.2
	d.NMOS.CNLGDP0 = -0.4
	d.PMOS.CNLFrac = 0.5
	d.PMOS.CNLGSP1 = -2.0
	d.PMOS.CNLGSP0 = -d.PMOS.CNLGSP1 * t.PMOS.VT0
	d.PMOS.CNLGDP1 = -1.2
	d.PMOS.CNLGDP0 = -0.4
	return &d
}

// GateCap returns the total gate capacitance of a device of width w at
// minimum length (oxide plus both overlaps), used for receiver pin loads.
func (t *Tech) GateCap(p MOSParams, w float64) float64 {
	return p.CGatePerWL*w*t.Lmin + 2*p.COverlap*w
}

// DiffCap returns the drain-diffusion capacitance of a device of width w,
// used for cell output parasitics.
func (t *Tech) DiffCap(p MOSParams, w float64) float64 {
	return p.CJunction * w
}

// Tech130 returns the 0.13 µm card (VDD = 1.2 V), the paper's primary node.
func Tech130() *Tech {
	return &Tech{
		Name: "cmos130",
		VDD:  1.2,
		Lmin: 0.13e-6,
		NMOS: MOSParams{
			KP: 340e-6, VT0: 0.35, Lambda: 0.15,
			CGatePerWL: 1.2e-2, COverlap: 0.30e-9, CJunction: 0.9e-9,
		},
		PMOS: MOSParams{
			KP: 90e-6, VT0: -0.38, Lambda: 0.20,
			CGatePerWL: 1.2e-2, COverlap: 0.30e-9, CJunction: 1.0e-9,
		},
		Wires: map[string]WireParams{
			// Lower layers: thin, resistive, modest coupling.
			"M2": {RPerUm: 0.25, CgPerUm: 0.035e-15, CcPerUm: 0.085e-15},
			"M3": {RPerUm: 0.18, CgPerUm: 0.038e-15, CcPerUm: 0.090e-15},
			// M4: the paper's experiment layer — intermediate metal where
			// coupling dominates ground capacitance for long parallel runs.
			"M4": {RPerUm: 0.085, CgPerUm: 0.040e-15, CcPerUm: 0.095e-15},
			"M5": {RPerUm: 0.060, CgPerUm: 0.042e-15, CcPerUm: 0.100e-15},
			"M6": {RPerUm: 0.030, CgPerUm: 0.050e-15, CcPerUm: 0.085e-15},
		},
		WUnit:   0.6e-6,
		PNRatio: 2.0,
	}
}

// Tech90 returns the 90 nm card (VDD = 1.0 V), the paper's second node.
func Tech90() *Tech {
	return &Tech{
		Name: "cmos090",
		VDD:  1.0,
		Lmin: 0.10e-6,
		NMOS: MOSParams{
			KP: 450e-6, VT0: 0.30, Lambda: 0.20,
			CGatePerWL: 1.4e-2, COverlap: 0.28e-9, CJunction: 0.8e-9,
		},
		PMOS: MOSParams{
			KP: 115e-6, VT0: -0.32, Lambda: 0.25,
			CGatePerWL: 1.4e-2, COverlap: 0.28e-9, CJunction: 0.9e-9,
		},
		Wires: map[string]WireParams{
			"M2": {RPerUm: 0.40, CgPerUm: 0.030e-15, CcPerUm: 0.095e-15},
			"M3": {RPerUm: 0.30, CgPerUm: 0.032e-15, CcPerUm: 0.100e-15},
			"M4": {RPerUm: 0.15, CgPerUm: 0.035e-15, CcPerUm: 0.105e-15},
			"M5": {RPerUm: 0.10, CgPerUm: 0.038e-15, CcPerUm: 0.110e-15},
			"M6": {RPerUm: 0.05, CgPerUm: 0.045e-15, CcPerUm: 0.095e-15},
		},
		WUnit:   0.5e-6,
		PNRatio: 2.1,
	}
}

// ByName returns a technology card by its name.
func ByName(name string) (*Tech, error) {
	switch name {
	case "cmos130", "130", "0.13um":
		return Tech130(), nil
	case "cmos090", "90", "90nm":
		return Tech90(), nil
	}
	return nil, fmt.Errorf("tech: unknown technology %q (have cmos130, cmos090)", name)
}
