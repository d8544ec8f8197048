// Package interconnect generates coupled distributed-RC models of parallel
// wires from routing geometry: length, metal layer and spacing. It is the
// parasitic-extraction stand-in for the paper's "wiring parasitics
// extracted from two 500 µm parallel-running interconnects, designed on
// metal layer 4" (see DESIGN.md §2).
//
// The same geometric description feeds both consumers: the golden
// transistor-level simulation (as R/C circuit elements) and the
// moment-matching reduction (as a mor.Network), guaranteeing that the two
// analyses see identical parasitics.
package interconnect

import (
	"fmt"

	"stanoise/internal/circuit"
	"stanoise/internal/mor"
	"stanoise/internal/tech"
)

// LineSpec describes one wire of a parallel coupled bundle.
type LineSpec struct {
	Name     string  // node-name prefix, e.g. "vic" or "agg1"
	LengthUm float64 // routed length in µm
	// SpacingFactor is the spacing to the NEXT line in the bundle as a
	// multiple of minimum spacing (1 = minimum). Ignored for the last line.
	SpacingFactor float64
}

// Bus is a bundle of parallel wires on one layer, discretised into RC
// segments with line-to-line coupling between laterally adjacent segments.
// The layer's wire parameters are copied at construction: later edits to
// the card's Wires do not reach an existing bus.
type Bus struct {
	Layer    string
	Segments int
	Lines    []LineSpec

	wp tech.WireParams
}

// NewBus builds a bus on the given layer. segments controls the spatial
// discretisation; 15 segments keeps the discretisation error of a 500 µm
// line well below the modelling effects under study.
func NewBus(t *tech.Tech, layer string, segments int, lines ...LineSpec) (*Bus, error) {
	if segments < 1 {
		return nil, fmt.Errorf("interconnect: need at least 1 segment, got %d", segments)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("interconnect: need at least one line")
	}
	wp, err := t.Layer(layer)
	if err != nil {
		return nil, err
	}
	for i := range lines {
		if lines[i].LengthUm <= 0 {
			return nil, fmt.Errorf("interconnect: line %q has non-positive length", lines[i].Name)
		}
		if lines[i].SpacingFactor == 0 {
			lines[i].SpacingFactor = 1
		}
	}
	return &Bus{Layer: layer, Segments: segments, Lines: lines, wp: wp}, nil
}

// WireParams returns the per-micron parasitics the bus was built with:
// its layer's parameters as resolved from the card at NewBus.
func (b *Bus) WireParams() tech.WireParams { return b.wp }

// node returns the node name of line i at tap j (0..Segments).
func (b *Bus) node(i, j int) string {
	return fmt.Sprintf("%s.%d", b.Lines[i].Name, j)
}

// InNode returns the driver-end (near-end) node of line i.
func (b *Bus) InNode(i int) string { return b.node(i, 0) }

// OutNode returns the receiver-end (far-end) node of line i.
func (b *Bus) OutNode(i int) string { return b.node(i, b.Segments) }

// NodeNames lists all bus nodes, line-major.
func (b *Bus) NodeNames() []string {
	var out []string
	for i := range b.Lines {
		for j := 0; j <= b.Segments; j++ {
			out = append(out, b.node(i, j))
		}
	}
	return out
}

// couplingLengthUm returns the parallel-run length between lines i and i+1
// over which coupling acts: the overlap of the two lengths.
func (b *Bus) couplingLengthUm(i int) float64 {
	l := b.Lines[i].LengthUm
	if n := b.Lines[i+1].LengthUm; n < l {
		l = n
	}
	return l
}

// stamper abstracts the two consumers (circuit and mor.Network).
type stamper interface {
	R(a, bn string, ohms float64)
	C(a, bn string, farads float64)
}

// build walks the geometry once, emitting segment resistors, ground caps
// (half at the end taps, full at interior taps) and coupling caps between
// laterally adjacent taps of neighbouring lines.
func (b *Bus) build(s stamper) {
	for i, ln := range b.Lines {
		segLen := ln.LengthUm / float64(b.Segments)
		rSeg := b.wp.RPerUm * segLen
		cSeg := b.wp.CgPerUm * segLen
		for j := 0; j < b.Segments; j++ {
			s.R(b.node(i, j), b.node(i, j+1), rSeg)
		}
		for j := 0; j <= b.Segments; j++ {
			c := cSeg
			if j == 0 || j == b.Segments {
				c = cSeg / 2
			}
			s.C(b.node(i, j), "0", c)
		}
	}
	for i := 0; i+1 < len(b.Lines); i++ {
		ccPerUm := b.wp.Coupling(b.Lines[i].SpacingFactor)
		segLen := b.couplingLengthUm(i) / float64(b.Segments)
		ccSeg := ccPerUm * segLen
		for j := 0; j <= b.Segments; j++ {
			c := ccSeg
			if j == 0 || j == b.Segments {
				c = ccSeg / 2
			}
			s.C(b.node(i, j), b.node(i+1, j), c)
		}
	}
}

type circuitStamper struct {
	ckt *circuit.Circuit
	n   int
}

func (cs *circuitStamper) R(a, b string, ohms float64) {
	cs.n++
	cs.ckt.AddR(fmt.Sprintf("rw%d", cs.n), a, b, ohms)
}

func (cs *circuitStamper) C(a, b string, farads float64) {
	cs.n++
	cs.ckt.AddC(fmt.Sprintf("cw%d", cs.n), a, b, farads)
}

// Build stamps the bus into a circuit for transistor-level simulation.
func (b *Bus) Build(ckt *circuit.Circuit) {
	b.build(&circuitStamper{ckt: ckt})
}

type networkStamper struct{ net *mor.Network }

func (ns networkStamper) R(a, b string, ohms float64)   { ns.net.AddR(a, b, ohms) }
func (ns networkStamper) C(a, b string, farads float64) { ns.net.AddC(a, b, farads) }

// Network builds the mor.Network of the bus. extraCaps adds lumped
// capacitances to ground at named nodes — receiver pin loads at far ends
// and driver output parasitics at near ends — so the reduced model includes
// them, exactly as the paper's macromodel lumps receiver input capacitance
// into the S-model.
func (b *Bus) Network(extraCaps map[string]float64) *mor.Network {
	net := mor.NewNetwork(b.NodeNames())
	b.build(networkStamper{net})
	for node, c := range extraCaps {
		net.AddC(node, "0", c)
	}
	return net
}

// GroundCapTotal returns the total ground capacitance of line i (F).
func (b *Bus) GroundCapTotal(i int) float64 {
	return b.wp.CgPerUm * b.Lines[i].LengthUm
}

// CouplingCapTotal returns the total coupling capacitance attached to line
// i, summed over both neighbours (F).
func (b *Bus) CouplingCapTotal(i int) float64 {
	total := 0.0
	if i > 0 {
		total += b.wp.Coupling(b.Lines[i-1].SpacingFactor) * b.couplingLengthUm(i-1)
	}
	if i+1 < len(b.Lines) {
		total += b.wp.Coupling(b.Lines[i].SpacingFactor) * b.couplingLengthUm(i)
	}
	return total
}

// TotalCap returns the lumped capacitance of line i including coupling —
// the load value used for pre-characterised table lookups, where coupling
// caps are conservatively grounded.
func (b *Bus) TotalCap(i int) float64 {
	return b.GroundCapTotal(i) + b.CouplingCapTotal(i)
}

// WireResistanceTotal returns the end-to-end resistance of line i (Ω).
func (b *Bus) WireResistanceTotal(i int) float64 {
	return b.wp.RPerUm * b.Lines[i].LengthUm
}
