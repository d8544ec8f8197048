package mor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stanoise/internal/linalg"
)

// ladder builds an n-segment RC ladder: in -(R)- m1 -(R)- ... -(R)- out,
// with C to ground at every tap.
func ladder(n int, rSeg, cSeg float64) (*Network, []string) {
	nodes := make([]string, n+1)
	nodes[0] = "in"
	for i := 1; i < n; i++ {
		nodes[i] = "m" + string(rune('0'+i))
	}
	nodes[n] = "out"
	net := NewNetwork(nodes)
	for i := 0; i < n; i++ {
		net.AddR(nodes[i], nodes[i+1], rSeg)
	}
	for i := 0; i <= n; i++ {
		c := cSeg
		if i == 0 || i == n {
			c = cSeg / 2
		}
		net.AddC(nodes[i], "0", c)
	}
	return net, nodes
}

func TestNetworkStamping(t *testing.T) {
	net := NewNetwork([]string{"a", "b"})
	net.AddR("a", "b", 100)
	net.AddC("a", "0", 1e-15)
	net.AddC("a", "b", 2e-15)
	if g := net.G.At(0, 0); math.Abs(g-0.01) > 1e-15 {
		t.Errorf("G[0,0] = %v", g)
	}
	if g := net.G.At(0, 1); math.Abs(g+0.01) > 1e-15 {
		t.Errorf("G[0,1] = %v", g)
	}
	if c := net.C.At(0, 0); math.Abs(c-3e-15) > 1e-27 {
		t.Errorf("C[0,0] = %v", c)
	}
	if c := net.C.At(1, 1); math.Abs(c-2e-15) > 1e-27 {
		t.Errorf("C[1,1] = %v", c)
	}
}

func TestIslands(t *testing.T) {
	net := NewNetwork([]string{"a", "b", "c", "d"})
	net.AddR("a", "b", 10)
	net.AddR("c", "d", 10)
	net.AddC("b", "c", 1e-15) // capacitive coupling does not join islands
	comps := net.islands()
	if len(comps) != 2 {
		t.Fatalf("islands = %d, want 2", len(comps))
	}
}

func TestReduceMatchesFullImpedance(t *testing.T) {
	net, nodes := ladder(12, 5.0, 4e-15)
	ports := []string{nodes[0], nodes[12]}
	red, err := Reduce(net, ports, Options{Moments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if red.Q >= net.Size() {
		t.Errorf("no reduction: q=%d of n=%d", red.Q, net.Size())
	}
	for _, s := range []float64{1e8, 1e9, 1e10, 5e10} {
		zf, err := net.PortImpedance(ports, s)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := red.PortImpedance(s)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				rel := math.Abs(zr.At(r, c)-zf.At(r, c)) / math.Abs(zf.At(r, c))
				if rel > 0.02 {
					t.Errorf("s=%g Z[%d,%d]: reduced %.4g vs full %.4g (rel %.3g)",
						s, r, c, zr.At(r, c), zf.At(r, c), rel)
				}
			}
		}
	}
}

func TestReduceCoupledLines(t *testing.T) {
	// Two 10-segment lines with coupling caps; ports at both near ends and
	// the victim far end.
	var nodes []string
	for _, ln := range []string{"v", "a"} {
		for j := 0; j <= 10; j++ {
			nodes = append(nodes, ln+"_"+string(rune('0'+j/10))+string(rune('0'+j%10)))
		}
	}
	net := NewNetwork(nodes)
	name := func(line string, j int) string {
		return line + "_" + string(rune('0'+j/10)) + string(rune('0'+j%10))
	}
	for _, ln := range []string{"v", "a"} {
		for j := 0; j < 10; j++ {
			net.AddR(name(ln, j), name(ln, j+1), 4.25)
		}
		for j := 0; j <= 10; j++ {
			net.AddC(name(ln, j), "0", 2e-15)
		}
	}
	for j := 0; j <= 10; j++ {
		net.AddC(name("v", j), name("a", j), 4.75e-15)
	}
	ports := []string{name("v", 0), name("a", 0), name("v", 10)}
	red, err := Reduce(net, ports, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{1e9, 1e10, 1e11} {
		zf, _ := net.PortImpedance(ports, s)
		zr, err := red.PortImpedance(s)
		if err != nil {
			t.Fatal(err)
		}
		// Check the victim driving-point self-impedance and the
		// aggressor→victim transfer term.
		for _, rc := range [][2]int{{0, 0}, {0, 1}, {2, 0}} {
			f, r := zf.At(rc[0], rc[1]), zr.At(rc[0], rc[1])
			if math.Abs(r-f) > 0.03*math.Abs(f)+1e-3 {
				t.Errorf("s=%g Z[%d,%d]: %.5g vs %.5g", s, rc[0], rc[1], r, f)
			}
		}
	}
}

// TestReducedSymmetry pins that Reduce returns bitwise symmetric Gr and
// Cr — the macromodel engine rejects anything else — on a single-port
// ladder and on a three-port coupled pair.
func TestReducedSymmetry(t *testing.T) {
	net, nodes := ladder(8, 10, 2e-15)
	red, err := Reduce(net, []string{nodes[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cnodes := make([]string, len(nodes))
	for i, n := range nodes {
		cnodes[i] = "b" + n
	}
	all := append(append([]string(nil), nodes...), cnodes...)
	pair := NewNetwork(all)
	for i := 0; i < 8; i++ {
		pair.AddR(nodes[i], nodes[i+1], 10)
		pair.AddR(cnodes[i], cnodes[i+1], 7)
		pair.AddC(nodes[i], cnodes[i], 4e-15)
	}
	for i := 0; i <= 8; i++ {
		pair.AddC(nodes[i], "0", 2e-15)
		pair.AddC(cnodes[i], "0", 3e-15)
	}
	redPair, err := Reduce(pair, []string{nodes[0], cnodes[0], nodes[8]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Reduced{"ladder": red, "coupled": redPair} {
		if !r.Gr.IsSymmetric() {
			t.Errorf("%s: Gr is not bitwise symmetric", name)
		}
		if !r.Cr.IsSymmetric() {
			t.Errorf("%s: Cr is not bitwise symmetric", name)
		}
	}
	// Cr must be positive on the diagonal (passive storage).
	for i := 0; i < red.Q; i++ {
		if red.Cr.At(i, i) <= 0 {
			t.Errorf("Cr[%d,%d] = %v, want > 0", i, i, red.Cr.At(i, i))
		}
	}
}

func TestReduceUnknownPort(t *testing.T) {
	net, _ := ladder(4, 10, 1e-15)
	if _, err := Reduce(net, []string{"nope"}, Options{}); err == nil {
		t.Error("unknown port accepted")
	}
}

// Property: the reduced model preserves total charge transfer — the DC
// augmentation makes a constant injected current charge the reduced model
// at the same rate as the full network (Σ C matches along island vectors).
func TestChargeConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		rSeg := 1 + rng.Float64()*10
		cSeg := (1 + rng.Float64()*5) * 1e-15
		net, nodes := ladder(n, rSeg, cSeg)
		red, err := Reduce(net, []string{nodes[0]}, Options{})
		if err != nil {
			return false
		}
		// Full network total cap seen by a DC current: sum of all ground
		// caps. In the reduced model, inject unit current and integrate:
		// the late-time dv/dt at the port must equal 1/Ctotal.
		ctot := 0.0
		for i := 0; i < net.Size(); i++ {
			row := 0.0
			for j := 0; j < net.Size(); j++ {
				row += net.C.At(i, j)
			}
			ctot += row
		}
		// Late-time slope from the reduced model: solve Cr ẋ = B·1 along
		// the island direction — equivalently simulate a few steps of BE
		// and look at the asymptotic slope.
		h := rSeg * cSeg * float64(n) // comfortably into the DC regime
		a := red.Cr.Clone()
		a.Scale(1 / h)
		a.AddScaled(1, red.Gr)
		lu, err := linalg.Factor(a)
		if err != nil {
			return false
		}
		x := make([]float64, red.Q)
		iin := red.B.Col(0)
		var vPrev, v float64
		for step := 0; step < 400; step++ {
			rhs := make([]float64, red.Q)
			red.Cr.MulVecInto(rhs, x)
			for i := range rhs {
				rhs[i] = rhs[i]/h + iin[i]
			}
			x = lu.Solve(rhs)
			vPrev, v = v, red.PortVoltages(x)[0]
		}
		slope := (v - vPrev) / h
		want := 1 / ctot
		return math.Abs(slope-want) < 0.02*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
