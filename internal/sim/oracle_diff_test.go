package sim_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/charlib"
	"stanoise/internal/circuit"
	"stanoise/internal/nrc"
	"stanoise/internal/sim"
	"stanoise/internal/tech"
	"stanoise/internal/wave"
	"stanoise/paper"
)

// Agreement required between the source-eliminated Session and the
// full-MNA oracle. NRC heights must match bit for bit.
const (
	oracleTolV       = 1e-12 // node waveforms, propagated peaks, DC node voltages
	oracleAreaRel    = 1e-8  // propagated areas, relative
	oracleCurrentRel = 1e-9  // DC source currents, relative to the largest of the run
)

// oracleJobs is the char-farm benchmark's library slice: the
// single-stage cells and both NAND2/NOR2 pins at unit drive.
var oracleJobs = []struct {
	kind, pin string
	free      int // free unknowns of the propagation rig
}{
	{"INV", "A", 1}, {"BUF", "A", 2},
	{"NAND2", "A", 2}, {"NAND2", "B", 2},
	{"NOR2", "A", 2}, {"NOR2", "B", 2},
}

// deviation collects the largest disagreement seen per quantity.
type deviation struct {
	mu                      sync.Mutex
	wave, peak, area, icurr float64
}

func (d *deviation) note(wave, peak, area, icurr float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wave = math.Max(d.wave, wave)
	d.peak = math.Max(d.peak, peak)
	d.area = math.Max(d.area, area)
	d.icurr = math.Max(d.icurr, icurr)
}

// TestSimMatchesMNAOracle is the differential test of the
// source-eliminated Session against the full-MNA oracle it replaced
// (mnaOracle): identical programs, parameters and grids. It covers the
// char-farm jobs at the nominal card and two Monte Carlo corners —
// propagation table, NRC and load curve each — one core golden cluster
// bench, and a parsed netlist with floating sources. Each production
// artefact is also required to equal the Session run of the rig the test
// rebuilds, bit for bit, so the oracle is compared on the production rig.
func TestSimMatchesMNAOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("characterises 18 cell pins twice")
	}
	base := tech.Tech130()
	cards := []*tech.Tech{base}
	for _, c := range tech.SampleCorners(2, 5, tech.SampleSpec{}) {
		cards = append(cards, c.Apply(base))
	}
	var dev deviation
	t.Run("farm", func(t *testing.T) {
		for _, card := range cards {
			for _, job := range oracleJobs {
				name := fmt.Sprintf("%s/%s_%s", card.CornerTag(), job.kind, job.pin)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cl, err := cell.New(card, job.kind, 1)
					if err != nil {
						t.Fatal(err)
					}
					st, err := cl.SensitizedState(job.pin, true)
					if err != nil {
						t.Fatal(err)
					}
					checkPropTable(t, cl, st, job.pin, job.free, &dev)
					checkNRC(t, cl, st, job.pin)
					checkLoadCurve(t, cl, st, job.pin, &dev)
				})
			}
		}
	})
	t.Run("golden_cluster", func(t *testing.T) { checkGoldenCluster(t, &dev) })
	t.Run("floating_sources", func(t *testing.T) { checkFloatingNetlist(t, &dev) })
	t.Logf("max deviation vs full MNA: waveform %.3g V, peak %.3g V, area %.3g rel, source current %.3g rel",
		dev.wave, dev.peak, dev.area, dev.icurr)
}

// buildRig assembles the receiver bench charlib and nrc characterise
// on: the supply, one source per input (the noisy one a placeholder
// waveform), the cell as instance inst driving "out", and an optional
// output capacitor.
func buildRig(t *testing.T, cl *cell.Cell, st cell.State, pin, inst, capName string, capF float64) *sim.Program {
	t.Helper()
	ckt := circuit.New()
	ckt.AddVDC("vdd", "vdd", "0", cl.Tech.VDD)
	pins := map[string]string{}
	for _, in := range cl.Inputs() {
		node := "in_" + in
		pins[in] = node
		if in == pin && capName != "" {
			ckt.AddV("v_"+in, node, "0", wave.Constant(cl.PinVoltage(st[in])))
		} else {
			ckt.AddVDC("v_"+in, node, "0", cl.PinVoltage(st[in]))
		}
	}
	if err := cl.Build(ckt, inst, pins, "out", "vdd"); err != nil {
		t.Fatal(err)
	}
	if capName != "" {
		ckt.AddC(capName, "out", "0", capF)
	} else {
		ckt.AddVDC("vforce", "out", "0", 0)
	}
	return sim.Compile(ckt)
}

// glitchSign is the polarity of a glitch from the pin's quiet rail.
func glitchSign(st cell.State, pin string) float64 {
	if st[pin] {
		return -1
	}
	return 1
}

func checkPropTable(t *testing.T, cl *cell.Cell, st cell.State, pin string, wantFree int, dev *deviation) {
	ctx := context.Background()
	prod, err := charlib.CharacterizePropagation(ctx, cl, st, pin, charlib.PropOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog := buildRig(t, cl, st, pin, "dut", "cload", 1e-15)
	if full, free := sim.SizesOf(prog); free != wantFree {
		t.Errorf("propagation rig solves %d of %d unknowns, want %d", free, full, wantFree)
	}
	opts := sim.Options{Dt: 1e-12}
	sess, err := sim.NewSession(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := sim.NewMNAOracle(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	hG, hL := prog.MustSource("v_"+pin), prog.MustCap("cload")
	quietIn := cl.PinVoltage(st[pin])
	for hi, h := range prod.Heights {
		for wi, w := range prod.Widths {
			for li, load := range prod.Loads {
				g := wave.Triangle(quietIn, glitchSign(st, pin)*h, 100e-12, w)
				tstop := 100e-12 + w + 1.2e-9
				sess.SetSource(hG, g)
				sess.SetLoad(hL, load)
				orc.SetSource(hG, g)
				orc.SetLoad(hL, load)
				rs, err := sess.RunTransient(ctx, tstop)
				if err != nil {
					t.Fatal(err)
				}
				ro, err := orc.RunTransient(ctx, tstop)
				if err != nil {
					t.Fatal(err)
				}
				ms := wave.MeasureNoise(rs.Waveform("out"), prod.QuietOut)
				mo := wave.MeasureNoise(ro.Waveform("out"), prod.QuietOut)
				if ms.Peak != prod.Peak[hi][wi][li] || ms.Area != prod.Area[hi][wi][li] {
					t.Fatalf("h=%g w=%g l=%g: rebuilt rig (%v, %v) differs from the characterised table (%v, %v)",
						h, w, load, ms.Peak, ms.Area, prod.Peak[hi][wi][li], prod.Area[hi][wi][li])
				}
				dw := sim.MaxNodeDeviation(rs, ro)
				dp := math.Abs(ms.Peak - mo.Peak)
				da := math.Abs(ms.Area-mo.Area) / math.Abs(mo.Area)
				if mo.Area == 0 && ms.Area == 0 {
					da = 0
				}
				dev.note(dw, dp, da, 0)
				if dw > oracleTolV || dp > oracleTolV || da > oracleAreaRel {
					t.Errorf("h=%g w=%g l=%g: waveform Δ %.3g V, peak Δ %.3g V, area Δ %.3g rel",
						h, w, load, dw, dp, da)
				}
			}
		}
	}
}

// checkNRC re-runs the NRC bisection on the oracle and requires every
// failing height to equal the production curve's bit for bit.
func checkNRC(t *testing.T, cl *cell.Cell, st cell.State, pin string) {
	ctx := context.Background()
	prod, err := nrc.Characterize(ctx, cl, st, pin, nrc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := nrc.Options{}.Normalized()
	prog := buildRig(t, cl, st, pin, "rcv", "cl", opts.LoadCap)
	orc, err := sim.NewMNAOracle(prog, sim.Options{Dt: opts.Dt})
	if err != nil {
		t.Fatal(err)
	}
	hG := prog.MustSource("v_" + pin)
	vdd := cl.Tech.VDD
	quietIn, quietOut := cl.PinVoltage(st[pin]), cl.PinVoltage(cl.Logic(st))
	fails := func(height, width float64) bool {
		orc.SetSource(hG, wave.Triangle(quietIn, glitchSign(st, pin)*height, 100e-12, width))
		res, err := orc.RunTransient(ctx, 100e-12+width+1e-9)
		if err != nil {
			t.Fatal(err)
		}
		return wave.MeasureNoise(res.Waveform("out"), quietOut).Peak >= opts.FailFrac*vdd
	}
	for i, w := range opts.Widths {
		lo, hi := 0.05*vdd, 1.2*vdd
		var got float64
		switch {
		case !fails(hi, w):
			got = math.Inf(1)
		case fails(lo, w):
			got = lo
		default:
			for hi-lo > opts.Tol {
				if mid := 0.5 * (lo + hi); fails(mid, w) {
					hi = mid
				} else {
					lo = mid
				}
			}
			got = hi
		}
		if math.Float64bits(got) != math.Float64bits(prod.Heights[i]) {
			t.Errorf("NRC width %g: oracle height %v, production %v", w, got, prod.Heights[i])
		}
	}
}

func checkLoadCurve(t *testing.T, cl *cell.Cell, st cell.State, pin string, dev *deviation) {
	prod, err := charlib.CharacterizeLoadCurve(context.Background(), cl, st, pin, charlib.LoadCurveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog := buildRig(t, cl, st, pin, "dut", "", 0)
	orc, err := sim.NewMNAOracle(prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hNoisy, hForce := prog.MustSource("v_"+pin), prog.MustSource("vforce")
	scale := 0.0
	for _, i := range prod.I {
		scale = math.Max(scale, math.Abs(i))
	}
	quiet := cl.PinVoltage(cl.Logic(st))
	dvin := (prod.VinMax - prod.VinMin) / float64(prod.NVin-1)
	dvout := (prod.VoutMax - prod.VoutMin) / float64(prod.NVout-1)
	worst := 0.0
	for iv := 0; iv < prod.NVin; iv++ {
		orc.SetSourceDC(hNoisy, prod.VinMin+float64(iv)*dvin)
		for io := 0; io < prod.NVout; io++ {
			vout := prod.VoutMin + float64(io)*dvout
			orc.SetSourceDC(hForce, vout)
			g := 0.5 * (vout + quiet)
			orc.SetGuess("dut.n1", g)
			orc.SetGuess("dut.n2", g)
			dc, err := orc.RunDC()
			if err != nil {
				t.Fatal(err)
			}
			d := math.Abs(dc.SourceCurrent(hForce)-prod.I[iv*prod.NVout+io]) / scale
			worst = math.Max(worst, d)
		}
	}
	dev.note(0, 0, 0, worst)
	if worst > oracleCurrentRel {
		t.Errorf("load-curve current Δ %.3g of the curve's largest current", worst)
	}
}

// checkGoldenCluster compares the transistor-level golden bench of the
// paper's Table 1 cluster, seeded at its quiet levels as core seeds it.
func checkGoldenCluster(t *testing.T, dev *deviation) {
	c, err := paper.Table1Cluster(paper.Full)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := c.BuildGolden()
	if err != nil {
		t.Fatal(err)
	}
	guess := map[string]float64{}
	for j := 0; j <= c.Bus.Segments; j++ {
		guess[fmt.Sprintf("%s.%d", c.Bus.Lines[c.Victim.Line].Name, j)] = c.QuietVictimLevel()
		for i, a := range c.Aggressors {
			guess[fmt.Sprintf("%s.%d", c.Bus.Lines[a.Line].Name, j)] = c.AggStartLevel(i)
		}
	}
	compareTransient(t, sim.Compile(ckt), sim.Options{Dt: 1e-12, InitialGuess: guess}, c.EventHorizon(), dev)
}

// floatingNetlist has a floating level-shift source between two free
// nodes and one from a pinned node, next to pinned sources, a current
// source and a nonlinear gate cap.
const floatingNetlist = `.title floating sources
VDD vdd 0 DC 1.2
VIN a 0 RAMP(0 1.2 100p 80p)
R1 a b 2k
VSH b g DC 0.1
R2 g 0 20k
VREF vdd r DC 0.3
R3 r out 50k
MP out g vdd pmod W=1u L=0.13u
MN out g 0 nmod W=0.5u L=0.13u CGSCP=1f CGSCO=1f CGSP0=-0.7 CGSP1=2
C1 out 0 20f
C2 g 0 5f
IB out 0 DC 1u
.model nmod NMOS (KP=340u VT0=0.35 LAMBDA=0.1)
.model pmod PMOS (KP=90u VT0=-0.35 LAMBDA=0.1)
.end
`

func checkFloatingNetlist(t *testing.T, dev *deviation) {
	ckt, err := circuit.Parse(strings.NewReader(floatingNetlist))
	if err != nil {
		t.Fatal(err)
	}
	prog := sim.Compile(ckt)
	if full, free := sim.SizesOf(prog); full != 10 || free != 6 {
		t.Fatalf("netlist compiles to %d full / %d free unknowns, want 10 / 6", full, free)
	}
	// Operating point: every unknown, source currents included.
	sess, err := sim.NewSession(prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := sim.NewMNAOracle(prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sess.RunDC()
	if err != nil {
		t.Fatal(err)
	}
	do, err := orc.RunDC()
	if err != nil {
		t.Fatal(err)
	}
	n := len(ckt.NodeNames())
	scale := 0.0
	for _, i := range do.X[n:] {
		scale = math.Max(scale, math.Abs(i))
	}
	dv, di := 0.0, 0.0
	for k := range ds.X {
		if d := math.Abs(ds.X[k] - do.X[k]); k < n {
			dv = math.Max(dv, d)
		} else {
			di = math.Max(di, d/scale)
		}
	}
	dev.note(dv, 0, 0, di)
	if dv > oracleTolV || di > oracleCurrentRel {
		t.Errorf("operating point: node Δ %.3g V, source current Δ %.3g rel", dv, di)
	}
	compareTransient(t, prog, sim.Options{Dt: 1e-12}, 600e-12, dev)
}

func compareTransient(t *testing.T, prog *sim.Program, opts sim.Options, tstop float64, dev *deviation) {
	t.Helper()
	sess, err := sim.NewSession(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := sim.NewMNAOracle(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sess.RunTransient(context.Background(), tstop)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := orc.RunTransient(context.Background(), tstop)
	if err != nil {
		t.Fatal(err)
	}
	dw := sim.MaxNodeDeviation(rs, ro)
	dev.note(dw, 0, 0, 0)
	if dw > oracleTolV {
		t.Errorf("transient: waveform Δ %.3g V over %d steps", dw, rs.Steps())
	}
}
