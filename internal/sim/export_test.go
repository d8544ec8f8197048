package sim

// Hooks for the external differential test (oracle_diff_test.go, package
// sim_test), which characterises cells through charlib, nrc and core —
// all of which import sim, so the test cannot live in package sim itself.

// MNAOracle is the full-MNA differential oracle (see mnaOracle).
type MNAOracle = mnaOracle

// NewMNAOracle opens the oracle against a compiled Program.
func NewMNAOracle(p *Program, opts Options) (*MNAOracle, error) { return newMNAOracle(p, opts) }

// MaxNodeDeviation is the largest node-voltage difference of two runs.
var MaxNodeDeviation = maxNodeDeviation

// SizesOf returns a program's full MNA and free-system unknown counts.
func SizesOf(p *Program) (full, free int) { return p.size, p.fsize }
