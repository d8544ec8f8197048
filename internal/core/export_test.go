package core

// Hooks for the external differential test (engine_diff_test.go, package
// core_test), which builds its clusters with the paper and sna packages —
// both import core, so the test cannot live in package core itself.

var (
	RunEngineQQ      = runEngineQQ      // the q×q oracle engine
	MaxPortDeviation = maxPortDeviation // largest port-sample difference of two runs
)

// OracleTolV is the agreement required between RunEngine and the oracle.
const OracleTolV = oracleTolV

// PortSources returns the production port sources around victim model vic.
func (c *Cluster) PortSources(models *Models, vic PortSource) []PortSource {
	return c.portSources(models, vic)
}

// MacromodelVictim returns the production macromodel victim port.
func (c *Cluster) MacromodelVictim(models *Models, opts EvalOptions) PortSource {
	return c.macromodelVictim(models, opts)
}

// ProbeSources returns the production sources of alignment timing run i.
func (c *Cluster) ProbeSources(models *Models, i int) []PortSource {
	return c.probeSources(models, i)
}
