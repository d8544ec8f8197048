package charstore

import (
	"strings"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

// TestNLCapKeysBitStable proves the nonlinear-cap axis at its zero value
// leaves every pre-nlcap key untouched: a constant-cap card renders no
// NLCAP segment, its fingerprint is byte-identical whether the model exists
// in the codebase or not, and the derived store key is exactly the legacy
// one — while a WithNonlinearCaps card renders the segment for both device
// polarities and keys differently.
func TestNLCapKeysBitStable(t *testing.T) {
	base := tech.Tech130()
	fp := base.Fingerprint()
	if strings.Contains(fp, "NLCAP") {
		t.Fatalf("constant-cap fingerprint grew an NLCAP segment: %q", fp)
	}

	nl := base.WithNonlinearCaps()
	nlFP := nl.Fingerprint()
	if got := strings.Count(nlFP, "NLCAP{"); got != 2 {
		t.Fatalf("nl fingerprint renders %d NLCAP segments, want 2 (NMOS and PMOS):\n%q", got, nlFP)
	}
	// Deriving the model must not perturb the rest of the fingerprint: the
	// nl text with its segments cut out is the constant-cap text.
	if stripped := stripNLCAP(nlFP); stripped != fp {
		t.Fatalf("NLCAP segment is not purely additive:\n%q\n%q", stripped, fp)
	}

	st := cell.State{"A": false}
	legacyKey, err := Key("lc", cell.MustNew(base, "INV", 1), st, "A", "61,61,0.2")
	if err != nil {
		t.Fatal(err)
	}
	nlKey, err := Key("lc", cell.MustNew(nl, "INV", 1), st, "A", "61,61,0.2")
	if err != nil {
		t.Fatal(err)
	}
	if legacyKey == nlKey {
		t.Fatalf("nonlinear-cap card aliases the constant-cap key %s", legacyKey)
	}
}

// TestNLCapCornerKeysNeverAlias crosses the nonlinear-cap axis with the
// corner axis: for every standard corner, the constant-cap and nl-cap
// fingerprints (and store keys) stay distinct from each other and from
// every other corner's.
func TestNLCapCornerKeysNeverAlias(t *testing.T) {
	base := tech.Tech130()
	seen := map[string]string{}
	for _, c := range tech.StandardCorners() {
		for _, card := range []*tech.Tech{c.Apply(base), c.Apply(base.WithNonlinearCaps())} {
			id := c.Name
			if card.NonlinearCaps() {
				id += "+nlcap"
			}
			fp := card.Fingerprint()
			if prev, ok := seen[fp]; ok {
				t.Fatalf("configurations %q and %q share tech fingerprint", prev, id)
			}
			seen[fp] = id
		}
	}
}

// stripNLCAP removes every " NLCAP{...}" segment from a tech fingerprint.
func stripNLCAP(fp string) string {
	for {
		i := strings.Index(fp, " NLCAP{")
		if i < 0 {
			return fp
		}
		j := strings.Index(fp[i:], "}")
		fp = fp[:i] + fp[i+j+1:]
	}
}
