package charlib

import (
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

// TestCellKeyNLCapAxis pins the in-memory cache key on the nonlinear-cap
// axis: a WithNonlinearCaps card keys apart from its constant-cap base
// (both carry the same Name), the axis composes with the corner axis
// without aliasing, and the nominal tt corner keys exactly like the base
// card, so corner-less warm entries stay shared.
func TestCellKeyNLCapAxis(t *testing.T) {
	base := tech.Tech130()
	nl := base.WithNonlinearCaps()
	st := cell.State{"A": false}
	key := func(card *tech.Tech) string {
		return CellKey("lc", cell.MustNew(card, "INV", 1), st, "A", "q=std")
	}

	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for name, card := range map[string]*tech.Tech{
		"nom":       base,
		"nom+nl":    nl,
		"corner":    ss.Apply(base),
		"corner+nl": ss.Apply(nl),
	} {
		k := key(card)
		if prev, ok := keys[k]; ok {
			t.Fatalf("configurations %q and %q alias to %q", prev, name, k)
		}
		keys[k] = name
	}

	tt, err := tech.CornerByName("tt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := key(tt.Apply(base)), key(base); got != want {
		t.Fatalf("tt key differs from nominal:\n%q\n%q", got, want)
	}
}
