package charstore

import (
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

// TestStoreKeysPinned hard-codes the content address of the INV load
// curve on three cards: nominal, the ss corner and the nonlinear-cap
// model. Cold/warm store round trips only compare runs of one binary, so
// a change to the rendered card text or the key recipe would pass them
// while orphaning every existing store; this test fails on it instead. A
// deliberate re-keying must bump keyScheme or ModelVersion and update
// these digests in the same change.
func TestStoreKeysPinned(t *testing.T) {
	base := tech.Tech130()
	ss, err := tech.CornerByName("ss")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		card *tech.Tech
		want string
	}{
		{"nominal", base, "f712f9c066d4f3d54d5df74d99c677fd40dba1512c18a1adcb86c502a1fe60d3"},
		{"ss", ss.Apply(base), "c518c6253fc91e1aef91cd37934aa25b9da74cf710ddca0f8a4a4d2c3a459b00"},
		{"nlcap", base.WithNonlinearCaps(), "b628faf4d64e4f147435e973865dcc9281a0705fca381ce2d22c29e7a0114b9b"},
	} {
		inv := cell.MustNew(tc.card, "INV", 1)
		st, err := inv.SensitizedState("A", true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Key("lc", inv, st, "A", "61,61,0.2")
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: INV load-curve key %s, want pinned %s", tc.name, got, tc.want)
		}
	}
}
