package charlib

import (
	"context"
	"reflect"
	"testing"

	"stanoise/internal/cell"
	"stanoise/internal/tech"
)

// TestCacheKeysOnCardContent is the name-alias regression: a card whose
// NMOS/PMOS KP is doubled keeps the base card's Name, yet simulates a
// different driver. A shared cache must characterise it separately, and
// what it serves must equal a fresh characterisation on that card — not
// the base card's curve under the same name.
func TestCacheKeysOnCardContent(t *testing.T) {
	ctx := context.Background()
	base := tech.Tech130()
	strong := tech.Tech130()
	strong.NMOS.KP *= 2
	strong.PMOS.KP *= 2
	if strong.Name != base.Name {
		t.Fatalf("edited card renamed: %q vs %q", strong.Name, base.Name)
	}
	st := cell.State{"A": false}
	opts := LoadCurveOptions{NVin: 11, NVout: 11}

	c := NewCache()
	lcBase, err := c.LoadCurve(ctx, cell.MustNew(base, "INV", 1), st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	lcStrong, err := c.LoadCurve(ctx, cell.MustNew(strong, "INV", 1), st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	if lcStrong == lcBase {
		t.Fatal("KP-doubled card was served the base card's load curve")
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("cache stats %+v, want 2 misses and no hits", s)
	}
	fresh, err := CharacterizeLoadCurve(ctx, cell.MustNew(strong, "INV", 1), st, "A", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lcStrong, fresh) {
		t.Fatal("cached curve of the KP-doubled card differs from a fresh characterisation")
	}
}
