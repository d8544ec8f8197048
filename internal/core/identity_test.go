package core

import (
	"context"
	"testing"

	"stanoise/internal/tech"
)

// goldenEqual fails the test unless two golden evaluations agree sample
// for sample.
func goldenEqual(t *testing.T, what string, got, want *Evaluation) {
	t.Helper()
	if got.Metrics != want.Metrics || len(got.DP.V) != len(want.DP.V) {
		t.Fatalf("%s: metrics %+v (%d samples), want %+v (%d samples)",
			what, got.Metrics, len(got.DP.V), want.Metrics, len(want.DP.V))
	}
	for i := range want.DP.V {
		if got.DP.V[i] != want.DP.V[i] {
			t.Fatalf("%s: sample %d = %v, want %v", what, i, got.DP.V[i], want.DP.V[i])
		}
	}
}

// TestLocalRigRecompilesOnCardEdit pins the pool-less bench key on card
// content: editing the KP of the card a cluster was built on, in place,
// between two golden evaluations recompiles the bench, and the second
// evaluation equals one of a cluster freshly built on the edited card.
func TestLocalRigRecompilesOnCardEdit(t *testing.T) {
	ctx := context.Background()
	opts := fastEvalOptions()
	card := tech.Tech130()
	c := fastClusterOn(t, card, 1)
	before, err := c.Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	card.NMOS.KP *= 2
	card.PMOS.KP *= 2
	after, err := c.Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Metrics.Peak == before.Metrics.Peak {
		t.Fatalf("KP edit left the golden peak at %v: the stale bench was reused", before.Metrics.Peak)
	}
	edited := tech.Tech130()
	edited.NMOS.KP *= 2
	edited.PMOS.KP *= 2
	want, err := fastClusterOn(t, edited, 1).Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	goldenEqual(t, "after KP edit", after, want)
}

// TestRigPoolKeysOnWireParams pins the pooled golden key on the bus's wire
// parasitics: two cards that differ only in the bus layer's WireParams
// build different golden netlists, so through one pool they compile two
// benches and each evaluates exactly as without a pool.
func TestRigPoolKeysOnWireParams(t *testing.T) {
	ctx := context.Background()
	opts := fastEvalOptions()
	thick := func() *tech.Tech {
		card := tech.Tech130()
		wp := card.Wires["M4"]
		wp.CcPerUm *= 1.5
		card.Wires["M4"] = wp
		return card
	}
	want, err := fastClusterOn(t, thick(), 1).Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewRigPool()
	a, b := fastCluster(t, 1), fastClusterOn(t, thick(), 1)
	a.UseRigPool(pool)
	b.UseRigPool(pool)
	if _, err := a.Evaluate(ctx, Golden, nil, opts); err != nil {
		t.Fatal(err)
	}
	got, err := b.Evaluate(ctx, Golden, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := pool.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("pool stats hits=%d misses=%d, want 2 misses (wire parameters differ)", hits, misses)
	}
	goldenEqual(t, "pooled golden on the edited routing stack", got, want)
}
