package main

import (
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 || median([]float64{2, 4}) != 3 {
		t.Error("empty or even-length median")
	}
}

func TestRatio(t *testing.T) {
	if ratio(3, 4) != 0.75 || ratio(1, 0) != 0 {
		t.Error("ratio")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := Span{ID: 1, Start: 0, End: 100 * ms}
	spans := []Span{
		parent,
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 40 * ms},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 50 * ms, End: 60 * ms},  // a grandchild is not a direct child
	}
	if got, want := selfTime(parent, spans), 60*ms; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.End(tr.Start("x", 0)) // a nil tracer records nothing and does not panic
	real := newTracer()
	id := real.Start("a", 0)
	real.End(real.Start("b", id))
	real.End(id)
	spans := real.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Errorf("spans %+v", spans)
	}
}
