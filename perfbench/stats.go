package main

import (
	"cmp"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks, or 0 for no samples. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0: a layer that did no work
// reports a zero rate rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// selfTime is a span's duration minus the part of its interval that its
// direct children cover; overlapping children are counted once.
func selfTime(parent Span, spans []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var cover []iv
	for _, s := range spans {
		if s.Parent != parent.ID {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			cover = append(cover, iv{lo, hi})
		}
	}
	slices.SortFunc(cover, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered time.Duration
	var end time.Duration = parent.Start
	for _, c := range cover {
		if c.lo > end {
			end = c.lo
		}
		if c.hi > end {
			covered += c.hi - end
			end = c.hi
		}
	}
	return parent.End - parent.Start - covered
}
