package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSym returns a random exactly symmetric n×n matrix; with spd set it
// is made positive definite by a dominant diagonal shift.
func randomSym(rng *rand.Rand, n int, spd bool) *Matrix {
	a := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			v := rng.Float64()*2 - 1
			a.Set(r, c, v)
			a.Set(c, r, v)
		}
	}
	if spd {
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
	}
	return a
}

// relDiff returns max|a − b| / max|b|.
func relDiff(a, b *Matrix) float64 {
	worst := 0.0
	for i, v := range a.Data {
		worst = math.Max(worst, math.Abs(v-b.Data[i]))
	}
	return worst / b.MaxAbs()
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 13, 40} {
		a := randomSym(rng, n, true)
		l := a.Clone()
		if err := Cholesky(l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r := 0; r < n; r++ {
			for c := r + 1; c < n; c++ {
				if l.At(r, c) != 0 {
					t.Fatalf("n=%d: upper triangle (%d,%d) = %g", n, r, c, l.At(r, c))
				}
			}
		}
		if d := relDiff(Mul(l, l.Transpose()), a); d > 1e-13 {
			t.Errorf("n=%d: ‖LLᵀ − A‖/‖A‖ = %g", n, d)
		}
		// SolveLower inverts L.
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		b := l.MulVec(x)
		SolveLower(l, b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-12 {
				t.Fatalf("n=%d: SolveLower[%d] = %g, want %g", n, i, b[i], x[i])
			}
		}
	}
}

func TestCholeskyRejects(t *testing.T) {
	indefinite := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // eigenvalues 3, −1
	if err := Cholesky(indefinite); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite input: err = %v, want ErrNotPositiveDefinite", err)
	}
	semidefinite := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 1, 1, 1}}
	if err := Cholesky(semidefinite); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("singular input: err = %v, want ErrNotPositiveDefinite", err)
	}
	nonsym := &Matrix{Rows: 2, Cols: 2, Data: []float64{4, 1, 1 + 1e-15, 4}}
	before := append([]float64(nil), nonsym.Data...)
	if err := Cholesky(nonsym); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("non-symmetric input: err = %v, want ErrNotSymmetric", err)
	}
	for i, v := range nonsym.Data {
		if v != before[i] {
			t.Fatal("rejected non-symmetric input was modified")
		}
	}
}

func TestSymEigenReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 8, 13, 30} {
		for _, spd := range []bool{false, true} {
			a := randomSym(rng, n, spd)
			m := a.Clone()
			vals := make([]float64, n)
			v := NewMatrix(n, n)
			if err := SymEigen(m, vals, v); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			// VᵀV = I.
			vtv := Mul(v.Transpose(), v)
			if d := relDiff(vtv, Identity(n)); d > 1e-13 {
				t.Errorf("n=%d spd=%v: ‖VᵀV − I‖ = %g", n, spd, d)
			}
			// V·diag(vals)·Vᵀ = A.
			vd := v.Clone()
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					vd.Data[r*n+c] *= vals[c]
				}
			}
			if d := relDiff(Mul(vd, v.Transpose()), a); d > 1e-13 {
				t.Errorf("n=%d spd=%v: ‖VΛVᵀ − A‖/‖A‖ = %g", n, spd, d)
			}
			for i, ev := range vals {
				if spd && !(ev > 0) {
					t.Errorf("n=%d: SPD input has eigenvalue %d = %g", n, i, ev)
				}
				if m.At(i, i) != ev {
					t.Errorf("n=%d: vals[%d] = %g, diagonal %g", n, i, ev, m.At(i, i))
				}
			}
		}
	}
}

func TestSymEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3; a diagonal input is already
	// decomposed and must come back unchanged with V = I.
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{2, 1, 1, 2}}
	vals := make([]float64, 2)
	v := NewMatrix(2, 2)
	if err := SymEigen(a, vals, v); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Min(vals[0], vals[1]), math.Max(vals[0], vals[1])
	if math.Abs(lo-1) > 1e-15 || math.Abs(hi-3) > 1e-15 {
		t.Errorf("eigenvalues %v, want {1, 3}", vals)
	}
	diag := &Matrix{Rows: 3, Cols: 3, Data: []float64{5, 0, 0, 0, -2, 0, 0, 0, 0}}
	v3 := NewMatrix(3, 3)
	vals3 := make([]float64, 3)
	if err := SymEigen(diag, vals3, v3); err != nil {
		t.Fatal(err)
	}
	if vals3[0] != 5 || vals3[1] != -2 || vals3[2] != 0 || relDiff(v3, Identity(3)) != 0 {
		t.Errorf("diagonal input: vals %v, V\n%v", vals3, v3)
	}
}

func TestSymEigenRejectsNonSymmetric(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	if err := SymEigen(a, make([]float64, 2), NewMatrix(2, 2)); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("err = %v, want ErrNotSymmetric", err)
	}
}

func TestSymmetricRoutinesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 13
	spd := randomSym(rng, n, true)
	work := NewMatrix(n, n)
	v := NewMatrix(n, n)
	vals := make([]float64, n)
	b := make([]float64, n)
	allocs := testing.AllocsPerRun(20, func() {
		work.CopyFrom(spd)
		if err := Cholesky(work); err != nil {
			t.Fatal(err)
		}
		SolveLower(work, b)
		work.CopyFrom(spd)
		if err := SymEigen(work, vals, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Cholesky + SolveLower + SymEigen allocate %.1f objects per run, want 0", allocs)
	}
}
