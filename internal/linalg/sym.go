package linalg

import (
	"errors"
	"math"
)

// Errors of the symmetric-definite routines.
var (
	// ErrNotSymmetric is returned when a routine that requires a
	// symmetric matrix is handed one whose entries differ from their
	// transposes. The check is exact: callers symmetrize explicitly.
	ErrNotSymmetric = errors.New("linalg: matrix is not symmetric")
	// ErrNotPositiveDefinite is returned by Cholesky when a pivot is not
	// strictly positive.
	ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")
	// ErrNoConvergence is returned by SymEigen when the Jacobi sweeps do
	// not annihilate the off-diagonal part within their bound.
	ErrNoConvergence = errors.New("linalg: eigenvalue iteration did not converge")
)

// IsSymmetric reports whether m is square and bitwise equal to its
// transpose.
func (m *Matrix) IsSymmetric() bool {
	if m.Rows != m.Cols {
		return false
	}
	n := m.Rows
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			if m.Data[r*n+c] != m.Data[c*n+r] {
				return false
			}
		}
	}
	return true
}

// Cholesky overwrites the symmetric positive definite matrix a with its
// Cholesky factor L, lower triangular with a zero strict upper triangle,
// such that a = L·Lᵀ. It allocates nothing. It returns ErrNotSymmetric
// for an input that is not exactly symmetric, leaving a untouched, and
// ErrNotPositiveDefinite when a pivot is not strictly positive, leaving a
// partially overwritten.
func Cholesky(a *Matrix) error {
	if !a.IsSymmetric() {
		return ErrNotSymmetric
	}
	n := a.Rows
	d := a.Data
	for j := 0; j < n; j++ {
		rowJ := d[j*n : j*n+j]
		s := d[j*n+j]
		for _, v := range rowJ {
			s -= v * v
		}
		if !(s > 0) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(s)
		d[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			rowI := d[i*n : i*n+j]
			s := d[i*n+j]
			for k, v := range rowI {
				s -= v * rowJ[k]
			}
			d[i*n+j] = s / ljj
			d[j*n+i] = 0
		}
	}
	return nil
}

// SolveLower overwrites b with L⁻¹·b by forward substitution, for a lower
// triangular l such as the factor Cholesky leaves. It allocates nothing.
func SolveLower(l *Matrix, b []float64) {
	n := l.Rows
	if l.Cols != n || len(b) != n {
		panic("linalg: SolveLower shape mismatch")
	}
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range l.Data[i*n : i*n+i] {
			s -= v * b[k]
		}
		b[i] = s / l.Data[i*n+i]
	}
}

// maxJacobiSweeps bounds SymEigen. Cyclic Jacobi converges quadratically
// once the off-diagonal part is small; matrices of a few dozen rows
// settle in under ten sweeps.
const maxJacobiSweeps = 64

// SymEigen computes the eigen-decomposition a = V·diag(vals)·Vᵀ of the
// symmetric matrix a by cyclic Jacobi rotations. It runs in place and
// allocates nothing: a is overwritten with the diagonalized matrix, vals
// (length n) receives the eigenvalues in diagonal order and v (n×n)
// receives the orthonormal eigenvectors as columns. It returns
// ErrNotSymmetric for an input that is not exactly symmetric, and
// ErrNoConvergence if the sweeps do not terminate within their bound.
//
// Every rotation updates the two affected rows and columns together, so a
// stays exactly symmetric throughout; once an off-diagonal entry no longer
// changes either diagonal entry it meets in floating point it is set to
// zero, and the iteration ends when the whole off-diagonal part is zero.
func SymEigen(a *Matrix, vals []float64, v *Matrix) error {
	n := a.Rows
	if v.Rows != n || v.Cols != n || len(vals) != n {
		panic("linalg: SymEigen shape mismatch")
	}
	if !a.IsSymmetric() {
		return ErrNotSymmetric
	}
	d := a.Data
	clear(v.Data)
	for i := 0; i < n; i++ {
		v.Data[i*n+i] = 1
	}
	for sweep := 1; sweep <= maxJacobiSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += math.Abs(d[p*n+q])
			}
		}
		if off == 0 {
			for i := range vals {
				vals[i] = d[i*n+i]
			}
			return nil
		}
		// Early sweeps skip the small entries and leave them to later
		// ones, which rotate every entry that still matters.
		thresh := 0.0
		if sweep < 4 {
			thresh = 0.2 * off / float64(n*n)
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := d[p*n+q]
				app, aqq := d[p*n+p], d[q*n+q]
				g := 100 * math.Abs(apq)
				if sweep > 4 && math.Abs(app)+g == math.Abs(app) && math.Abs(aqq)+g == math.Abs(aqq) {
					d[p*n+q], d[q*n+p] = 0, 0
					continue
				}
				if math.Abs(apq) <= thresh {
					continue
				}
				jacobiRotate(d, v.Data, n, p, q)
			}
		}
	}
	return ErrNoConvergence
}

// jacobiRotate applies the plane rotation that annihilates d[p][q] of the
// symmetric n×n matrix d, as d ← Jᵀ·d·J, and accumulates v ← v·J.
func jacobiRotate(d, v []float64, n, p, q int) {
	apq := d[p*n+q]
	h := d[q*n+q] - d[p*n+p]
	var t float64
	if g := 100 * math.Abs(apq); math.Abs(h)+g == math.Abs(h) {
		t = apq / h // θ = h/(2·apq) so large that θ² would overflow
	} else {
		theta := 0.5 * h / apq
		t = 1 / (math.Abs(theta) + math.Sqrt(1+theta*theta))
		if theta < 0 {
			t = -t
		}
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	tau := s / (1 + c)
	d[p*n+p] -= t * apq
	d[q*n+q] += t * apq
	d[p*n+q], d[q*n+p] = 0, 0
	for k := 0; k < n; k++ {
		if k == p || k == q {
			continue
		}
		akp, akq := d[k*n+p], d[k*n+q]
		nkp := akp - s*(akq+tau*akp)
		nkq := akq + s*(akp-tau*akq)
		d[k*n+p], d[p*n+k] = nkp, nkp
		d[k*n+q], d[q*n+k] = nkq, nkq
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v[k*n+p], v[k*n+q]
		v[k*n+p] = vkp - s*(vkq+tau*vkp)
		v[k*n+q] = vkq + s*(vkp-tau*vkq)
	}
}
