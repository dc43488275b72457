// Package mgard implements an MGARD-style multilevel decomposition of
// uniform-grid data in 1, 2, or 3 (or more) dimensions, with two selectable
// decomposition bases:
//
//   - Hierarchical (HB): detail coefficients are interpolation residuals at
//     odd nodes; coarse nodes keep their nodal values. This is the paper's
//     PMGARD-HB revision (§V-B): no cross-level intervention, so the L∞
//     reconstruction error is bounded by a *sum* of per-level coefficient
//     bounds — tight and cheap.
//
//   - Orthogonal (OB): after computing details, an L2 projection correction
//     (a tridiagonal mass-matrix solve per grid line) is added to the coarse
//     nodes, following MGARD's original decomposition. The projection is
//     optimal in L2 but makes conservative L∞ estimates markedly looser —
//     exactly the over-retrieval effect the paper measures in Fig. 3.
//
// The transform is exactly invertible (reconstruction recomputes the same
// correction from the retrieved details and subtracts it), so correctness
// never depends on the projection; only rate and estimate tightness do.
//
// Coefficients are exposed as per-level groups (group 0 = coarsest nodal
// values, then detail levels coarse→fine) for bit-plane encoding, and
// ErrorBound converts per-group L∞ bounds into a guaranteed bound on the
// reconstructed data, using per-level amplification factors derived in the
// comments of levelFactor.
package mgard

import (
	"errors"
	"fmt"
	"math"

	"progqoi/internal/grid"
)

// Basis selects the decomposition variant.
type Basis int

const (
	// Hierarchical is interpolation-only (PMGARD-HB).
	Hierarchical Basis = iota
	// Orthogonal adds MGARD's L2-projection correction (PMGARD / OB).
	Orthogonal
)

// String implements fmt.Stringer.
func (b Basis) String() string {
	switch b {
	case Hierarchical:
		return "HB"
	case Orthogonal:
		return "OB"
	default:
		return fmt.Sprintf("Basis(%d)", int(b))
	}
}

// ErrBadInput reports invalid decomposition input.
var ErrBadInput = errors.New("mgard: invalid input")

// Decomposition holds the transformed coefficients of one field.
type Decomposition struct {
	Basis Basis
	Grid  *grid.Grid
	Steps int // number of level-halving steps applied (≥ 0)

	coeffs []float64 // transformed array, same layout as input
	// dimsAtLevel[l] = number of dimensions that actually transformed at
	// level l (a dim participates while 2^l < extent).
	dimsAtLevel []int
}

// Decompose transforms data (row-major on g) into multilevel coefficients.
// The input slice is not modified. Values must be finite.
func Decompose(data []float64, g *grid.Grid, basis Basis) (*Decomposition, error) {
	if err := g.Validate(data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite value at index %d", ErrBadInput, i)
		}
	}
	steps := g.NumLevels() - 1
	d := &Decomposition{
		Basis:       basis,
		Grid:        g.Clone(),
		Steps:       steps,
		coeffs:      append([]float64(nil), data...),
		dimsAtLevel: make([]int, steps),
	}
	for l := 0; l < steps; l++ {
		s := grid.LevelStride(l)
		nd := 0
		for dim := 0; dim < g.NDims(); dim++ {
			if s < g.Dim(dim) { // at least one odd node exists along dim
				d.forwardDim(dim, s)
				nd++
			}
		}
		d.dimsAtLevel[l] = nd
	}
	return d, nil
}

// NumGroups returns the number of coefficient groups: 1 (coarsest nodal
// values) + Steps detail levels.
func (d *Decomposition) NumGroups() int { return d.Steps + 1 }

// GroupLevel maps a group index to its detail level: group 0 (coarsest) has
// no level (-1); group k > 0 holds the details introduced at level
// Steps - k (group 1 = coarsest details, last group = finest details).
func (d *Decomposition) GroupLevel(gIdx int) int {
	if gIdx == 0 {
		return -1
	}
	return d.Steps - gIdx
}

// groupIndices invokes fn for every flat offset in group gIdx, in a fixed
// deterministic (row-major) order.
func (d *Decomposition) groupIndices(gIdx int, fn func(off int)) {
	ndim := d.Grid.NDims()
	var coarse, fine int
	if gIdx == 0 {
		coarse = grid.LevelStride(d.Steps)
		fine = -1 // all nodes on the coarsest lattice
	} else {
		l := d.GroupLevel(gIdx)
		fine = grid.LevelStride(l)
		coarse = fine * 2
	}
	var walk func(dim, off int, anyOdd bool)
	walk = func(dim, off int, anyOdd bool) {
		if dim == ndim {
			if fine < 0 || anyOdd {
				fn(off)
			}
			return
		}
		ext := d.Grid.Dim(dim)
		stride := d.Grid.Stride(dim)
		if fine < 0 {
			// Coarsest lattice: coords ≡ 0 (mod coarse).
			for c := 0; c < ext; c += coarse {
				walk(dim+1, off+c*stride, false)
			}
			return
		}
		if fine >= ext {
			// Dim does not participate at this level: only coord 0 active.
			walk(dim+1, off, anyOdd)
			return
		}
		for c := 0; c < ext; c += fine {
			odd := (c/fine)%2 == 1
			walk(dim+1, off+c*stride, anyOdd || odd)
		}
	}
	walk(0, 0, false)
}

// GroupSize returns the number of coefficients in group gIdx: the nodes
// groupIndices visits, counted per dimension instead of walked. Group 0 is
// the coarsest lattice; a detail group is its level's lattice minus the
// next coarser one (the nodes with at least one odd coordinate).
func (d *Decomposition) GroupSize(gIdx int) int {
	if gIdx == 0 {
		coarse := grid.LevelStride(d.Steps)
		n := 1
		for dim := 0; dim < d.Grid.NDims(); dim++ {
			n *= (d.Grid.Dim(dim)-1)/coarse + 1
		}
		return n
	}
	fine := grid.LevelStride(d.GroupLevel(gIdx))
	all, even := 1, 1
	for dim := 0; dim < d.Grid.NDims(); dim++ {
		if ext := d.Grid.Dim(dim); fine < ext {
			all *= (ext-1)/fine + 1
			even *= (ext-1)/(2*fine) + 1
		}
	}
	return all - even
}

// Group copies the coefficients of group gIdx.
func (d *Decomposition) Group(gIdx int) []float64 {
	out := make([]float64, 0, d.GroupSize(gIdx))
	d.groupIndices(gIdx, func(off int) { out = append(out, d.coeffs[off]) })
	return out
}

// SetGroup overwrites the coefficients of group gIdx (used when assembling a
// reconstruction from approximately retrieved groups).
func (d *Decomposition) SetGroup(gIdx int, vals []float64) error {
	want := d.GroupSize(gIdx)
	if len(vals) != want {
		return fmt.Errorf("%w: group %d expects %d values, got %d", ErrBadInput, gIdx, want, len(vals))
	}
	i := 0
	d.groupIndices(gIdx, func(off int) { d.coeffs[off] = vals[i]; i++ })
	return nil
}

// Coefficients returns the raw transformed array (no copy); callers must not
// modify it except through SetGroup.
func (d *Decomposition) Coefficients() []float64 { return d.coeffs }

// Reconstruct runs the inverse transform and returns the nodal values. The
// decomposition's coefficient state is unchanged.
func (d *Decomposition) Reconstruct() []float64 {
	work := append([]float64(nil), d.coeffs...)
	inv := &Decomposition{Basis: d.Basis, Grid: d.Grid, Steps: d.Steps, coeffs: work}
	for l := d.Steps - 1; l >= 0; l-- {
		s := grid.LevelStride(l)
		for dim := d.Grid.NDims() - 1; dim >= 0; dim-- {
			if s < d.Grid.Dim(dim) {
				inv.inverseDim(dim, s)
			}
		}
	}
	return work
}

// ReconstructToLevel runs the inverse transform only down to level l
// (l = 0 is the full resolution, equivalent to Reconstruct) and returns the
// nodal values gathered on the level-l lattice together with the coarse
// grid shape. This is the "progression in resolution" PMGARD offers
// alongside progression in precision: under the hierarchical basis the
// coarse values are exactly the original nodal values at lattice nodes,
// and under the orthogonal basis they are the L2-projected coarse
// representation.
func (d *Decomposition) ReconstructToLevel(l int) ([]float64, *grid.Grid, error) {
	if l < 0 || l > d.Steps {
		return nil, nil, fmt.Errorf("%w: level %d outside [0,%d]", ErrBadInput, l, d.Steps)
	}
	work := append([]float64(nil), d.coeffs...)
	inv := &Decomposition{Basis: d.Basis, Grid: d.Grid, Steps: d.Steps, coeffs: work}
	for lev := d.Steps - 1; lev >= l; lev-- {
		s := grid.LevelStride(lev)
		for dim := d.Grid.NDims() - 1; dim >= 0; dim-- {
			if s < d.Grid.Dim(dim) {
				inv.inverseDim(dim, s)
			}
		}
	}
	stride := grid.LevelStride(l)
	coarseDims := make([]int, d.Grid.NDims())
	for i := range coarseDims {
		coarseDims[i] = (d.Grid.Dim(i) + stride - 1) / stride
	}
	cg, err := grid.New(coarseDims...)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, 0, cg.Size())
	var walk func(dim, off int)
	walk = func(dim, off int) {
		if dim == d.Grid.NDims() {
			out = append(out, work[off])
			return
		}
		for c := 0; c < d.Grid.Dim(dim); c += stride {
			walk(dim+1, off+c*d.Grid.Stride(dim))
		}
	}
	walk(0, 0)
	return out, cg, nil
}

// Shell returns an empty decomposition with the same shape metadata, ready
// for SetGroup + Reconstruct. Coefficients start at zero.
func (d *Decomposition) Shell() *Decomposition {
	return &Decomposition{
		Basis:       d.Basis,
		Grid:        d.Grid.Clone(),
		Steps:       d.Steps,
		coeffs:      make([]float64, d.Grid.Size()),
		dimsAtLevel: append([]int(nil), d.dimsAtLevel...),
	}
}

// NewShell builds an empty decomposition for the given shape/basis, used by
// readers that reconstruct without access to the original.
func NewShell(g *grid.Grid, basis Basis) *Decomposition {
	steps := g.NumLevels() - 1
	d := &Decomposition{
		Basis:       basis,
		Grid:        g.Clone(),
		Steps:       steps,
		coeffs:      make([]float64, g.Size()),
		dimsAtLevel: make([]int, steps),
	}
	for l := 0; l < steps; l++ {
		s := grid.LevelStride(l)
		nd := 0
		for dim := 0; dim < g.NDims(); dim++ {
			if s < g.Dim(dim) {
				nd++
			}
		}
		d.dimsAtLevel[l] = nd
	}
	return d
}

// levelFactor returns the guaranteed L∞ amplification of a detail-group
// coefficient error at a level transforming ndims dimensions.
//
// Derivation (per 1-D inverse pass, coefficient error a, incoming value
// error b):
//
//	HB: even nodes keep error b; odd nodes get a + interp ≤ a + b.
//	    Composing D passes where coefficients may themselves be outputs of
//	    earlier passes yields error ≤ b + (2^D − 1)·a.
//	OB: the correction w solves M w = f with Varah bound ‖M⁻¹‖∞ ≤ 3 (the
//	    boundary diagonal is lumped to 1/2 to keep dominance 1/3) and load
//	    |f| ≤ a/2, so |w err| ≤ 1.5a; even nodes: b + 1.5a, odd nodes:
//	    a + (b + 1.5a) = b + 2.5a. Composing D passes: b + (3.5^D − 1)·a.
func levelFactor(basis Basis, ndims int) float64 {
	if ndims <= 0 {
		return 0
	}
	switch basis {
	case Orthogonal:
		return math.Pow(3.5, float64(ndims)) - 1
	default:
		return math.Pow(2, float64(ndims)) - 1
	}
}

// LevelFactors returns the per-group error amplification factors in group
// order (coarsest first, factor 1). ErrorBound is the dot product of these
// factors with per-group coefficient bounds.
func (d *Decomposition) LevelFactors() []float64 {
	out := make([]float64, d.NumGroups())
	out[0] = 1
	for g := 1; g < d.NumGroups(); g++ {
		out[g] = levelFactor(d.Basis, d.dimsAtLevel[d.GroupLevel(g)])
	}
	return out
}

// ErrorBound converts per-group coefficient L∞ bounds (len = NumGroups, in
// group order: coarsest first) into a guaranteed L∞ bound on Reconstruct().
func (d *Decomposition) ErrorBound(groupBounds []float64) (float64, error) {
	if len(groupBounds) != d.NumGroups() {
		return 0, fmt.Errorf("%w: want %d group bounds, got %d", ErrBadInput, d.NumGroups(), len(groupBounds))
	}
	// Coarsest nodal values propagate with factor 1 (they are carried, or
	// for OB additionally corrected by w recomputed from details — the
	// detail contribution is already charged to the detail groups).
	total := groupBounds[0]
	for g := 1; g < d.NumGroups(); g++ {
		l := d.GroupLevel(g)
		total += levelFactor(d.Basis, d.dimsAtLevel[l]) * groupBounds[g]
	}
	return total, nil
}

// forwardDim applies one decomposition step along dim with node stride s.
func (d *Decomposition) forwardDim(dim, s int) {
	d.eachLine(dim, s, func(line []int) {
		d.forwardLine(line)
	})
}

// inverseDim undoes forwardDim.
func (d *Decomposition) inverseDim(dim, s int) {
	d.eachLine(dim, s, func(line []int) {
		d.inverseLine(line)
	})
}

// eachLine invokes fn with the flat offsets of every active line along dim
// at level stride s. Active line: all other coords are multiples of s (and
// 0 when their extent ≤ s); along dim the offsets step by s.
func (d *Decomposition) eachLine(dim, s int, fn func(line []int)) {
	ndim := d.Grid.NDims()
	ext := d.Grid.Dim(dim)
	stride := d.Grid.Stride(dim)
	nLine := (ext + s - 1) / s
	line := make([]int, nLine)

	var walk func(k, base int)
	walk = func(k, base int) {
		if k == ndim {
			for i := 0; i < nLine; i++ {
				line[i] = base + i*s*stride
			}
			fn(line)
			return
		}
		if k == dim {
			walk(k+1, base)
			return
		}
		e := d.Grid.Dim(k)
		st := d.Grid.Stride(k)
		if s >= e {
			walk(k+1, base) // only coord 0 active
			return
		}
		for c := 0; c < e; c += s {
			walk(k+1, base+c*st)
		}
	}
	walk(0, 0)
}

// forwardLine transforms one line: entries line[0..m-1] are flat offsets of
// active nodes; odd positions become detail coefficients, and under OB the
// even positions receive the projection correction.
func (d *Decomposition) forwardLine(line []int) {
	m := len(line)
	if m < 2 {
		return
	}
	c := d.coeffs
	// Details at odd positions.
	for i := 1; i < m; i += 2 {
		var pred float64
		if i+1 < m {
			pred = 0.5 * (c[line[i-1]] + c[line[i+1]])
		} else {
			pred = c[line[i-1]]
		}
		c[line[i]] -= pred
	}
	if d.Basis == Orthogonal {
		w := d.correction(line)
		for i, j := 0, 0; i < m; i, j = i+2, j+1 {
			c[line[i]] += w[j]
		}
	}
}

// inverseLine undoes forwardLine exactly.
func (d *Decomposition) inverseLine(line []int) {
	m := len(line)
	if m < 2 {
		return
	}
	c := d.coeffs
	if d.Basis == Orthogonal {
		w := d.correction(line)
		for i, j := 0, 0; i < m; i, j = i+2, j+1 {
			c[line[i]] -= w[j]
		}
	}
	for i := 1; i < m; i += 2 {
		var pred float64
		if i+1 < m {
			pred = 0.5 * (c[line[i-1]] + c[line[i+1]])
		} else {
			pred = c[line[i-1]]
		}
		c[line[i]] += pred
	}
}

// correction computes the L2-projection correction w for the coarse nodes of
// a line from its current detail coefficients, solving the tridiagonal
// system M w = f (Thomas algorithm). It depends only on detail entries, so
// forward and inverse recompute identical values.
func (d *Decomposition) correction(line []int) []float64 {
	m := len(line)
	nc := (m + 1) / 2 // coarse node count
	c := d.coeffs
	f := make([]float64, nc)
	for j := 0; j < nc; j++ {
		var load float64
		li := 2 * j
		if li-1 >= 0 {
			load += c[line[li-1]]
		}
		if li+1 < m {
			load += c[line[li+1]]
		}
		f[j] = load / 4
	}
	// Tridiagonal M: interior diag 2/3, boundary diag 1/2 (lumped for the
	// Varah bound, see levelFactor), off-diagonals 1/6.
	diag := make([]float64, nc)
	for j := range diag {
		if j == 0 || j == nc-1 {
			diag[j] = 0.5
		} else {
			diag[j] = 2.0 / 3.0
		}
	}
	if nc == 1 {
		f[0] /= diag[0]
		return f
	}
	const off = 1.0 / 6.0
	// Thomas forward sweep.
	cp := make([]float64, nc)
	cp[0] = off / diag[0]
	f[0] /= diag[0]
	for j := 1; j < nc; j++ {
		denom := diag[j] - off*cp[j-1]
		if j < nc-1 {
			cp[j] = off / denom
		}
		f[j] = (f[j] - off*f[j-1]) / denom
	}
	for j := nc - 2; j >= 0; j-- {
		f[j] -= cp[j] * f[j+1]
	}
	return f
}
