// Package bitplane implements progressive-precision encoding of float64
// coefficient blocks, the mechanism PMGARD-style refactoring uses to serve
// data "from the most to the least significant bit" (paper §II, §V-B).
//
// A block of coefficients shares one binary exponent e chosen so that every
// |v| < 2^e. Magnitudes are converted to B-bit fixed point under that
// exponent and sliced into B bit planes from most to least significant; the
// sign bits travel with the first plane. Retrieving the first k planes
// reconstructs every value with a guaranteed error
//
//	|v − v̂| ≤ 2^e · (2^−k + 2^−B)
//
// which is exactly the per-fragment L∞ bound the QoI retrieval loop consumes.
// Each plane is independently compressed (DEFLATE with a raw fallback) so
// leading all-zero planes cost almost nothing.
package bitplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"progqoi/internal/encoding"
)

// DefaultPlanes is the default fixed-point width: enough for full double
// precision recovery relative to the block magnitude.
const DefaultPlanes = 60

// ErrBadInput reports non-finite input values.
var ErrBadInput = errors.New("bitplane: input must be finite")

// Block is an encoded coefficient block: per-plane compressed fragments plus
// the shared exponent metadata needed to decode any prefix of planes.
type Block struct {
	N      int      // number of coefficients
	Exp    int      // shared exponent: all |v| < 2^Exp (meaningful when N>0 and not all-zero)
	B      int      // total planes available
	Signs  []byte   // compressed sign bitmap (fetched with the first plane)
	Planes [][]byte // compressed magnitude planes, MSB first
}

// Encode slices vals into numPlanes bit planes. numPlanes ≤ 62; values must
// be finite. An all-zero block encodes to zero-length planes.
func Encode(vals []float64, numPlanes int) (*Block, error) {
	blocks, err := EncodeAll([][]float64{vals}, numPlanes, 1)
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// EncodeAll encodes several coefficient groups at once, scheduling the
// per-plane slicing and compression of every group over one bounded pool
// of workers goroutines (≤ 1 selects the sequential path). Each fragment
// is sliced and compressed independently, so the output blocks are
// bit-identical to calling Encode per group — only the schedule changes.
// This is the encode-side mirror of the Reader's decode pool.
func EncodeAll(groups [][]float64, numPlanes, workers int) ([]*Block, error) {
	if numPlanes <= 0 || numPlanes > 62 {
		return nil, fmt.Errorf("bitplane: numPlanes %d outside (0,62]", numPlanes)
	}
	blocks := make([]*Block, len(groups))
	mags := make([][]uint64, len(groups))
	signs := make([][]byte, len(groups))
	errs := make([]error, len(groups))
	// Stage 1: per-group fixed-point conversion (exponent, magnitudes,
	// sign bitmap).
	runTasks(workers, len(groups), func(gi int) {
		blocks[gi], mags[gi], signs[gi], errs[gi] = prepare(groups[gi], numPlanes)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Stage 2: one task per stored fragment — the sign bitmap and every
	// magnitude plane of every non-zero group — over the same pool. Each
	// task writes only its own slot, so the merge is deterministic.
	type task struct{ gi, p int } // p == -1 is the sign fragment
	var tasks []task
	for gi, blk := range blocks {
		if blk.Exp == math.MinInt32 {
			continue // all-zero block: no fragments at all
		}
		blk.Planes = make([][]byte, numPlanes)
		tasks = append(tasks, task{gi, -1})
		for p := 0; p < numPlanes; p++ {
			tasks = append(tasks, task{gi, p})
		}
	}
	terrs := make([]error, len(tasks))
	runTasks(workers, len(tasks), func(ti int) {
		t := tasks[ti]
		blk := blocks[t.gi]
		if t.p < 0 {
			blk.Signs, terrs[ti] = compressFragment(signs[t.gi])
			return
		}
		blk.Planes[t.p], terrs[ti] = slicePlane(mags[t.gi], numPlanes, t.p)
	})
	for _, err := range terrs {
		if err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// prepare runs the sequential head of the encode: validation, shared
// exponent, fixed-point magnitudes and the raw sign bitmap. All-zero (or
// empty) groups come back with Exp = math.MinInt32 and nil magnitudes.
func prepare(vals []float64, numPlanes int) (*Block, []uint64, []byte, error) {
	maxAbs := 0.0
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, nil, ErrBadInput
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	b := &Block{N: len(vals), B: numPlanes}
	if len(vals) == 0 || maxAbs == 0 {
		b.Exp = math.MinInt32 // marks the all-zero block; Bound() treats it as 0
		return b, nil, nil, nil
	}
	// Choose e with maxAbs < 2^e (frexp: maxAbs = f·2^exp, f ∈ [0.5,1)).
	_, exp := math.Frexp(maxAbs)
	b.Exp = exp
	scale := math.Ldexp(1, numPlanes-exp) // 2^(B-e)

	// Fixed-point magnitudes and signs.
	mags := make([]uint64, len(vals))
	signBits := make([]byte, (len(vals)+7)/8)
	limit := (uint64(1) << uint(numPlanes)) - 1
	for i, v := range vals {
		if v < 0 {
			signBits[i/8] |= 1 << uint(i%8)
		}
		m := uint64(math.Abs(v) * scale) // floor; |v|·2^(B-e) < 2^B
		if m > limit {
			m = limit // guards the v == maxAbs boundary under rounding
		}
		mags[i] = m
	}
	return b, mags, signBits, nil
}

// slicePlane extracts plane p (MSB-first) of the fixed-point magnitudes as
// a bitmap and compresses it. Pure function of its arguments, so plane
// tasks can run on any goroutine in any order.
func slicePlane(mags []uint64, numPlanes, p int) ([]byte, error) {
	return compressFragment(planeBitmap(mags, uint(numPlanes-1-p)))
}

// planeBitmap packs bit `bit` of every magnitude into an LSB-first bitmap
// of ceil(len(mags)/8) bytes. Each full byte is assembled from 8
// magnitudes with shifts only: the low planes are close to random bits, so
// a per-bit branch would mispredict about half the time.
func planeBitmap(mags []uint64, bit uint) []byte {
	raw := make([]byte, (len(mags)+7)/8)
	bit &= 63 // lets the compiler drop the shift-overflow check
	full := raw[:len(mags)/8]
	for j := range full {
		m := mags[8*j : 8*j+8 : 8*j+8]
		full[j] = byte(m[0]>>bit&1) |
			byte(m[1]>>bit&1)<<1 |
			byte(m[2]>>bit&1)<<2 |
			byte(m[3]>>bit&1)<<3 |
			byte(m[4]>>bit&1)<<4 |
			byte(m[5]>>bit&1)<<5 |
			byte(m[6]>>bit&1)<<6 |
			byte(m[7]>>bit&1)<<7
	}
	if tail := mags[8*len(full):]; len(tail) > 0 {
		var b byte
		for i, m := range tail {
			b |= byte(m>>bit&1) << uint(i)
		}
		raw[len(full)] = b
	}
	return raw
}

// runTasks runs fn(0..n-1) on up to workers goroutines, handing out indices
// from an atomic counter. workers ≤ 1 (or a single task) runs inline.
func runTasks(workers, n int, fn func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Bound returns the guaranteed L∞ reconstruction error after applying the
// first k planes (0 ≤ k ≤ B). For k = 0 the bound is 2^Exp (values unknown,
// reconstructed as zero). All-zero blocks have bound 0 for any k.
func (b *Block) Bound(k int) float64 {
	if b.N == 0 || b.Exp == math.MinInt32 {
		return 0
	}
	if k < 0 {
		k = 0
	}
	if k >= b.B {
		return math.Ldexp(1, b.Exp-b.B) // truncation only
	}
	return math.Ldexp(1, b.Exp-k) + math.Ldexp(1, b.Exp-b.B)
}

// PlaneSize returns the stored byte size of plane p, including the sign
// fragment for p = 0. This is the retrieval cost accounting unit.
func (b *Block) PlaneSize(p int) int {
	if b.Exp == math.MinInt32 {
		return 0
	}
	n := len(b.Planes[p])
	if p == 0 {
		n += len(b.Signs)
	}
	return n
}

// TotalSize returns the total stored bytes of all fragments.
func (b *Block) TotalSize() int {
	n := len(b.Signs)
	for _, p := range b.Planes {
		n += len(p)
	}
	return n
}

// Decoder incrementally reconstructs a block as planes arrive.
type Decoder struct {
	blk     *Block
	mags    []uint64
	signs   []byte
	applied int
}

// NewDecoder prepares incremental decoding of b.
func NewDecoder(b *Block) *Decoder {
	return &Decoder{blk: b, mags: make([]uint64, b.N)}
}

// Applied returns the number of planes applied so far.
func (d *Decoder) Applied() int { return d.applied }

// Advance applies planes until k planes are active (k ≥ current). Advancing
// past b.B is clamped.
func (d *Decoder) Advance(k int) error {
	if k > d.blk.B {
		k = d.blk.B
	}
	if d.blk.N == 0 || d.blk.Exp == math.MinInt32 {
		d.applied = k
		return nil
	}
	if d.applied == 0 && k > 0 {
		raw, err := decompressFragment(d.blk.Signs, (d.blk.N+7)/8)
		if err != nil {
			return fmt.Errorf("bitplane: signs: %w", err)
		}
		d.signs = raw
	}
	for p := d.applied; p < k; p++ {
		raw, err := decompressFragment(d.blk.Planes[p], (d.blk.N+7)/8)
		if err != nil {
			return fmt.Errorf("bitplane: plane %d: %w", p, err)
		}
		bit := uint(d.blk.B - 1 - p)
		for i := 0; i < d.blk.N; i++ {
			if raw[i/8]>>uint(i%8)&1 == 1 {
				d.mags[i] |= 1 << bit
			}
		}
	}
	if k > d.applied {
		d.applied = k
	}
	return nil
}

// Values reconstructs the current approximation. With zero planes applied it
// returns zeros (bound 2^Exp).
func (d *Decoder) Values() []float64 {
	out := make([]float64, d.blk.N)
	if d.applied == 0 || d.blk.Exp == math.MinInt32 {
		return out
	}
	inv := math.Ldexp(1, d.blk.Exp-d.blk.B) // 2^(e-B)
	for i, m := range d.mags {
		v := float64(m) * inv
		if d.signs != nil && d.signs[i/8]>>uint(i%8)&1 == 1 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// Bound returns the current guaranteed L∞ error of Values().
func (d *Decoder) Bound() float64 { return d.blk.Bound(d.applied) }

// The three-step decode surface below (RawBitmap → OrPlane/SetSigns →
// CommitPlanes) decomposes Advance so a caller can decompress fragments and
// apply bit planes with its own worker pool. Advance(k) is exactly
// RawBitmap of each missing plane (plus signs when starting from zero),
// OrPlane over the whole coefficient range, then CommitPlanes(k); any
// interleaving of disjoint OrPlane ranges produces bit-identical magnitudes
// because plane application only ORs independent bits.

// RawBitmap decompresses one of the block's compressed fragments (a
// magnitude plane or the sign fragment) into its raw bitmap of
// ceil(N/8) bytes. It does not touch decoder state and is safe to call
// concurrently.
func (b *Block) RawBitmap(frag []byte) ([]byte, error) {
	return decompressFragment(frag, (b.N+7)/8)
}

// OrPlane ORs the raw bitmap of plane p into the decoder's magnitudes for
// coefficients [lo, hi). Callers running concurrent OrPlane calls must keep
// their ranges disjoint; planes of the same range may be applied in any
// order. Applied() is unchanged until CommitPlanes.
func (d *Decoder) OrPlane(p int, raw []byte, lo, hi int) {
	bit := uint(d.blk.B - 1 - p)
	for i := lo; i < hi; i++ {
		if raw[i/8]>>uint(i%8)&1 == 1 {
			d.mags[i] |= 1 << bit
		}
	}
}

// SetSigns installs the decompressed sign bitmap (RawBitmap of Block.Signs).
func (d *Decoder) SetSigns(raw []byte) { d.signs = raw }

// CommitPlanes records that every plane below k has been fully applied via
// OrPlane, making Values()/Bound() reflect them. k past B is clamped;
// committing below the current Applied() is a no-op, so replays of
// already-applied planes (idempotent under OR) are harmless.
func (d *Decoder) CommitPlanes(k int) {
	if k > d.blk.B {
		k = d.blk.B
	}
	if k > d.applied {
		d.applied = k
	}
}

// fragment framing: tag byte 0 = raw, 1 = deflate(payload).

func compressFragment(raw []byte) ([]byte, error) {
	c, err := encoding.Deflate(raw, 6)
	if err != nil {
		return nil, err
	}
	if len(c)+1 < len(raw)+1 {
		return append([]byte{1}, c...), nil
	}
	return append([]byte{0}, raw...), nil
}

func decompressFragment(frag []byte, wantLen int) ([]byte, error) {
	if len(frag) == 0 {
		return nil, fmt.Errorf("%w: empty fragment", encoding.ErrCorrupt)
	}
	var raw []byte
	switch frag[0] {
	case 0:
		raw = frag[1:]
	case 1:
		var err error
		raw, err = encoding.Inflate(frag[1:], int64(wantLen))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown fragment tag %d", encoding.ErrCorrupt, frag[0])
	}
	if len(raw) != wantLen {
		return nil, fmt.Errorf("%w: fragment size %d, want %d", encoding.ErrCorrupt, len(raw), wantLen)
	}
	return raw, nil
}

// Marshal serializes the block (metadata + all fragments).
func (b *Block) Marshal() []byte {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(b.N))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(b.Exp)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(b.B))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(b.Planes)))
	out := encoding.PutSection(nil, hdr)
	out = encoding.PutSection(out, b.Signs)
	for _, p := range b.Planes {
		out = encoding.PutSection(out, p)
	}
	return out
}

// Unmarshal parses Marshal output, returning the block and bytes consumed.
func Unmarshal(data []byte) (*Block, int, error) {
	hdr, n, err := encoding.GetSection(data)
	if err != nil {
		return nil, 0, err
	}
	if len(hdr) != 16 {
		return nil, 0, fmt.Errorf("%w: bitplane header size %d", encoding.ErrCorrupt, len(hdr))
	}
	b := &Block{
		N:   int(binary.LittleEndian.Uint32(hdr[0:])),
		Exp: int(int32(binary.LittleEndian.Uint32(hdr[4:]))),
		B:   int(binary.LittleEndian.Uint32(hdr[8:])),
	}
	nPlanes := int(binary.LittleEndian.Uint32(hdr[12:]))
	if b.N < 0 || b.B < 0 || b.B > 62 || nPlanes < 0 || nPlanes > 62 {
		return nil, 0, fmt.Errorf("%w: implausible bitplane header", encoding.ErrCorrupt)
	}
	off := n
	b.Signs, n, err = encoding.GetSection(data[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	b.Planes = make([][]byte, nPlanes)
	for i := range b.Planes {
		b.Planes[i], n, err = encoding.GetSection(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
	}
	return b, off, nil
}
