package bitplane

import (
	"bytes"
	"math/rand"
	"testing"
)

// naivePlaneBitmap is the reference bit-by-bit extraction planeBitmap
// must match.
func naivePlaneBitmap(mags []uint64, bit uint) []byte {
	raw := make([]byte, (len(mags)+7)/8)
	for i, m := range mags {
		if m>>bit&1 == 1 {
			raw[i/8] |= 1 << uint(i%8)
		}
	}
	return raw
}

func randMags(rng *rand.Rand, n, numPlanes int) []uint64 {
	mags := make([]uint64, n)
	for i := range mags {
		mags[i] = rng.Uint64() >> uint(64-numPlanes)
	}
	return mags
}

func TestPlaneBitmapMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 4097} {
		mags := randMags(rng, n, DefaultPlanes)
		for _, p := range []int{0, DefaultPlanes / 2, DefaultPlanes - 1} {
			bit := uint(DefaultPlanes - 1 - p)
			if got, want := planeBitmap(mags, bit), naivePlaneBitmap(mags, bit); !bytes.Equal(got, want) {
				t.Errorf("n=%d plane %d: bitmap %x, want %x", n, p, got, want)
			}
		}
	}
}

// benchPlaneMags returns fixed-point magnitudes of a 64 Ki-coefficient
// group, the size of a fine detail level in a pack.
func benchPlaneMags(b *testing.B) []uint64 {
	vals := randVals(rand.New(rand.NewSource(3)), 1<<16, 1)
	_, mags, _, err := prepare(vals, DefaultPlanes)
	if err != nil {
		b.Fatal(err)
	}
	return mags
}

// BenchmarkSlicePlane measures extracting one low-order (close to random)
// plane bitmap.
func BenchmarkSlicePlane(b *testing.B) {
	mags := benchPlaneMags(b)
	b.SetBytes(int64(len(mags) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = planeBitmap(mags, 20)
	}
}

// BenchmarkDeflatePlane measures compressing that plane bitmap into a
// stored fragment.
func BenchmarkDeflatePlane(b *testing.B) {
	raw := planeBitmap(benchPlaneMags(b), 20)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frag, err := compressFragment(raw)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = frag
	}
}

var benchSink []byte
