package encoding

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// poolTestData mixes incompressible and repetitive runs, so a reused
// compressor carries dirty match tables from one call into the next.
func poolTestData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := 0; i < n; {
		run := rng.Intn(200) + 1
		if rng.Intn(2) == 0 {
			rng.Read(out[i:min(i+run, n)])
		} else {
			for j := i; j < min(i+run, n); j++ {
				out[j] = byte(j % 7)
			}
		}
		i += run
	}
	return out
}

func freshDeflate(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestDeflatePooledMatchesFresh(t *testing.T) {
	levels := []int{0, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// Warm every level's pool on other input first.
	for _, lvl := range levels {
		for s := int64(0); s < 3; s++ {
			if _, err := Deflate(poolTestData(100+s, 20000), lvl); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, lvl := range levels {
		want := lvl
		if lvl == 0 {
			want = flate.DefaultCompression
		}
		for _, n := range []int{0, 1, 4096, 70000} {
			data := poolTestData(int64(n), n)
			got, err := Deflate(data, lvl)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, freshDeflate(t, data, want)) {
				t.Errorf("level %d, %d bytes: pooled output differs from flate.NewWriter", lvl, n)
			}
		}
	}
}

func TestDeflateRejectsBadLevel(t *testing.T) {
	for _, lvl := range []int{-3, 10} {
		if _, err := Deflate([]byte("x"), lvl); err == nil {
			t.Errorf("level %d accepted", lvl)
		}
	}
}

// TestDeflateAllocationGuard fails if Deflate goes back to building a
// compressor (about 1 MB of state) per call.
func TestDeflateAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	data := poolTestData(7, 4096)
	if _, err := Deflate(data, 6); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		if _, err := Deflate(data, 6); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("200 Deflate calls allocated %d bytes, want < 16 MiB", got)
	}
}

// TestInflateReuseAfterBadStream checks a pooled reader left mid-stream
// by a corrupt, truncated or over-limit stream decodes the next valid
// stream exactly.
func TestInflateReuseAfterBadStream(t *testing.T) {
	data := poolTestData(9, 50000)
	c, err := Deflate(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	// A non-final stored block of 5 bytes, then a block of the reserved
	// type 3: the reader fails after producing output.
	midStream := []byte{0x00, 0x05, 0x00, 0xfa, 0xff, 'h', 'e', 'l', 'l', 'o', 0x07}
	bad := []struct {
		name  string
		input []byte
		limit int64
	}{
		{"garbage", []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff}, 0},
		{"corrupt mid-stream", midStream, 0},
		{"truncated", c[:len(c)/2], 0},
		{"over-limit", c, int64(len(data)) / 2},
	}
	for _, b := range bad {
		for rep := 0; rep < 3; rep++ {
			if _, err := Inflate(b.input, b.limit); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrCorrupt", b.name, err)
			}
			got, err := Inflate(c, int64(len(data)))
			if err != nil {
				t.Fatalf("after %s: %v", b.name, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("after %s: valid stream decoded wrongly", b.name)
			}
		}
	}
}

func TestDeflateInflateConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				data := poolTestData(int64(g*100+i), 1000+i*300)
				lvl := (g+i)%12 - 2 // -2..9
				c, err := Deflate(data, lvl)
				if err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					if _, err := Inflate(c[:len(c)/2], 0); err == nil {
						t.Error("truncated stream inflated")
						return
					}
				}
				got, err := Inflate(c, int64(len(data)))
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("goroutine %d round %d: round trip failed: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
