package storage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
)

// TestGoldenPackDigests pins the exact bytes a pack stores for every
// method. Encode-side optimisations must leave the archive format and its
// contents unchanged; any drift in decomposition, bit-plane slicing,
// DEFLATE output or blob layout changes a digest.
//
// The digests are pinned on amd64 only: other architectures may fuse
// multiply-adds in the transforms and so produce different floats.
func TestGoldenPackDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	golden := []struct {
		method progressive.Method
		digest string
	}{
		{progressive.PMGARDHB, "409f910291ea5785ac7623812f758ea9aa1971ad420768e38594eefa5b9bf9d8"},
		{progressive.PMGARD, "390fc7ea6f49b858e16632e704db423e403f06debbf8476ea839d8f504aa5c84"},
		{progressive.PSZ3, "92944cba1dcc0780af48c4fbec0a600e5dfaaa03b2f68d7a894525f594fffa8c"},
		{progressive.PSZ3Delta, "4a8407b1f7c31c7134162fabab3f17569d0c6ecf1abcfe11e5372c2146eb17b8"},
	}
	ds := datagen.GE("ge", 24, 1024, 11)
	ctx := context.Background()
	for _, g := range golden {
		t.Run(g.method.String(), func(t *testing.T) {
			st := NewMemStore()
			opt := core.RefactorOptions{
				Progressive: progressive.Options{Method: g.method, LosslessTail: true},
				MaskZeros:   true,
			}
			src := func(i int) ([]float64, error) { return ds.Fields[i], nil }
			if _, err := RefactorTo(ctx, st, ds.Name, ds.FieldNames, ds.Dims, opt, src); err != nil {
				t.Fatal(err)
			}
			keys, err := st.Keys(ctx)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, key := range keys {
				val, err := st.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s:%d:", key, len(val))
				h.Write(val)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.digest {
				t.Fatalf("store digest %s, want %s", got, g.digest)
			}
		})
	}
}
