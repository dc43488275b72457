package progqoi

// objstore_bench_test.go measures the stateless tier's cold path: every
// fragment of the archive fetched from the mock bucket with signed ranged
// GETs, cache disabled so each read pays the full sign → GET → verify
// round trip. The CI bench job gates it against the committed baseline —
// a regression here means the SigV4 signing, the range bookkeeping or the
// retry wrapper got slower on the per-fragment hot path.

import (
	"context"
	"sync"
	"testing"
	"time"

	"progqoi/internal/datagen"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
	"progqoi/internal/storage/objstore/miniobj"
)

var coldBench struct {
	once   sync.Once
	srv    *miniobj.Server
	keys   []string
	ranges [][]storage.FragmentRange
	total  int64
}

func coldBenchSetup(b *testing.B) {
	coldBench.once.Do(func() {
		ds := datagen.GE("GE-objstore-bench", 4, 160, 5)
		arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims)
		if err != nil {
			b.Fatal(err)
		}
		srv := miniobj.New(e2eBucket, miniobj.Credentials{AccessKey: e2eAccess, SecretKey: e2eSecret})
		seed, err := objstore.New(objstore.Options{
			Endpoint: srv.URL(), Bucket: e2eBucket, Prefix: e2ePrefix,
			AccessKey: e2eAccess, SecretKey: e2eSecret,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if err := storage.WriteArchive(ctx, seed, "ge", arch.Variables()); err != nil {
			b.Fatal(err)
		}
		l, err := storage.LoadArchive(ctx, seed, "ge")
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]string, len(l.Vars))
		var total int64
		for i, v := range l.Vars {
			keys[i] = storage.VarKey("ge", v.Name)
			for _, r := range l.Ranges[i] {
				total += r.Len
			}
		}
		coldBench.srv, coldBench.keys, coldBench.ranges, coldBench.total = srv, keys, l.Ranges, total
	})
}

// BenchmarkColdFetchObjstore fetches every fragment byte range of the
// archive from the bucket with the cache disabled: b.N full cold sweeps,
// throughput in fragment payload bytes per second.
func BenchmarkColdFetchObjstore(b *testing.B) {
	coldBenchSetup(b)
	ctx := context.Background()
	b.SetBytes(coldBench.total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh client per sweep keeps the ETag pins warm-path-free;
		// CacheBytes < 0 disables the read-through cache so every range
		// crosses the wire.
		st, err := objstore.New(objstore.Options{
			Endpoint: coldBench.srv.URL(), Bucket: e2eBucket, Prefix: e2ePrefix,
			AccessKey: e2eAccess, SecretKey: e2eSecret,
			CacheBytes: -1, RetryBackoff: time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		var got int64
		for vi, key := range coldBench.keys {
			for _, r := range coldBench.ranges[vi] {
				p, err := st.GetRange(ctx, key, r.Off, r.Len)
				if err != nil {
					b.Fatal(err)
				}
				got += int64(len(p))
			}
		}
		if got != coldBench.total {
			b.Fatalf("cold sweep moved %d bytes, want %d", got, coldBench.total)
		}
	}
}
