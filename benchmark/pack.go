package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"time"

	"progqoi"
	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/grid"
	"progqoi/internal/mgard"
	"progqoi/internal/progressive"
	"progqoi/internal/storage"
)

// packRunner packs GE-large stand-ins (96×4096 points × 5 fields,
// 15.7 MB) into a fresh in-memory store per op, the way `progqoi pack`
// does, cycling through its set-ups' datasets, and checks every archive
// is byte-identical to the one packed and reopened in set-up.
type packRunner struct {
	sets []*packSet
}

type packSet struct {
	seed   int64
	ds     *datagen.Dataset
	digest [sha256.Size]byte
	stored int64
}

// setupPack generates the dataset and packs it once: the reference every
// measured pack must reproduce, and the warm-up.
func setupPack(ctx context.Context, seed int64) (runner, error) {
	r := &packSet{seed: seed, ds: datagen.GE("ge", 96, 4096, seed)}
	st := newLayerStore()
	stored, err := r.pack(ctx, st)
	if err != nil {
		return nil, err
	}
	if r.digest, err = digest(ctx, st); err != nil {
		return nil, err
	}
	r.stored = stored
	vars, err := storage.ReadArchive(ctx, st, dataset)
	if err != nil {
		return nil, fmt.Errorf("reopen the packed archive: %w", err)
	}
	if len(vars) != len(r.ds.FieldNames) {
		return nil, fmt.Errorf("reopened archive has %d variables, want %d", len(vars), len(r.ds.FieldNames))
	}
	for i, v := range vars {
		if v.Name != r.ds.FieldNames[i] || !slices.Equal(v.Ref.Dims, r.ds.Dims) {
			return nil, fmt.Errorf("reopened variable %d is %s on %v, want %s on %v",
				i, v.Name, v.Ref.Dims, r.ds.FieldNames[i], r.ds.Dims)
		}
	}
	return &packRunner{sets: []*packSet{r}}, nil
}

func (r *packRunner) join(o runner) { r.sets = append(r.sets, o.(*packRunner).sets...) }

// pack is the call `progqoi pack` makes, with its default options.
func (r *packSet) pack(ctx context.Context, st storage.Store) (int64, error) {
	return storage.RefactorTo(ctx, st, dataset, r.ds.FieldNames, r.ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progqoi.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	}, func(i int) ([]float64, error) { return r.ds.Fields[i], nil })
}

// digest hashes every key and value of the store in key order.
func digest(ctx context.Context, st storage.Store) ([sha256.Size]byte, error) {
	h := sha256.New()
	keys, err := st.Keys(ctx)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	for _, k := range keys {
		v, err := st.Get(ctx, k)
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
		h.Write(n[:])
		h.Write(v)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

func (r *packRunner) pass(ctx context.Context, d time.Duration, traced bool) (*pass, error) {
	p := newPass()
	runtime.GC()
	start := readRuntime()
	t0 := time.Now()
	for op := 0; op == 0 || time.Since(t0) < d; op++ {
		set := r.sets[op%len(r.sets)]
		st := newLayerStore()
		st.on.Store(traced)
		t1 := time.Now()
		stored, err := set.pack(ctx, st)
		took := time.Since(t1)
		p.attempted++
		if err != nil {
			p.fail("dataset seed %d, pack %d: %v", set.seed, op, err)
			continue
		}
		sum, err := digest(ctx, st)
		switch {
		case err != nil:
			p.fail("dataset seed %d, pack %d: read back: %v", set.seed, op, err)
			continue
		case stored != set.stored || !bytes.Equal(sum[:], set.digest[:]):
			p.fail("dataset seed %d, pack %d: archive differs from the reference pack (%d stored bytes, want %d)", set.seed, op, stored, set.stored)
			continue
		}
		p.record("", took)
		p.archiveBytes += stored
		p.inputBytes += set.ds.TotalBytes()
		if traced {
			p.sums["storage.write_s"] += time.Duration(st.putNanos.Load()).Seconds()
			p.sums["storage.puts_per_op"] += float64(st.puts.Load())
			p.sums["storage.put_bytes_per_op"] += float64(st.putBytes.Load())
			if err := set.split(p); err != nil {
				return p, err
			}
		}
	}
	p.wall = time.Since(t0)
	p.rt = readRuntime().since(start)
	return p, nil
}

// split times the refactor of each field once more, outside the op, as
// decomposition alone and as the whole progressive refactor; the
// difference is bit-plane encoding and deflate.
func (r *packSet) split(p *pass) error {
	for _, f := range r.ds.Fields {
		g, err := grid.New(r.ds.Dims...)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := mgard.Decompose(f, g, mgard.Hierarchical); err != nil {
			return err
		}
		dec := time.Since(t0)
		t1 := time.Now()
		if _, err := progressive.Refactor(f, r.ds.Dims, progressive.Options{Method: progqoi.PMGARDHB, LosslessTail: true}); err != nil {
			return err
		}
		ref := time.Since(t1)
		p.sums["mgard.decompose_s"] += dec.Seconds()
		p.sums["progressive.encode_s"] += (ref - dec).Seconds()
	}
	return nil
}

func (r *packRunner) close() {}
