package progqoi

// hotpublish_test.go is the live-publishing e2e: a dataset packed (with
// the streaming, parallel ingest path) into the directory of a running
// fragment service becomes retrievable over the wire after one admin
// reload — no restart — while sessions opened before the publish keep
// certifying against their own catalog snapshot. It also proves the
// crash-safety half of the contract: a pack killed before its manifest
// commit leaves the store fully readable.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"progqoi/internal/core"
	"progqoi/internal/datagen"
	"progqoi/internal/progressive"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

// packInto streams a GE dataset into the store and returns the matching
// local archive for result comparison.
func packInto(t *testing.T, st storage.Store, name string, seed int64) (*Archive, *datagen.Dataset) {
	t.Helper()
	ds := datagen.GE("GE-"+name, 3, 128, seed)
	_, err := storage.RefactorTo(context.Background(), st, name, ds.FieldNames, ds.Dims, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
		Workers:     4,
	}, func(i int) ([]float64, error) { return ds.Fields[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	arch, err := Refactor(ds.FieldNames, ds.Fields, ds.Dims, WithRefactorWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	return arch, ds
}

func adminReload(t *testing.T, url, token string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/datasets/reload", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// doVTot certifies total velocity at rel tolerance and returns the result.
func doVTot(t *testing.T, sess *Session, ds *datagen.Dataset, rel float64) *Result {
	t.Helper()
	vtot := TotalVelocity(0, 1, 2)
	ranges := QoIRanges([]QoI{vtot}, ds.Fields)
	res, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: rel, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ToleranceMet {
		t.Fatalf("tolerance %g not met", rel)
	}
	return res
}

func sameData(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Data) != len(b.Data) {
		t.Fatalf("%d vs %d variables", len(a.Data), len(b.Data))
	}
	for v := range a.Data {
		if len(a.Data[v]) != len(b.Data[v]) {
			t.Fatalf("variable %d lengths differ", v)
		}
		for i := range a.Data[v] {
			if a.Data[v][i] != b.Data[v][i] {
				t.Fatalf("variable %d differs at %d", v, i)
			}
		}
	}
}

func TestHotPublishEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	localAlpha, dsAlpha := packInto(t, st, "alpha", 21)
	srv, err := server.New(context.Background(), st, server.Options{AdminToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx := context.Background()

	// A session opened against the pre-publish catalog.
	remAlpha, err := Open(ctx, hs.URL+"/alpha")
	if err != nil {
		t.Fatal(err)
	}
	sessAlpha, err := remAlpha.Open()
	if err != nil {
		t.Fatal(err)
	}
	lsessAlpha, err := localAlpha.Open()
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, doVTot(t, lsessAlpha, dsAlpha, 1e-2), doVTot(t, sessAlpha, dsAlpha, 1e-2))

	// beta is not yet publishable: pack it live, then reload.
	if _, err := Open(ctx, hs.URL+"/beta"); err == nil {
		t.Fatal("beta retrievable before publish")
	}
	localBeta, dsBeta := packInto(t, st, "beta", 22)
	// A torn pack of another dataset sits alongside — it must not block
	// the publish (SIGKILL-during-publish leaves the store readable).
	w, err := storage.NewArchiveWriter(st, "torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteVariable(context.Background(), localBeta.Variables()[0]); err != nil {
		t.Fatal(err)
	}

	if code := adminReload(t, hs.URL, "wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d", code)
	}
	if code := adminReload(t, hs.URL, "tok"); code != http.StatusOK {
		t.Fatalf("reload: %d", code)
	}

	// The new dataset is retrievable over the wire without a restart, and
	// matches a local session bit for bit.
	remBeta, err := Open(ctx, hs.URL+"/beta")
	if err != nil {
		t.Fatal(err)
	}
	sessBeta, err := remBeta.Open()
	if err != nil {
		t.Fatal(err)
	}
	lsessBeta, err := localBeta.Open()
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, doVTot(t, lsessBeta, dsBeta, 1e-3), doVTot(t, sessBeta, dsBeta, 1e-3))

	// The pre-publish session keeps working — and keeps its incremental
	// reuse — across the catalog swap.
	resL := doVTot(t, lsessAlpha, dsAlpha, 1e-4)
	resR := doVTot(t, sessAlpha, dsAlpha, 1e-4)
	sameData(t, resL, resR)
	if resL.RetrievedBytes != resR.RetrievedBytes {
		t.Fatalf("retrieved bytes diverged: %d vs %d", resL.RetrievedBytes, resR.RetrievedBytes)
	}
}
