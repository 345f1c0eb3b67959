package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ssam/internal/client"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// TestBinaryLoadMatchesJSON: a region loaded in binary append chunks
// (the client's form) and its twin loaded in JSON chunks hold the same
// rows and answer the same queries bit for bit, on every kind whose
// load path differs — plain exact and quantized, sharded, replicated,
// storage-backed. After decoding, the two forms share one path.
func TestBinaryLoadMatchesJSON(t *testing.T) {
	const n, dims, chunk, nq, k = 700, 16, 128, 64, 10
	rows, queries := testData(n, nq, dims)
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()
	dir := t.TempDir()

	postJSON := func(region string, req wire.LoadRequest) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/regions/"+region+"/load", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return &client.StatusError{Code: resp.StatusCode, Message: string(msg)}
		}
		return nil
	}

	for _, kind := range []struct {
		name string
		cfg  wire.RegionConfig
	}{
		{"linear", wire.RegionConfig{}},
		{"quantized", wire.RegionConfig{Mode: "quantized", Index: wire.IndexParams{M: 4, Sample: 256, Rerank: 32, Seed: 3}}},
		{"sharded", wire.RegionConfig{Sharding: &wire.ShardingConfig{Shards: 3}}},
		{"replicated", wire.RegionConfig{Replicas: &wire.ReplicasConfig{Replicas: 2}}},
		{"storage", wire.RegionConfig{Storage: &wire.StorageConfig{}}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			bin, text := kind.name+"-binary", kind.name+"-json"
			for _, region := range []string{bin, text} {
				cfg := kind.cfg
				if cfg.Storage != nil { // each region its own backing file
					cfg.Storage = &wire.StorageConfig{Path: filepath.Join(dir, region+".tier")}
				}
				if _, err := c.CreateRegion(ctx, region, dims, cfg); err != nil {
					t.Fatalf("create %s: %v", region, err)
				}
			}
			for lo := 0; lo < n; lo += chunk {
				hi := min(lo+chunk, n)
				if _, err := c.LoadAppend(ctx, bin, rows[lo:hi]); err != nil {
					t.Fatalf("binary load of rows %d-%d: %v", lo, hi, err)
				}
				if err := postJSON(text, wire.LoadRequest{Vectors: rows[lo:hi], Append: true}); err != nil {
					t.Fatalf("JSON load of rows %d-%d: %v", lo, hi, err)
				}
			}
			var infos [2]wire.RegionInfo
			for i, region := range []string{bin, text} {
				var err error
				if infos[i], err = c.Build(ctx, region); err != nil {
					t.Fatalf("build %s: %v", region, err)
				}
			}
			if infos[0].Len != n || infos[1].Len != n {
				t.Fatalf("len after the loads: binary %d, JSON %d, want %d", infos[0].Len, infos[1].Len, n)
			}
			for i, q := range queries {
				got, err := c.Search(ctx, bin, q, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.Search(ctx, text, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			}

			if kind.name == "storage" {
				// The rows now live only in the backing file, in either form.
				var se *client.StatusError
				if _, err := c.LoadAppend(ctx, bin, rows[:1]); !errors.As(err, &se) || se.Code != http.StatusConflict {
					t.Errorf("binary append onto a built storage-backed region = %v, want 409", err)
				}
				if err := postJSON(text, wire.LoadRequest{Vectors: rows[:1], Append: true}); !errors.As(err, &se) || se.Code != http.StatusConflict {
					t.Errorf("JSON append onto a built storage-backed region = %v, want 409", err)
				}
			}
		})
	}

	narrow := make([][]float32, 4)
	for i := range narrow {
		narrow[i] = rows[i][:dims-1]
	}
	var se *client.StatusError
	if _, err := c.LoadAppend(ctx, "linear-binary", narrow); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("binary load %d dims wide into a %d-dim region = %v, want 400", dims-1, dims, err)
	}
}

// sameBits reports the first neighbor where two answers differ in id or
// in the bits of the distance.
func sameBits(got, want []wire.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			return fmt.Errorf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
