package server_test

// Wire-level coverage for the Vaults region option: the config
// round-trips through create/get, a vault-parallel region serves
// results identical to a serial one, and a forced-trace response shows
// the per-vault spans under the host exec span.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ssam/internal/client"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

func TestVaultsConfigRoundTripAndServing(t *testing.T) {
	// Big enough to clear the engines' adaptive serial threshold, so
	// the served queries genuinely take the vault-parallel path.
	const (
		n, dim = 2400, 8
		k      = 10
		vaults = 8
	)
	rows, queries := testData(n, 4, dim)

	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(time.Minute))

	info, err := c.CreateRegion(ctx, "vp", dim, wire.RegionConfig{Mode: "linear", Vaults: vaults})
	if err != nil {
		t.Fatal(err)
	}
	if info.Config.Vaults != vaults {
		t.Fatalf("create echoed vaults=%d, want %d", info.Config.Vaults, vaults)
	}
	if _, err := c.CreateRegion(ctx, "serial", dim, wire.RegionConfig{Mode: "linear", Vaults: 1}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vp", "serial"} {
		if _, err := c.Load(ctx, name, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Build(ctx, name); err != nil {
			t.Fatal(err)
		}
	}

	// The stored config survives a get, not just the create echo.
	if info, err = c.Region(ctx, "vp"); err != nil {
		t.Fatal(err)
	}
	if info.Config.Vaults != vaults {
		t.Fatalf("get echoed vaults=%d, want %d", info.Config.Vaults, vaults)
	}

	for i, q := range queries {
		want, err := c.Search(ctx, "serial", q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(ctx, "vp", q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: vault-parallel region diverged from serial over the wire", i)
		}
	}

	// A forced-trace response exposes the vault topology.
	resp, err := c.SearchTraced(ctx, "vp", queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("no trace on a forced-trace request")
	}
	exec := resp.Trace.Root.Find("exec")
	if exec == nil {
		t.Fatal("traced response has no exec span")
	}
	if spans := exec.FindAll("vault"); len(spans) != vaults {
		t.Fatalf("got %d vault spans in the wire trace, want %d", len(spans), vaults)
	}

	// Invalid vault counts are rejected at create time with the same
	// strictness as the other enums.
	if _, err := c.CreateRegion(ctx, "bad", dim, wire.RegionConfig{Mode: "linear", Vaults: -3}); err == nil {
		t.Fatal("negative vaults accepted at create")
	}
}
