package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"ssam/internal/client"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// TestRegionNamesNeedingEscapes drives every call of the client against
// the real server for region names that are one path segment only once
// escaped. Built into the path as they were, each was created with 201
// and then out of reach of every later call, Free included.
func TestRegionNamesNeedingEscapes(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(ts.URL)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	rows := [][]float32{{0, 0}, {1, 0}, {0, 2}, {3, 3}}
	ids := func(res []wire.Neighbor) []int {
		out := make([]int, len(res))
		for i, n := range res {
			out[i] = n.ID
		}
		return out
	}
	for _, name := range []string{"a b", "x?y", "50%", "ü"} {
		fail := func(call string, got any, err error) {
			t.Helper()
			t.Fatalf("region %q: %s = (%+v, %v)", name, call, got, err)
		}
		if info, err := c.CreateRegion(ctx, name, 2, wire.RegionConfig{}); err != nil || info.Name != name {
			fail("CreateRegion", info, err)
		}
		if info, err := c.Load(ctx, name, rows[:2]); err != nil || info.Len != 2 {
			fail("Load", info, err)
		}
		if info, err := c.LoadAppend(ctx, name, rows[2:]); err != nil || info.Len != 4 {
			fail("LoadAppend", info, err)
		}
		if info, err := c.Build(ctx, name); err != nil || !info.Built {
			fail("Build", info, err)
		}
		if got, err := c.Search(ctx, name, []float32{3, 3}, 1); err != nil || !slices.Equal(ids(got), []int{3}) {
			fail("Search", got, err)
		}
		if got, err := c.SearchTraced(ctx, name, []float32{0, 2}, 1); err != nil || got.Trace == nil || !slices.Equal(ids(got.Results), []int{2}) {
			fail("SearchTraced", got, err)
		}
		if got, err := c.SearchBatch(ctx, name, rows[:2], 1); err != nil || len(got) != 2 || !slices.Equal(ids(got[1]), []int{1}) {
			fail("SearchBatch", got, err)
		}
		if got, err := c.Upsert(ctx, name, []int{9}, [][]float32{{5, 5}}); err != nil || got.Applied != 1 {
			fail("Upsert", got, err)
		}
		if got, err := c.Delete(ctx, name, []int{0}); err != nil || got.Applied != 1 {
			fail("Delete", got, err)
		}
		if got, err := c.Compact(ctx, name); err != nil || got.Len != 4 {
			fail("Compact", got, err)
		}
		// Reload reaches the region, which is not replicated: 409, not 404.
		var se *client.StatusError
		if got, err := c.Reload(ctx, name); !errors.As(err, &se) || se.Code != http.StatusConflict {
			fail("Reload", got, err)
		}
		if info, err := c.Region(ctx, name); err != nil || info.Name != name || info.Len != 4 {
			fail("Region", info, err)
		}
		list, err := c.Regions(ctx)
		if err != nil || !slices.ContainsFunc(list, func(info wire.RegionInfo) bool { return info.Name == name }) {
			fail("Regions", list, err)
		}
		if st, err := c.Stats(ctx); err != nil || st.Regions[name].Queries != 4 {
			fail("Stats", st, err)
		}
		if err := c.Free(ctx, name); err != nil {
			fail("Free", nil, err)
		}
		if info, err := c.Region(ctx, name); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			fail("Region after Free", info, err)
		}
	}
}
