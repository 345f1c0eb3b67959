package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/obs"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// mutServer stands up a server plus client for the mutation tests.
func mutServer(t *testing.T) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { srv.Close(); ts.Close() })
	return srv, ts, client.New(ts.URL, client.WithTimeout(time.Minute), client.WithRetries(0))
}

// oracleSearch answers a query against a fresh region holding exactly
// rows (in slice order), remapping result positions through ids — the
// ground truth a mutated server region must match bit for bit.
func oracleSearch(t *testing.T, rows [][]float32, ids []int, q []float32, k int) []wire.Neighbor {
	t.Helper()
	r, err := ssam.New(len(q), ssam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadFloat32(flatten(rows)); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]wire.Neighbor, len(res))
	for i, n := range res {
		out[i] = wire.Neighbor{ID: ids[n.ID], Distance: n.Dist}
	}
	return out
}

func TestMutationEndToEnd(t *testing.T) {
	const (
		n, dim = 300, 8
		k      = 10
	)
	rows, queries := testData(n, 6, dim)
	extra, _ := testData(2, 0, dim)
	_, ts, c := mutServer(t)
	ctx := context.Background()

	if _, err := c.CreateRegion(ctx, "m", dim, wire.RegionConfig{Mode: "linear"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "m", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "m"); err != nil {
		t.Fatal(err)
	}

	// Two new rows, then two deletes plus one miss. Sequence numbers
	// must rise monotonically across responses and skip the miss.
	up, err := c.Upsert(ctx, "m", []int{n, n + 1}, extra)
	if err != nil {
		t.Fatal(err)
	}
	if up.Seq != 2 || up.Applied != 2 || up.Len != n+2 {
		t.Fatalf("upsert response %+v", up)
	}
	del, err := c.Delete(ctx, "m", []int{5, 6, 9999})
	if err != nil {
		t.Fatal(err)
	}
	if del.Seq != 4 || del.Applied != 2 || del.Len != n || len(del.Missing) != 1 || del.Missing[0] != 9999 {
		t.Fatalf("delete response %+v", del)
	}

	// Survivors: ids 0..n+1 minus {5,6}, with ids n and n+1 holding the
	// extra rows. The server must now answer exactly like a fresh
	// region over that dataset.
	var ids []int
	var surv [][]float32
	for i, row := range rows {
		if i == 5 || i == 6 {
			continue
		}
		ids = append(ids, i)
		surv = append(surv, row)
	}
	for i, row := range extra {
		ids = append(ids, n+i)
		surv = append(surv, row)
	}
	for qi, q := range queries {
		got, err := c.Search(ctx, "m", q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSearch(t, surv, ids, q, k)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: got %+v want %+v", qi, i, got[i], want[i])
			}
		}
	}

	// A forced trace on a write carries the mutate span with the
	// committed seq.
	body := strings.NewReader(fmt.Sprintf(`{"ids":[%d],"vectors":[[1,2,3,4,5,6,7,8]]}`, n+2))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/regions/m/upsert", body)
	req.Header.Set(server.TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var traced wire.MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if traced.Seq != 5 || traced.Trace == nil {
		t.Fatalf("traced upsert: %+v", traced)
	}
	msp := traced.Trace.Root.Find("mutate")
	if msp == nil || msp.Tags["seq"] != float64(5) {
		t.Fatalf("mutate span %+v", msp)
	}

	// /statsz carries the write-path block, agreeing with the responses.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mst := stats.Regions["m"].Mutation
	if mst == nil {
		t.Fatal("no mutation stats in /statsz")
	}
	if mst.Seq != 5 || mst.LiveRows != n+1 || mst.Upserts != 3 || mst.Deletes != 2 {
		t.Fatalf("mutation stats %+v", mst)
	}

	// /metrics exposes the same state under the region label.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, line := range []string{
		`ssam_region_mutation_seq{region="m"} 5`,
		fmt.Sprintf(`ssam_region_live_rows{region="m"} %d`, n+1),
		`ssam_region_upserts_total{region="m"} 3`,
		`ssam_region_deletes_total{region="m"} 2`,
		`ssam_region_writes_total{region="m"} 5`,
	} {
		if !strings.Contains(string(mbody), line) {
			t.Fatalf("/metrics missing %q:\n%s", line, mbody)
		}
	}
}

func TestCompactionEndToEnd(t *testing.T) {
	const (
		n, dim = 200, 6
		k      = 7
	)
	rows, queries := testData(n, 4, dim)
	_, ts, c := mutServer(t)
	ctx := context.Background()

	if _, err := c.CreateRegion(ctx, "gc", dim, wire.RegionConfig{Mode: "linear"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "gc", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "gc"); err != nil {
		t.Fatal(err)
	}

	// Tombstone every other row — 50% garbage, past the 30% threshold.
	var ids []int
	for id := 0; id < n; id += 2 {
		ids = append(ids, id)
	}
	del, err := c.Delete(ctx, "gc", ids)
	if err != nil {
		t.Fatal(err)
	}
	if del.Applied != n/2 || del.Len != n/2 {
		t.Fatalf("delete response %+v", del)
	}

	// One forced pass (the background compactor may also have run — a
	// pass either reclaims the garbage or finds it already gone; both
	// end with zero tombstones and an unchanged seq).
	comp, err := c.Compact(ctx, "gc")
	if err != nil {
		t.Fatal(err)
	}
	if comp.Seq != del.Seq || comp.Len != n/2 {
		t.Fatalf("compact response %+v (delete seq %d)", comp, del.Seq)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mst := stats.Regions["gc"].Mutation
	if mst == nil || mst.DeadRows != 0 || mst.CompactPasses == 0 || mst.LiveRows != n/2 {
		t.Fatalf("mutation stats after compact: %+v", mst)
	}

	// The layout-changing pass left a forced "compact" trace in the
	// ring, tagged with the pass summary.
	tresp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	var traces []*obs.TraceData
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	var compact *obs.TraceData
	for _, td := range traces {
		if td.Name == "compact" {
			compact = td
			break
		}
	}
	if compact == nil {
		t.Fatalf("no compact trace in /tracez (%d traces)", len(traces))
	}
	if compact.Root.Tags["region"] != "gc" || compact.Root.Tags["rows_dropped"] == float64(0) {
		t.Fatalf("compact trace tags %+v", compact.Root.Tags)
	}

	// Compaction must be invisible to results.
	var surv [][]float32
	var survIDs []int
	for id := 1; id < n; id += 2 {
		survIDs = append(survIDs, id)
		surv = append(surv, rows[id])
	}
	sort.Ints(survIDs)
	for qi, q := range queries {
		got, err := c.Search(ctx, "gc", q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSearch(t, surv, survIDs, q, k)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: got %+v want %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestMutationRejections(t *testing.T) {
	const dim = 4
	rows, _ := testData(40, 0, dim)
	_, _, c := mutServer(t)
	ctx := context.Background()

	wantStatus := func(t *testing.T, err error, code int) {
		t.Helper()
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code != code {
			t.Fatalf("err = %v, want status %d", err, code)
		}
	}

	// Sharded regions are immutable over the wire.
	if _, err := c.CreateRegion(ctx, "sh", dim, wire.RegionConfig{
		Sharding: &wire.ShardingConfig{Shards: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "sh", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "sh"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Upsert(ctx, "sh", []int{1}, rows[:1])
	wantStatus(t, err, http.StatusConflict)
	_, err = c.Delete(ctx, "sh", []int{1})
	wantStatus(t, err, http.StatusConflict)
	_, err = c.Compact(ctx, "sh")
	wantStatus(t, err, http.StatusConflict)

	// Indexed engines reject writes with the typed conflict.
	if _, err := c.CreateRegion(ctx, "kd", dim, wire.RegionConfig{Mode: "kdtree"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "kd", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "kd"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Upsert(ctx, "kd", []int{0}, rows[:1])
	wantStatus(t, err, http.StatusConflict)
	if !strings.Contains(err.Error(), "Linear") {
		t.Fatalf("want the immutable-engine message, got %v", err)
	}

	// Mutation before build is a sequencing conflict; bad payloads and
	// unknown regions keep their usual statuses.
	if _, err := c.CreateRegion(ctx, "raw", dim, wire.RegionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "raw", rows); err != nil {
		t.Fatal(err)
	}
	_, err = c.Upsert(ctx, "raw", []int{0}, rows[:1])
	wantStatus(t, err, http.StatusConflict)
	if _, err := c.Build(ctx, "raw"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Upsert(ctx, "raw", []int{0}, [][]float32{{1, 2}})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.Delete(ctx, "raw", nil)
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.Delete(ctx, "nope", []int{1})
	wantStatus(t, err, http.StatusNotFound)

	// CompactNow before any write has nothing to compact.
	_, err = c.Compact(ctx, "raw")
	wantStatus(t, err, http.StatusConflict)
}
