package server

// The handler's own cost, recorder and request included: the request
// pipeline sits under every spine workload, and on a sub-millisecond
// engine (pq_single) it is a visible share of the latency. The
// benchmarks report it; TestHandlerAllocs holds the allocation count,
// which unlike the time does not depend on how busy the box is.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ssam/internal/server/wire"
)

// post drives one request straight into the handler.
func post(srv *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// handlerFixture is a built 64 x 16 linear region "bench" and the
// request bodies the handler benchmarks replay, by path: one query, a
// batch of 16 and a one-row upsert.
func handlerFixture(tb testing.TB) (*Server, map[string][]byte) {
	tb.Helper()
	srv, vecs := linearServer(tb, Options{}, 64, 16)
	return srv, map[string][]byte{
		"/regions/bench/search":      mustJSON(tb, wire.SearchRequest{Query: vecs[3], K: 10}),
		"/regions/bench/searchbatch": mustJSON(tb, wire.SearchBatchRequest{Queries: vecs[16:32], K: 10}),
		"/regions/bench/upsert":      mustJSON(tb, wire.UpsertRequest{IDs: []int{7}, Vectors: vecs[9:10]}),
	}
}

func benchHandler(b *testing.B, path string) {
	srv, bodies := handlerFixture(b)
	body := bodies[path]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(srv, path, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

func BenchmarkHandleSearch(b *testing.B) { benchHandler(b, "/regions/bench/search") }

func BenchmarkHandleSearchBatch(b *testing.B) { benchHandler(b, "/regions/bench/searchbatch") }

func BenchmarkHandleUpsert(b *testing.B) { benchHandler(b, "/regions/bench/upsert") }

// BenchmarkHandleLoad replaces a region's rows with one spine chunk
// (5 000 × 128) per iteration, as JSON text and as binary rows. Both
// report MB/s of float32 payload, so the two read side by side.
func BenchmarkHandleLoad(b *testing.B) {
	const rows, dims = 5000, 128
	srv, vecs := linearServer(b, Options{}, rows, dims)
	req := wire.LoadRequest{Vectors: vecs}
	binaryBody, err := wire.EncodeLoad(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, form := range []struct {
		name string
		body []byte
	}{
		{"json", mustJSON(b, req)},
		{"binary", binaryBody},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(rows * dims * 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := post(srv, "/regions/bench/load", form.body); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// TestHandlerAllocs holds allocations per request: a pipeline assembled
// from func values and type parameters can box a value per stage, and a
// search arm shared by two routes a value per query, without anyone
// noticing. /upsert is held at what the per-endpoint handlers cost
// before the pipeline replaced them (52, read at that commit with this
// fixture). /search is held at 61, its reading once a lone query became
// a batch of one on the micro-batcher's long-lived runners (62 before).
// /searchbatch, 16 queries, is held at 238, its reading before the two
// search routes shared one arm.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on its own account")
	}
	srv, bodies := handlerFixture(t)
	for _, tc := range []struct {
		path string
		max  float64
	}{
		{"/regions/bench/search", 61},
		{"/regions/bench/searchbatch", 238},
		{"/regions/bench/upsert", 52},
	} {
		got := testing.AllocsPerRun(200, func() {
			if rec := post(srv, tc.path, bodies[tc.path]); rec.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", tc.path, rec.Code, rec.Body)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per request, want <= %.0f", tc.path, got, tc.max)
		}
		t.Logf("%s: %.0f allocs per request (limit %.0f)", tc.path, got, tc.max)
	}
}
