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

// handlerFixture is a built 64 x 16 linear region "bench" and the two
// request bodies the handler benchmarks replay.
func handlerFixture(tb testing.TB) (srv *Server, search, upsert []byte) {
	tb.Helper()
	srv, vecs := linearServer(tb, Options{}, 64, 16)
	search = mustJSON(tb, wire.SearchRequest{Query: vecs[3], K: 10})
	upsert = mustJSON(tb, wire.UpsertRequest{IDs: []int{7}, Vectors: vecs[9:10]})
	return srv, search, upsert
}

func benchHandler(b *testing.B, path string, pick func(search, upsert []byte) []byte) {
	srv, search, upsert := handlerFixture(b)
	body := pick(search, upsert)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(srv, path, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

func BenchmarkHandleSearch(b *testing.B) {
	benchHandler(b, "/regions/bench/search", func(search, _ []byte) []byte { return search })
}

func BenchmarkHandleUpsert(b *testing.B) {
	benchHandler(b, "/regions/bench/upsert", func(_, upsert []byte) []byte { return upsert })
}

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

// TestHandlerAllocs holds allocations per request at what the
// per-endpoint handlers cost before the pipeline replaced them (63 and
// 52, read at that commit with this fixture): a pipeline assembled from
// func values and type parameters can box a value per stage without
// anyone noticing.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on its own account")
	}
	srv, search, upsert := handlerFixture(t)
	for _, tc := range []struct {
		path string
		body []byte
		max  float64
	}{
		{"/regions/bench/search", search, 63},
		{"/regions/bench/upsert", upsert, 52},
	} {
		got := testing.AllocsPerRun(200, func() {
			if rec := post(srv, tc.path, tc.body); rec.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", tc.path, rec.Code, rec.Body)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per request, want <= %.0f", tc.path, got, tc.max)
		}
		t.Logf("%s: %.0f allocs per request (limit %.0f)", tc.path, got, tc.max)
	}
}
