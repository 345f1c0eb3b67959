package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssam/internal/server/wire"
)

// shedThenServe 503s the first n attempts (with a zero Retry-After so
// tests don't sleep), then serves an empty result.
func shedThenServe(n int) (*httptest.Server, *atomic.Int32) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(attempts.Add(1)) <= n {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"results":[]}`))
	}))
	return ts, &attempts
}

func TestRetriesShedLoad(t *testing.T) {
	ts, attempts := shedThenServe(2)
	defer ts.Close()
	c := New(ts.URL, WithRetries(3))
	if _, err := c.Search(context.Background(), "r", []float32{1}, 2); err != nil {
		t.Fatalf("search with retry budget 3 = %v, want success on attempt 3", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	ts, attempts := shedThenServe(100)
	defer ts.Close()
	c := New(ts.URL, WithRetries(2))
	_, err := c.Search(context.Background(), "r", []float32{1}, 2)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retries = %v, want ErrOverloaded", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

func TestMutationsAreNotRetried(t *testing.T) {
	ts, attempts := shedThenServe(1)
	defer ts.Close()
	c := New(ts.URL, WithRetries(5))
	_, err := c.CreateRegion(context.Background(), "r", 4, wire.RegionConfig{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed mutation = %v, want ErrOverloaded without retry", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("mutation retried: server saw %d attempts, want 1", got)
	}
}

func TestStatusErrorSurfacesBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":"region exists"}`))
	}))
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.Build(context.Background(), "r")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || se.Message != "region exists" {
		t.Fatalf("got %v, want StatusError{409, region exists}", err)
	}
}

func TestRetryAfterCapped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(1), WithMaxRetryWait(50*time.Millisecond))
	start := time.Now()
	_, err := c.Search(context.Background(), "r", []float32{1}, 2)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client slept %v; Retry-After cap not applied", elapsed)
	}
}

// sentRequest is what a recording server saw of one request.
type sentRequest struct {
	method, path, contentType string
	body                      []byte
}

// recordRequests answers every request with an empty RegionInfo and
// returns what the requests carried so far.
func recordRequests(t *testing.T) (*httptest.Server, func() []sentRequest) {
	t.Helper()
	var (
		mu   sync.Mutex
		seen []sentRequest
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen = append(seen, sentRequest{r.Method, r.URL.Path, r.Header.Get("Content-Type"), body})
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"name":"r","dims":2,"len":0,"built":false,"config":{}}`))
	}))
	t.Cleanup(ts.Close)
	return ts, func() []sentRequest {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

// TestLoadSendsBinary: both load calls send the rows as a binary body,
// labelled as such, with the append flag set only by LoadAppend — and
// the server's decoder reads back the rows that were sent.
func TestLoadSendsBinary(t *testing.T) {
	ts, seen := recordRequests(t)
	c := New(ts.URL)
	ctx := context.Background()
	rows := [][]float32{{1, 2}, {3, -4}, {0.5, 1e-40}}
	if _, err := c.Load(ctx, "r", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadAppend(ctx, "r", rows[:1]); err != nil {
		t.Fatal(err)
	}
	reqs := seen()
	if len(reqs) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(reqs))
	}
	sent := [][][]float32{rows, rows[:1]}
	for i, r := range reqs {
		if r.method != http.MethodPost || r.path != "/regions/r/load" {
			t.Errorf("request %d: %s %s, want POST /regions/r/load", i, r.method, r.path)
		}
		if r.contentType != "application/octet-stream" {
			t.Errorf("request %d: Content-Type %q, want application/octet-stream", i, r.contentType)
		}
		if !bytes.HasPrefix(r.body, []byte("\x93SV1")) || len(r.body) < 16 {
			t.Fatalf("request %d: body % x does not open with the binary magic", i, r.body[:min(len(r.body), 16)])
		}
		if flags, wantAppend := binary.LittleEndian.Uint32(r.body[12:]), i == 1; (flags&1 != 0) != wantAppend {
			t.Errorf("request %d: flags %#x, want append bit %v", i, flags, wantAppend)
		}
		got, err := wire.DecodeLoad(r.body)
		if err != nil || !reflect.DeepEqual(got.Vectors, sent[i]) {
			t.Errorf("request %d decodes to %v, %v; want %v", i, got.Vectors, err, sent[i])
		}
	}
}

// TestLoadRefusesBeforeSending: rows the server would refuse — ragged,
// or not finite — fail in the client, and nothing goes on the wire.
func TestLoadRefusesBeforeSending(t *testing.T) {
	ts, seen := recordRequests(t)
	c := New(ts.URL)
	ctx := context.Background()
	for name, rows := range map[string][][]float32{
		"ragged":  {{1, 2}, {3}},
		"NaN":     {{1, float32(math.NaN())}},
		"+Inf":    {{float32(math.Inf(1)), 2}},
		"no rows": nil,
	} {
		if _, err := c.Load(ctx, "r", rows); err == nil {
			t.Errorf("Load of %s rows: no error", name)
		}
		if _, err := c.LoadAppend(ctx, "r", rows); err == nil {
			t.Errorf("LoadAppend of %s rows: no error", name)
		}
	}
	if n := len(seen()); n != 0 {
		t.Fatalf("server saw %d requests, want 0", n)
	}
}

// fakeClock records retry backoffs instead of sleeping, standing in
// for the wall clock so jitter is observable without waiting.
type fakeClock struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (f *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	f.sleeps = append(f.sleeps, d)
	f.mu.Unlock()
	return ctx.Err()
}

// TestRetryBackoffJitter pins the thundering-herd defense: every
// Retry-After backoff must land in [hint/2, hint] (equal jitter), and
// the waits must not all collapse onto one value — clients shed at the
// same instant have to spread out.
func TestRetryBackoffJitter(t *testing.T) {
	const hintSecs = 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	const retries = 40
	clock := &fakeClock{}
	c := New(ts.URL, WithRetries(retries), WithMaxRetryWait(5*time.Second))
	c.sleep = clock.sleep
	c.rng = rand.New(rand.NewSource(1)) // deterministic spread

	if _, err := c.Search(context.Background(), "r", []float32{1}, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("search against an always-shedding server = %v, want ErrOverloaded", err)
	}
	if len(clock.sleeps) != retries {
		t.Fatalf("recorded %d backoffs, want %d", len(clock.sleeps), retries)
	}
	hint := hintSecs * time.Second
	distinct := map[time.Duration]bool{}
	for i, d := range clock.sleeps {
		if d < hint/2 || d > hint {
			t.Fatalf("backoff %d = %v outside the jitter window [%v, %v]", i, d, hint/2, hint)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d backoffs collapsed to %v: no jitter applied", retries, clock.sleeps[0])
	}
}

// TestRetryJitterZeroHint: a zero Retry-After must stay an immediate
// retry (the test servers above rely on it).
func TestRetryJitterZeroHint(t *testing.T) {
	ts, attempts := shedThenServe(1)
	defer ts.Close()
	clock := &fakeClock{}
	c := New(ts.URL, WithRetries(2))
	c.sleep = clock.sleep
	if _, err := c.Search(context.Background(), "r", []float32{1}, 1); err != nil {
		t.Fatalf("search = %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
	if len(clock.sleeps) != 1 || clock.sleeps[0] != 0 {
		t.Fatalf("zero hint produced backoffs %v, want [0s]", clock.sleeps)
	}
}
