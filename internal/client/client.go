// Package client is the typed Go client for the SSAM query server
// (internal/server). It speaks the internal/server/wire JSON format
// (loads go as wire.EncodeLoad's binary rows), applies a per-request
// timeout, and transparently retries shed load: a 503 response carries
// a Retry-After hint, and search/read calls back off by a jittered
// fraction of the hint (so a fleet of clients shed together does not
// retry in lockstep) and retry up to a bounded attempt budget before
// surfacing ErrOverloaded.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssam/internal/server/wire"
)

// ErrOverloaded is returned when the server keeps shedding a request
// after the client's retry budget is spent. Unwraps from the returned
// error chain via errors.Is.
var ErrOverloaded = errors.New("client: server overloaded (503 after retries)")

// StatusError is a non-2xx, non-retried server response.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Message)
}

// Client talks to one SSAM query server. Safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int           // retry budget for shed (503) requests
	maxWait    time.Duration // cap on a single Retry-After backoff

	// rng drives backoff jitter; sleep parks a retry (test seam).
	rngMu sync.Mutex
	rng   *rand.Rand
	sleep func(ctx context.Context, d time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithTimeout bounds each HTTP request (default 30s).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.hc.Timeout = d }
}

// WithRetries sets how many times a shed request is retried before
// ErrOverloaded (default 3; 0 disables retrying).
func WithRetries(n int) Option {
	return func(c *Client) { c.maxRetries = n }
}

// WithMaxRetryWait caps how long one Retry-After hint can make the
// client sleep (default 2s — servers hint in whole seconds).
func WithMaxRetryWait(d time.Duration) Option {
	return func(c *Client) { c.maxWait = d }
}

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the server at base (e.g.
// "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Timeout: 30 * time.Second},
		maxRetries: 3,
		maxWait:    2 * time.Second,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if d <= 0 {
			return ctx.Err()
		}
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// jittered spreads a Retry-After backoff over [hint/2, hint] (equal
// jitter), so a fleet of clients shed at the same instant does not
// retry in lockstep and re-overload the server as one thundering
// herd. A zero hint stays zero (an immediate retry hint).
func (c *Client) jittered(hint time.Duration) time.Duration {
	if hint <= 0 {
		return 0
	}
	half := hint / 2
	c.rngMu.Lock()
	d := half + time.Duration(c.rng.Int63n(int64(half)+1))
	c.rngMu.Unlock()
	return d
}

// do runs one JSON round trip. Shed responses (503) are retried after
// the server's Retry-After backoff (with equal jitter applied, so
// simultaneously-shed clients spread out) when retryable; mutation
// calls pass retryable=false so a half-applied sequence is never
// repeated blindly.
func (c *Client) do(ctx context.Context, method, path string, in, out any, retryable bool) error {
	return c.doHeader(ctx, method, path, nil, in, out, retryable)
}

// doHeader is do with extra request headers (e.g. X-SSAM-Trace to
// force server-side trace sampling).
func (c *Client) doHeader(ctx context.Context, method, path string, hdr map[string]string, in, out any, retryable bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	return c.send(ctx, method, path, hdr, body, out, retryable)
}

// send runs the attempts of one request whose body is already encoded;
// hdr's Content-Type, if any, replaces the JSON default.
func (c *Client) send(ctx context.Context, method, path string, hdr map[string]string, body []byte, out any, retryable bool) error {
	attempts := 1
	if retryable {
		attempts += c.maxRetries
	}
	var wait time.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, wait); err != nil {
				return err
			}
		}
		code, hint, err := c.roundTrip(ctx, method, path, hdr, body, out)
		if err != nil {
			return err
		}
		if code != http.StatusServiceUnavailable {
			return nil
		}
		if attempt == attempts-1 {
			return fmt.Errorf("%w: %s %s", ErrOverloaded, method, path)
		}
		wait = c.jittered(hint)
	}
}

// roundTrip performs one attempt. A 503 returns (503, backoff, nil)
// so the caller can wait out the server's Retry-After hint; other
// failures are folded into err.
func (c *Client) roundTrip(ctx context.Context, method, path string, hdr map[string]string, body []byte, out any) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, c.parseRetryAfter(resp), nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := readErrorBody(resp.Body)
		return resp.StatusCode, 0, &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, 0, fmt.Errorf("client: decode response: %w", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, 0, nil
}

func (c *Client) parseRetryAfter(resp *http.Response) time.Duration {
	wait := 100 * time.Millisecond // default nudge when the header is absent
	if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	if wait > c.maxWait {
		wait = c.maxWait
	}
	return wait
}

func readErrorBody(r io.Reader) string {
	var e wire.ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// --- driver calls (Fig. 4 over HTTP) ---

// regionPath is the path of region name's endpoint op ("/load", …; ""
// for the region itself), the name escaped as the one segment it is.
func regionPath(name, op string) string { return "/regions/" + url.PathEscape(name) + op }

// CreateRegion allocates a named region on the server (nmalloc+nmode).
func (c *Client) CreateRegion(ctx context.Context, name string, dims int, cfg wire.RegionConfig) (wire.RegionInfo, error) {
	var info wire.RegionInfo
	err := c.do(ctx, http.MethodPost, "/regions",
		wire.CreateRegionRequest{Name: name, Dims: dims, Config: cfg}, &info, false)
	return info, err
}

// Load replaces the region's dataset with vectors (nmemcpy).
func (c *Client) Load(ctx context.Context, name string, vectors [][]float32) (wire.RegionInfo, error) {
	return c.load(ctx, name, wire.LoadRequest{Vectors: vectors})
}

// LoadAppend streams additional vectors into the region.
func (c *Client) LoadAppend(ctx context.Context, name string, vectors [][]float32) (wire.RegionInfo, error) {
	return c.load(ctx, name, wire.LoadRequest{Vectors: vectors, Append: true})
}

// binaryBody labels a wire.EncodeLoad body.
var binaryBody = map[string]string{"Content-Type": "application/octet-stream"}

// load sends req as raw float32 rows, not decimal text: the server tells
// the two apart by the body's magic. Ragged rows and non-finite values
// fail here, before any request is sent.
func (c *Client) load(ctx context.Context, name string, req wire.LoadRequest) (wire.RegionInfo, error) {
	var info wire.RegionInfo
	body, err := wire.EncodeLoad(req)
	if err != nil {
		return info, fmt.Errorf("client: encode request: %w", err)
	}
	err = c.send(ctx, http.MethodPost, regionPath(name, "/load"), binaryBody, body, &info, false)
	return info, err
}

// Build constructs the region's index (nbuild_index).
func (c *Client) Build(ctx context.Context, name string) (wire.RegionInfo, error) {
	var info wire.RegionInfo
	err := c.do(ctx, http.MethodPost, regionPath(name, "/build"), nil, &info, false)
	return info, err
}

// Search answers one kNN query, retrying shed load. Use SearchFull to
// observe a sharded region's degradation signals.
func (c *Client) Search(ctx context.Context, name string, query []float32, k int) ([]wire.Neighbor, error) {
	resp, err := c.SearchFull(ctx, name, query, k)
	return resp.Results, err
}

// SearchFull is Search returning the whole response, including the
// Degraded flag, failed shard list, and hedge count a sharded region
// reports in partial-result mode.
func (c *Client) SearchFull(ctx context.Context, name string, query []float32, k int) (wire.SearchResponse, error) {
	var resp wire.SearchResponse
	err := c.do(ctx, http.MethodPost, regionPath(name, "/search"),
		wire.SearchRequest{Query: query, K: k}, &resp, true)
	return resp, err
}

// SearchTraced is SearchFull with the X-SSAM-Trace header set, so the
// server force-samples the request and returns its span tree in
// Response.Trace — the loadgen's per-stage latency breakdown reads
// queue/batch/fanout/merge durations from it.
func (c *Client) SearchTraced(ctx context.Context, name string, query []float32, k int) (wire.SearchResponse, error) {
	var resp wire.SearchResponse
	err := c.doHeader(ctx, http.MethodPost, regionPath(name, "/search"),
		map[string]string{"X-SSAM-Trace": "1"},
		wire.SearchRequest{Query: query, K: k}, &resp, true)
	return resp, err
}

// SearchBatch answers an explicit query batch, retrying shed load.
func (c *Client) SearchBatch(ctx context.Context, name string, queries [][]float32, k int) ([][]wire.Neighbor, error) {
	resp, err := c.SearchBatchFull(ctx, name, queries, k)
	return resp.Results, err
}

// SearchBatchFull is SearchBatch returning the whole response with a
// sharded region's degradation signals.
func (c *Client) SearchBatchFull(ctx context.Context, name string, queries [][]float32, k int) (wire.SearchBatchResponse, error) {
	var resp wire.SearchBatchResponse
	err := c.do(ctx, http.MethodPost, regionPath(name, "/searchbatch"),
		wire.SearchBatchRequest{Queries: queries, K: k}, &resp, true)
	return resp, err
}

// Upsert inserts or replaces rows by external id (ids[i] names
// vectors[i]) and returns the region's last committed mutation
// sequence number. Like every mutation it is never retried on shed
// load — a blind re-send would double-commit sequence numbers — so a
// 503 surfaces immediately as ErrOverloaded for the caller to decide.
func (c *Client) Upsert(ctx context.Context, name string, ids []int, vectors [][]float32) (wire.MutateResponse, error) {
	var resp wire.MutateResponse
	err := c.do(ctx, http.MethodPost, regionPath(name, "/upsert"),
		wire.UpsertRequest{IDs: ids, Vectors: vectors}, &resp, false)
	return resp, err
}

// Delete tombstones rows by external id. Absent ids are not an error;
// they come back in MutateResponse.Missing. Not retried on shed load.
func (c *Client) Delete(ctx context.Context, name string, ids []int) (wire.MutateResponse, error) {
	var resp wire.MutateResponse
	err := c.do(ctx, http.MethodPost, regionPath(name, "/delete"),
		wire.DeleteRequest{IDs: ids}, &resp, false)
	return resp, err
}

// Compact runs one synchronous compaction pass on a mutated region.
// Not retried on shed load (compaction is heavy; the caller should
// re-decide, not the transport).
func (c *Client) Compact(ctx context.Context, name string) (wire.CompactResponse, error) {
	var resp wire.CompactResponse
	err := c.do(ctx, http.MethodPost, regionPath(name, "/compact"), nil, &resp, false)
	return resp, err
}

// Reload rebuilds a replicated region from its staged dataset as a
// new generation with zero downtime (build in background → warm →
// atomic cutover → drain old). Not retried on shed load — a reload is
// heavy and the caller should re-decide, not the transport.
func (c *Client) Reload(ctx context.Context, name string) (wire.ReloadResponse, error) {
	var resp wire.ReloadResponse
	err := c.do(ctx, http.MethodPost, regionPath(name, "/reload"), nil, &resp, false)
	return resp, err
}

// Free releases the region (nfree).
func (c *Client) Free(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, regionPath(name, ""), nil, nil, false)
}

// Regions lists the server's regions.
func (c *Client) Regions(ctx context.Context) ([]wire.RegionInfo, error) {
	var infos []wire.RegionInfo
	err := c.do(ctx, http.MethodGet, "/regions", nil, &infos, true)
	return infos, err
}

// Region fetches one region's info.
func (c *Client) Region(ctx context.Context, name string) (wire.RegionInfo, error) {
	var info wire.RegionInfo
	err := c.do(ctx, http.MethodGet, regionPath(name, ""), nil, &info, true)
	return info, err
}

// Stats fetches /statsz.
func (c *Client) Stats(ctx context.Context) (wire.StatsResponse, error) {
	var stats wire.StatsResponse
	err := c.do(ctx, http.MethodGet, "/statsz", nil, &stats, true)
	return stats, err
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, true)
}
