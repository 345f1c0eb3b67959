package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Strict request decoders. The server decodes every request body
// through these instead of bare json.Unmarshal so the wire boundary
// has one hardened entry point: unknown fields are rejected (a typo'd
// field fails loudly instead of silently meaning "default"), trailing
// garbage after the JSON value is rejected, and payloads that could
// not be re-encoded — non-finite floats, which encoding/json refuses
// to marshal — never make it past the decoder. The fuzz target
// (fuzz_test.go) holds the decoders to exactly that contract: never
// panic, and everything accepted round-trips through Marshal.

// decodeStrict unmarshals one JSON value into v, rejecting unknown
// fields and trailing non-whitespace.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("wire: trailing data after JSON value")
	}
	return nil
}

// checkVectors rejects ragged or non-finite vector payloads; what is
// accepted must survive a Marshal round trip (encoding/json cannot
// encode NaN or ±Inf).
func checkVectors(field string, vecs [][]float32) error {
	for i, v := range vecs {
		for _, x := range v {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return fmt.Errorf("wire: %s[%d] contains a non-finite value", field, i)
			}
		}
	}
	return nil
}

// DecodeCreateRegion decodes and validates a CreateRegionRequest body.
func DecodeCreateRegion(data []byte) (CreateRegionRequest, error) {
	var req CreateRegionRequest
	if err := decodeStrict(data, &req); err != nil {
		return CreateRegionRequest{}, err
	}
	if req.Name == "" {
		return CreateRegionRequest{}, errors.New("wire: region name required")
	}
	// Every later call addresses the region as /regions/{name}: a name
	// that is not one path segment could be created and never reached.
	if req.Name == "." || req.Name == ".." || strings.Contains(req.Name, "/") {
		return CreateRegionRequest{}, fmt.Errorf("wire: region name %q is not one path segment", req.Name)
	}
	if req.Dims <= 0 {
		return CreateRegionRequest{}, fmt.Errorf("wire: dims must be positive, got %d", req.Dims)
	}
	if sc := req.Config.Sharding; sc != nil {
		if sc.Shards <= 0 {
			return CreateRegionRequest{}, fmt.Errorf("wire: sharding.shards must be positive, got %d", sc.Shards)
		}
		if math.IsNaN(sc.DeadlineMs) || math.IsInf(sc.DeadlineMs, 0) || sc.DeadlineMs < 0 {
			return CreateRegionRequest{}, errors.New("wire: sharding.deadline_ms must be finite and non-negative")
		}
		if math.IsNaN(sc.HedgeMs) || math.IsInf(sc.HedgeMs, 0) || sc.HedgeMs < 0 {
			return CreateRegionRequest{}, errors.New("wire: sharding.hedge_ms must be finite and non-negative")
		}
	}
	if rc := req.Config.Replicas; rc != nil {
		if rc.Replicas <= 0 {
			return CreateRegionRequest{}, fmt.Errorf("wire: replicas.replicas must be positive, got %d", rc.Replicas)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"replicas.hedge_min_ms", rc.HedgeMinMs},
			{"replicas.hedge_max_ms", rc.HedgeMaxMs},
			{"replicas.deadline_ms", rc.DeadlineMs},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return CreateRegionRequest{}, fmt.Errorf("wire: %s must be finite and non-negative", f.name)
			}
		}
	}
	if st := req.Config.Storage; st != nil {
		if req.Config.Sharding != nil || req.Config.Replicas != nil {
			return CreateRegionRequest{}, errors.New("wire: storage cannot be combined with sharding or replicas")
		}
		if st.BudgetBytes < 0 {
			return CreateRegionRequest{}, fmt.Errorf("wire: storage.budget_bytes must be non-negative, got %d", st.BudgetBytes)
		}
		if st.Path == "" && req.Config.Execution != "device" {
			return CreateRegionRequest{}, errors.New("wire: storage.path required for host execution")
		}
	}
	return req, nil
}

// DecodeLoad decodes and validates a LoadRequest body, JSON or the
// binary form EncodeLoad writes (load.go), told apart by the magic's
// first byte, which no JSON text begins with.
func DecodeLoad(data []byte) (LoadRequest, error) {
	if len(data) > 0 && data[0] == loadMagic[0] {
		return decodeLoadBinary(data)
	}
	var req LoadRequest
	if err := decodeStrict(data, &req); err != nil {
		return LoadRequest{}, err
	}
	if len(req.Vectors) == 0 {
		return LoadRequest{}, errors.New("wire: no vectors")
	}
	if err := checkVectors("vectors", req.Vectors); err != nil {
		return LoadRequest{}, err
	}
	return req, nil
}

// DecodeSearch decodes and validates a SearchRequest body.
func DecodeSearch(data []byte) (SearchRequest, error) {
	var req SearchRequest
	if err := decodeStrict(data, &req); err != nil {
		return SearchRequest{}, err
	}
	if len(req.Query) == 0 {
		return SearchRequest{}, errors.New("wire: empty query")
	}
	if req.K <= 0 {
		return SearchRequest{}, fmt.Errorf("wire: k must be positive, got %d", req.K)
	}
	if err := checkVectors("query", [][]float32{req.Query}); err != nil {
		return SearchRequest{}, err
	}
	return req, nil
}

// DecodeSearchBatch decodes and validates a SearchBatchRequest body.
func DecodeSearchBatch(data []byte) (SearchBatchRequest, error) {
	var req SearchBatchRequest
	if err := decodeStrict(data, &req); err != nil {
		return SearchBatchRequest{}, err
	}
	if len(req.Queries) == 0 {
		return SearchBatchRequest{}, errors.New("wire: no queries")
	}
	if req.K <= 0 {
		return SearchBatchRequest{}, fmt.Errorf("wire: k must be positive, got %d", req.K)
	}
	if err := checkVectors("queries", req.Queries); err != nil {
		return SearchBatchRequest{}, err
	}
	return req, nil
}
