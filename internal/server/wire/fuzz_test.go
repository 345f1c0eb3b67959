package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeRequests holds every request decoder to the wire
// contract: never panic on arbitrary bytes, and anything accepted
// must survive a Marshal/Decode round trip unchanged — which is why
// the decoders reject non-finite floats (encoding/json cannot encode
// them) and trailing garbage. kind selects the payload family:
// 'c' create, 'l' load, 's' search, 'b' batch, 'u' upsert, 'd' delete;
// other bytes exercise every decoder on the same input. A binary load
// body the 'l' arm accepts must also be byte for byte what EncodeLoad
// writes for it.
func FuzzDecodeRequests(f *testing.F) {
	seeds := []struct {
		kind byte
		body string
	}{
		{'c', `{"name":"glove","dims":100,"config":{"metric":"euclidean","mode":"kdtree","index":{"trees":4,"seed":7}}}`},
		{'c', `{"name":"gist","dims":128,"config":{"mode":"graph","index":{"m":16,"ef_construction":100,"ef_search":64,"seed":1}}}`},
		{'c', `{"name":"g2","dims":8,"config":{"mode":"graph","execution":"device","index":{"ef_search":32}}}`},
		{'c', `{"name":"shardy","dims":8,"config":{"sharding":{"shards":4,"deadline_ms":5.5,"hedge_ms":1.25,"allow_partial":true}}}`},
		{'c', `{"name":"pq","dims":64,"config":{"mode":"quantized","index":{"m":8,"sample":4096,"rerank":100,"seed":5}}}`},
		{'c', `{"name":"pqd","dims":32,"config":{"mode":"quantized","execution":"device","metric":"cosine","index":{"rerank":50}}}`},
		{'c', `{"name":"pqt","dims":16,"config":{"mode":"quantized","index":{"rerank":-1,"samle":2}}}`},
		{'c', `{"name":"big","dims":64,"config":{"storage":{"path":"/tmp/big.tier","budget_bytes":1048576,"prefetch":true}}}`},
		{'c', `{"name":"bigpq","dims":64,"config":{"mode":"quantized","storage":{"path":"/tmp/bigpq.tier","budget_bytes":4096},"index":{"m":8,"rerank":100}}}`},
		{'c', `{"name":"bigdev","dims":32,"config":{"execution":"device","storage":{"budget_bytes":65536}}}`},
		{'c', `{"name":"bad","dims":8,"config":{"storage":{"path":"x","budget_bytes":-1}}}`},
		{'c', `{"name":"bad2","dims":8,"config":{"storage":{}}}`},
		{'c', `{"name":"bad3","dims":8,"config":{"storage":{"path":"x"},"sharding":{"shards":2}}}`},
		{'c', `{"name":"","dims":0}`},
		{'c', `{"name":"x","dims":3,"config":{"sharding":{"shards":-1}}}`},
		{'l', `{"vectors":[[1,2,3],[4,5,6]]}`},
		{'l', `{"vectors":[[0.25,-1e9]],"append":true}`},
		{'l', `{"vectors":[]}`},
		{'s', `{"query":[1,2,3],"k":5}`},
		{'s', `{"query":[],"k":0}`},
		{'s', `{"query":[1e38,-1e-38],"k":1}`},
		{'b', `{"queries":[[1,2],[3,4]],"k":2}`},
		{'b', `{"queries":[[]],"k":1}`},
		{'s', `{"query":[1],"k":1}garbage`},
		{'s', `{"query":[1],"k":1,"unknown_field":true}`},
		{'l', `{"vectors":[[1,2],[3]]}`},
		{'c', `[]`},
		{'b', `{"queries"`},
		{'x', `null`},
		{'x', `{"query":[1],"k":1}`},
		{'u', `{"ids":[0,7],"vectors":[[1,2,3],[4,5,6]]}`},
		{'u', `{"ids":[1],"vectors":[[1,2],[3,4]]}`},
		{'u', `{"ids":[-3],"vectors":[[1,2]]}`},
		{'u', `{"ids":[1,2],"vectors":[[1,2],[3]]}`},
		{'u', `{"ids":[],"vectors":[]}`},
		{'u', `{"ids":[1],"vectors":[[1,2]],"extra":1}`},
		{'u', `{"ids":[1],"vectors":[[1,2]]}trailing`},
		{'d', `{"ids":[3,1,4]}`},
		{'d', `{"ids":[]}`},
		{'d', `{"ids":[-1]}`},
		{'d', `{"ids":[1],"unknown":true}`},
		{'x', `{"ids":[1],"vectors":[[1]]}`},
	}
	for _, s := range seeds {
		f.Add(s.kind, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		switch kind {
		case 'c':
			roundTrip(t, data, DecodeCreateRegion)
		case 'l':
			roundTrip(t, data, DecodeLoad)
			binaryIdentity(t, data)
		case 's':
			roundTrip(t, data, DecodeSearch)
		case 'b':
			roundTrip(t, data, DecodeSearchBatch)
		case 'u':
			roundTrip(t, data, DecodeUpsert)
		case 'd':
			roundTrip(t, data, DecodeDelete)
		default:
			roundTrip(t, data, DecodeCreateRegion)
			roundTrip(t, data, DecodeLoad)
			roundTrip(t, data, DecodeSearch)
			roundTrip(t, data, DecodeSearchBatch)
			roundTrip(t, data, DecodeUpsert)
			roundTrip(t, data, DecodeDelete)
		}
	})
}

// binaryIdentity requires an accepted binary load body to be exactly
// what EncodeLoad writes for the request it decodes to: the format has
// one spelling of every request.
func binaryIdentity(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 || data[0] != loadMagic[0] {
		return
	}
	req, err := DecodeLoad(data)
	if err != nil {
		return
	}
	enc, err := EncodeLoad(req)
	if err != nil {
		t.Fatalf("accepted binary body % x but cannot re-encode: %v", data, err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("binary body re-encodes differently:\n  in  % x\n  out % x", data, enc)
	}
}

// roundTrip decodes data and, when accepted, requires the value to
// re-encode and re-decode to exactly itself.
func roundTrip[T any](t *testing.T, data []byte, decode func([]byte) (T, error)) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		return // rejected is fine; panicking is not
	}
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted %q but cannot re-encode: %v", data, err)
	}
	back, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoded form %q rejected: %v", enc, err)
	}
	if !reflect.DeepEqual(v, back) {
		t.Fatalf("round trip changed value:\n  first  %#v\n  second %#v", v, back)
	}
}
