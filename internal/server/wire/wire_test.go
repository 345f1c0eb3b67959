package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ssam"
)

// TestIndexParamsMirrorsSSAM pins the direct struct conversion the
// server relies on (`ssam.IndexParams(wc.Index)`): the two types must
// keep identical field names, types, and order. A new knob added to
// one side only fails here instead of at server build time.
func TestIndexParamsMirrorsSSAM(t *testing.T) {
	wt := reflect.TypeOf(IndexParams{})
	st := reflect.TypeOf(ssam.IndexParams{})
	if wt.NumField() != st.NumField() {
		t.Fatalf("field counts differ: wire %d, ssam %d", wt.NumField(), st.NumField())
	}
	for i := 0; i < wt.NumField(); i++ {
		wf, sf := wt.Field(i), st.Field(i)
		if wf.Name != sf.Name || wf.Type != sf.Type {
			t.Fatalf("field %d differs: wire %s %v, ssam %s %v",
				i, wf.Name, wf.Type, sf.Name, sf.Type)
		}
	}
}

// TestCreateRegionGraphRoundTrip round-trips a graph-mode region
// config through encode/decode and checks the HNSW knobs survive.
func TestCreateRegionGraphRoundTrip(t *testing.T) {
	req := CreateRegionRequest{
		Name: "gist",
		Dims: 128,
		Config: RegionConfig{
			Mode:      "graph",
			Execution: "device",
			Index: IndexParams{
				M: 24, EfConstruction: 150, EfSearch: 96, Seed: 42,
			},
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"m":24`, `"ef_construction":150`, `"ef_search":96`} {
		if !strings.Contains(string(body), field) {
			t.Fatalf("encoded body missing %s: %s", field, body)
		}
	}
	got, err := DecodeCreateRegion(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip changed request:\n got %+v\nwant %+v", got, req)
	}
	// Zero-valued knobs stay off the wire.
	minimal, err := json.Marshal(CreateRegionRequest{Name: "r", Dims: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ef_search", "ef_construction", `"m"`} {
		if strings.Contains(string(minimal), field) {
			t.Fatalf("zero-valued %s leaked into %s", field, minimal)
		}
	}
}

// TestCreateRegionStrictness pins that adding fields did not loosen
// the decoder: unknown index fields and trailing data still fail.
func TestCreateRegionStrictness(t *testing.T) {
	cases := []string{
		`{"name":"g","dims":8,"config":{"mode":"graph","index":{"ef_serach":64}}}`, // typo'd knob
		`{"name":"g","dims":8,"config":{"mode":"graph","m":16}}`,                   // knob outside index
		`{"name":"g","dims":8}trailing`,
		`{"name":"g","dims":8,"config":{"workers":2}}`, // a knob that was removed: Vaults is the one
		// A region is addressed as /regions/{name}: its name must be one
		// path segment (the client escapes anything else).
		`{"name":".","dims":8}`,
		`{"name":"..","dims":8}`,
		`{"name":"a/b","dims":8}`,
		`{"name":"/","dims":8}`,
	}
	for _, body := range cases {
		if _, err := DecodeCreateRegion([]byte(body)); err == nil {
			t.Fatalf("decoder accepted %s", body)
		}
	}
	ok := `{"name":"g","dims":8,"config":{"mode":"graph","index":{"m":16,"ef_construction":80,"ef_search":32}}}`
	req, err := DecodeCreateRegion([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if req.Config.Index.M != 16 || req.Config.Index.EfConstruction != 80 || req.Config.Index.EfSearch != 32 {
		t.Fatalf("decoded index params: %+v", req.Config.Index)
	}
}
