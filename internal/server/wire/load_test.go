package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// loadRows is 3 rows × 4 dims with the values a text format loses or
// mangles first: −0, the smallest subnormal, the largest finite float32.
func loadRows() [][]float32 {
	return [][]float32{
		{1, float32(math.Copysign(0, -1)), math.Float32frombits(1), -2.5},
		{math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 0},
		{0.1, 1e-38, -7, 3},
	}
}

func mustEncodeLoad(t *testing.T, req LoadRequest) []byte {
	t.Helper()
	body, err := EncodeLoad(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// header is a binary load header with the given fields.
func header(dims, rows, flags uint32) []byte {
	h := make([]byte, loadHeaderLen)
	copy(h, loadMagic)
	binary.LittleEndian.PutUint32(h[4:], dims)
	binary.LittleEndian.PutUint32(h[8:], rows)
	binary.LittleEndian.PutUint32(h[12:], flags)
	return h
}

// TestBinaryLoadLayout pins the bytes README documents.
func TestBinaryLoadLayout(t *testing.T) {
	body := mustEncodeLoad(t, LoadRequest{Vectors: [][]float32{{1, -2}}, Append: true})
	want := []byte("\x93SV1" + "\x02\x00\x00\x00" + "\x01\x00\x00\x00" + "\x01\x00\x00\x00" +
		"\x00\x00\x80\x3f" + "\x00\x00\x00\xc0")
	if !bytes.Equal(body, want) {
		t.Fatalf("EncodeLoad = % x, want % x", body, want)
	}
}

// TestBinaryLoadRefusals: every way a binary body can fail to be what
// its header says is refused.
func TestBinaryLoadRefusals(t *testing.T) {
	good := mustEncodeLoad(t, LoadRequest{Vectors: loadRows()})
	with := func(edit func(b []byte) []byte) []byte {
		return edit(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"rows = 0":       header(4, 0, 0),
		"dims = 0":       header(0, 3, 0),
		"rows = 0, long": append(header(4, 0, 0), good[loadHeaderLen:]...),
		"one byte short": good[:len(good)-1],
		"one byte long":  with(func(b []byte) []byte { return append(b, 0) }),
		"one row short":  good[:len(good)-4*4],
	}
	for n := 0; n < loadHeaderLen; n++ {
		cases[fmt.Sprintf("%d-byte body", n)] = good[:n]
	}
	for i := 0; i < len(loadMagic); i++ { // the last byte is the version
		cases[fmt.Sprintf("magic byte %d", i)] = with(func(b []byte) []byte { b[i] ^= 1; return b })
	}
	for bit := 1; bit < 32; bit++ {
		for _, base := range []uint32{0, loadFlagAppend} {
			flags := base | 1<<bit
			cases[fmt.Sprintf("flags %#b", flags)] = with(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[12:], flags)
				return b
			})
		}
	}
	for name, bits := range map[string]uint32{
		"NaN":  math.Float32bits(float32(math.NaN())),
		"+Inf": math.Float32bits(float32(math.Inf(1))),
		"-Inf": math.Float32bits(float32(math.Inf(-1))),
	} {
		cases[name+" last"] = with(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-4:], bits)
			return b
		})
	}
	for name, body := range cases {
		if req, err := DecodeLoad(body); err == nil {
			t.Errorf("%s: decoder accepted % x as %+v", name, body, req)
		}
	}
}

// TestBinaryLoadNonFiniteNamesTheRow: the refusal points at the row, as
// the JSON decoder's does.
func TestBinaryLoadNonFiniteNamesTheRow(t *testing.T) {
	body := mustEncodeLoad(t, LoadRequest{Vectors: loadRows()})
	binary.LittleEndian.PutUint32(body[loadHeaderLen+4*(2*4+1):], math.Float32bits(float32(math.NaN())))
	_, err := DecodeLoad(body)
	if err == nil || err.Error() != "wire: vectors[2] contains a non-finite value" {
		t.Fatalf("NaN in row 2: %v, want the row named", err)
	}
}

// TestBinaryLoadHugeClaimAllocatesNothing: a 16-byte header claiming
// (2³²−1)² floats is refused on its length before anything is sized
// from the claim.
func TestBinaryLoadHugeClaimAllocatesNothing(t *testing.T) {
	body := header(math.MaxUint32, math.MaxUint32, 0)
	var err error
	allocs := testing.AllocsPerRun(100, func() { _, err = DecodeLoad(body) })
	if err == nil {
		t.Fatal("decoder accepted a header claiming (2³²−1)² floats in a 16-byte body")
	}
	if allocs > 2 {
		t.Fatalf("refusing the huge claim cost %.0f allocations, want <= 2", allocs)
	}
	// Two allocations could still be one of them sized from the claim.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeLoad(body)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<10 {
		t.Fatalf("refusing the huge claim allocated %d bytes, want <= 1 KiB", grew)
	}
	t.Logf("%v (%.0f allocations)", err, allocs)
}

// TestBinaryLoadRoundTrip: rows survive EncodeLoad → DecodeLoad bit for
// bit, the decoded request re-encodes to the same bytes, and the JSON
// and binary forms of the same rows decode to the same request.
func TestBinaryLoadRoundTrip(t *testing.T) {
	for _, req := range []LoadRequest{
		{Vectors: loadRows()},
		{Vectors: loadRows(), Append: true},
		{Vectors: [][]float32{{42}}},
	} {
		body := mustEncodeLoad(t, req)
		got, err := DecodeLoad(body)
		if err != nil {
			t.Fatalf("decode of an encoded request: %v", err)
		}
		if got.Append != req.Append || len(got.Vectors) != len(req.Vectors) {
			t.Fatalf("round trip: %+v, want %+v", got, req)
		}
		for i, row := range req.Vectors {
			if len(got.Vectors[i]) != len(row) || cap(got.Vectors[i]) != len(row) {
				t.Fatalf("row %d: len %d cap %d, want %d", i, len(got.Vectors[i]), cap(got.Vectors[i]), len(row))
			}
			for j, x := range row {
				if g := got.Vectors[i][j]; math.Float32bits(g) != math.Float32bits(x) {
					t.Fatalf("row %d col %d: %#08x, want %#08x", i, j, math.Float32bits(g), math.Float32bits(x))
				}
			}
		}
		if again := mustEncodeLoad(t, got); !bytes.Equal(again, body) {
			t.Fatalf("re-encode differs:\n got % x\nwant % x", again, body)
		}
		text, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := DecodeLoad(text)
		if err != nil {
			t.Fatalf("JSON form %s refused: %v", text, err)
		}
		if !reflect.DeepEqual(fromJSON, got) {
			t.Fatalf("JSON and binary forms differ:\n json   %+v\n binary %+v", fromJSON, got)
		}
	}
}

// TestEncodeLoadRefuses: the encoder will not write a body the decoder
// would refuse.
func TestEncodeLoadRefuses(t *testing.T) {
	for name, req := range map[string]LoadRequest{
		"no rows":    {},
		"empty rows": {Vectors: [][]float32{{}, {}}},
		"ragged":     {Vectors: [][]float32{{1, 2}, {3}}},
		"NaN":        {Vectors: [][]float32{{1, 2}, {3, float32(math.NaN())}}},
		"+Inf":       {Vectors: [][]float32{{float32(math.Inf(1)), 2}}},
		"-Inf":       {Vectors: [][]float32{{1, float32(math.Inf(-1))}}},
	} {
		if body, err := EncodeLoad(req); err == nil {
			t.Errorf("%s: encoded % x", name, body)
		}
	}
	if _, err := EncodeLoad(LoadRequest{Vectors: [][]float32{{1, 2}, {3}}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("ragged rows: %v, want ErrDimMismatch", err)
	}
}
