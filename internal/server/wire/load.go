package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The binary load body: POST /regions/{name}/load with the rows as raw
// float32 instead of decimal text (README, "Serving queries").
//
//	bytes 0–3    magic "\x93SV1"
//	bytes 4–7    dims, uint32 little-endian
//	bytes 8–11   rows, uint32 little-endian
//	bytes 12–15  flags, uint32 little-endian: bit 0 append, the rest 0
//	bytes 16…    rows × dims float32, little-endian, row-major
//
// DecodeLoad tells it from JSON by the magic alone, not Content-Type
// (curl labels JSON as a form): 0x93 is a UTF-8 continuation byte, so
// no JSON text begins with it.
const (
	loadMagic      = "\x93SV1"
	loadHeaderLen  = 16
	loadFlagAppend = 1 << 0
)

// EncodeLoad writes req as a binary load body. It refuses what the
// decoder would: no rows, empty or ragged rows, and non-finite values.
func EncodeLoad(req LoadRequest) ([]byte, error) {
	if len(req.Vectors) == 0 {
		return nil, errors.New("wire: no vectors")
	}
	dims := len(req.Vectors[0])
	if dims == 0 {
		return nil, fmt.Errorf("%w: vectors[0] is empty", ErrDimMismatch)
	}
	if uint64(len(req.Vectors)) > math.MaxUint32 || uint64(dims) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: %d rows of %d dims do not fit a binary load header", len(req.Vectors), dims)
	}
	for i, v := range req.Vectors {
		if len(v) != dims {
			return nil, fmt.Errorf("%w: vectors[%d] has %d dims, vectors[0] has %d", ErrDimMismatch, i, len(v), dims)
		}
	}
	if err := checkVectors("vectors", req.Vectors); err != nil {
		return nil, err
	}
	buf := make([]byte, loadHeaderLen+4*len(req.Vectors)*dims)
	copy(buf, loadMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(dims))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(req.Vectors)))
	if req.Append {
		binary.LittleEndian.PutUint32(buf[12:], loadFlagAppend)
	}
	p := buf[loadHeaderLen:]
	for _, v := range req.Vectors {
		for _, x := range v {
			binary.LittleEndian.PutUint32(p, math.Float32bits(x))
			p = p[4:]
		}
	}
	return buf, nil
}

// decodeLoadBinary reads a body that begins with the magic. Nothing is
// allocated from the header's claims until the body's length has borne
// them out, so a 16-byte header claiming 2³²−1 rows costs one small
// allocation, its error. The rows come back as views into one slab.
func decodeLoadBinary(data []byte) (LoadRequest, error) {
	if len(data) < loadHeaderLen {
		return LoadRequest{}, fmt.Errorf("wire: binary load header is %d bytes, want %d", len(data), loadHeaderLen)
	}
	if string(data[:len(loadMagic)]) != loadMagic {
		return LoadRequest{}, fmt.Errorf("wire: binary load magic %q, want %q", data[:len(loadMagic)], loadMagic)
	}
	dims := binary.LittleEndian.Uint32(data[4:])
	rows := binary.LittleEndian.Uint32(data[8:])
	flags := binary.LittleEndian.Uint32(data[12:])
	if unknown := flags &^ loadFlagAppend; unknown != 0 {
		return LoadRequest{}, fmt.Errorf("wire: binary load has unknown flag bits %#x", unknown)
	}
	if rows == 0 || dims == 0 {
		return LoadRequest{}, fmt.Errorf("wire: binary load of %d rows × %d dims is empty", rows, dims)
	}
	// rows·dims fits in uint64; rows·dims·4 may not, so the payload is
	// measured in float32s instead.
	payload := uint64(len(data) - loadHeaderLen)
	if payload%4 != 0 || payload/4 != uint64(rows)*uint64(dims) {
		return LoadRequest{}, &loadLengthError{rows: rows, dims: dims, payload: payload}
	}
	d := int(dims)
	flat := make([]float32, int(rows)*d)
	p := data[loadHeaderLen:]
	for i := range flat {
		flat[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	vecs := make([][]float32, rows)
	for i := range vecs {
		vecs[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	if err := checkVectors("vectors", vecs); err != nil {
		return LoadRequest{}, err
	}
	return LoadRequest{Vectors: vecs, Append: flags&loadFlagAppend != 0}, nil
}

// loadLengthError is a binary load whose body does not carry what its
// header claims. It formats only when read, so refusing a forged header
// allocates nothing but itself.
type loadLengthError struct {
	rows, dims uint32
	payload    uint64
}

func (e *loadLengthError) Error() string {
	return fmt.Sprintf("wire: binary load header claims %d rows × %d dims, body carries %d payload bytes", e.rows, e.dims, e.payload)
}
