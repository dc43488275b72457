package encoding

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// ZigZag maps a signed integer to an unsigned one with small magnitudes
// staying small: 0,-1,1,-2,2 → 0,1,2,3,4.
func ZigZag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// PutUvarints encodes vals as a length-prefixed varint stream.
func PutUvarints(vals []uint64) []byte {
	buf := make([]byte, 0, len(vals)+10)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(vals)))
	buf = append(buf, tmp[:n]...)
	for _, v := range vals {
		n = binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

// GetUvarints decodes a stream produced by PutUvarints and returns the
// values plus the number of bytes consumed.
func GetUvarints(data []byte) ([]uint64, int, error) {
	cnt, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: varint count", ErrCorrupt)
	}
	if cnt > uint64(len(data)) { // each value takes ≥ 1 byte
		return nil, 0, fmt.Errorf("%w: varint count %d exceeds stream", ErrCorrupt, cnt)
	}
	off := n
	out := make([]uint64, cnt)
	for i := range out {
		v, m := binary.Uvarint(data[off:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("%w: varint value %d", ErrCorrupt, i)
		}
		out[i] = v
		off += m
	}
	return out, off, nil
}

// deflaters holds reusable DEFLATE compressors, one pool per level from
// flate.HuffmanOnly (-2) to flate.BestCompression (9): a fresh
// flate.NewWriter allocates about 1 MB of state, and Deflate runs once per
// stored fragment.
var deflaters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// inflaters holds reusable DEFLATE decompressors (each also a
// flate.Resetter).
var inflaters sync.Pool

// Deflate compresses data with DEFLATE at the given level (-2..9; 0 means
// flate.DefaultCompression).
func Deflate(data []byte, level int) ([]byte, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("encoding: invalid deflate level %d", level)
	}
	// The output buffer is not pooled: callers keep the returned slice.
	var b bytes.Buffer
	pool := &deflaters[level-flate.HuffmanOnly]
	w, ok := pool.Get().(*flate.Writer)
	if ok {
		w.Reset(&b) // documented as equivalent to flate.NewWriter(&b, level)
	} else {
		var err error
		if w, err = flate.NewWriter(&b, level); err != nil {
			return nil, err
		}
	}
	defer pool.Put(w)
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Inflate reverses Deflate. maxSize bounds the decoded size to guard against
// decompression bombs from corrupted fragments (0 = 1 GiB default).
func Inflate(data []byte, maxSize int64) ([]byte, error) {
	if maxSize <= 0 {
		maxSize = 1 << 30
	}
	src := bytes.NewReader(data)
	r, ok := inflaters.Get().(io.ReadCloser)
	if ok {
		// Reset discards all state of the previous stream, including a
		// sticky error from a corrupt one.
		if err := r.(flate.Resetter).Reset(src, nil); err != nil {
			return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
		}
	} else {
		r = flate.NewReader(src)
	}
	defer inflaters.Put(r)
	var b bytes.Buffer
	n, err := io.Copy(&b, io.LimitReader(r, maxSize+1))
	if err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	if n > maxSize {
		return nil, fmt.Errorf("%w: inflated size exceeds limit %d", ErrCorrupt, maxSize)
	}
	return b.Bytes(), nil
}

// PutFloat64s encodes a float64 slice little-endian with a length prefix.
func PutFloat64s(vals []float64) []byte {
	buf := make([]byte, 4+8*len(vals))
	binary.LittleEndian.PutUint32(buf, uint32(len(vals)))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[4+8*i:], math.Float64bits(v))
	}
	return buf
}

// GetFloat64s decodes PutFloat64s output, returning values and bytes read.
func GetFloat64s(data []byte) ([]float64, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("%w: float block header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data))
	need := 4 + 8*n
	if n < 0 || len(data) < need {
		return nil, 0, fmt.Errorf("%w: float block truncated (want %d values)", ErrCorrupt, n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[4+8*i:]))
	}
	return out, need, nil
}

// Section framing: a simple tag+length container so multi-part fragments are
// self-describing.

// PutSection appends a framed section (u32 length + payload) to dst.
func PutSection(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// GetSection reads one framed section, returning payload and bytes consumed.
func GetSection(data []byte) ([]byte, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("%w: section header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 0 || len(data) < 4+n {
		return nil, 0, fmt.Errorf("%w: section truncated (want %d bytes, have %d)", ErrCorrupt, n, len(data)-4)
	}
	return data[4 : 4+n], 4 + n, nil
}
