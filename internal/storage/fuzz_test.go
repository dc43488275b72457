package storage

import (
	"encoding/binary"
	"errors"
	"testing"

	"progqoi/internal/encoding"
)

// FuzzVariableFragmentRanges checks the range walk that store-backed
// sessions slice fragment payloads by. The fuzzed input is a variable
// blob body; the target appends a valid CRC32C trailer so the walk past
// the checksum is what gets explored. It never panics, every error wraps
// encoding.ErrCorrupt, and accepted ranges are ordered, non-overlapping,
// inside the body and each preceded by its own 4-byte length prefix. The
// seed corpus in testdata/fuzz/FuzzVariableFragmentRanges covers 0, 1 and
// 3 fragments, a truncated fragment, an oversized fragment count and a
// blob too short for its representation.
func FuzzVariableFragmentRanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := withCRC(append([]byte(nil), body...))
		ranges, err := VariableFragmentRanges(raw)
		if err != nil {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		end := int64(0)
		for i, r := range ranges {
			if r.Len < 0 || r.Off < end+4 || r.Off+r.Len > int64(len(body)) {
				t.Fatalf("range %d [%d,+%d) overlaps its predecessor (end %d) or leaves the %d-byte body",
					i, r.Off, r.Len, end, len(body))
			}
			if got := int64(binary.LittleEndian.Uint32(body[r.Off-4:])); got != r.Len {
				t.Fatalf("range %d: length prefix %d, range length %d", i, got, r.Len)
			}
			end = r.Off + r.Len
		}
	})
}
