package server

import (
	"bytes"
	"errors"
	"testing"

	"progqoi/internal/encoding"
)

// FuzzDecodeBatch checks the only decoder of fragment bytes off the wire:
// it never panics, every error wraps encoding.ErrCorrupt, and a blob it
// accepts re-encodes to exactly itself, so no byte of an accepted frame
// goes unread. The seed corpus in testdata/fuzz/FuzzDecodeBatch covers 0,
// 1 and 3 fragments, a truncated frame, a bad CRC and trailing bytes.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		frags, err := DecodeBatch(raw)
		if err != nil {
			if !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if got := EncodeBatch(frags); !bytes.Equal(got, raw) {
			t.Fatalf("%d decoded fragments re-encode to %d bytes, input was %d", len(frags), len(got), len(raw))
		}
	})
}
