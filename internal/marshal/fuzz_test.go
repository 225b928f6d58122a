package marshal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// addFrozenSeeds seeds f with every frozen wire-format encoding in
// testdata/, whole and cut in half: each decoder also sees the other
// message kinds, which it must reject without panicking.
func addFrozenSeeds(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.bin"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no frozen encodings in testdata (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
}

// The fuzz targets hold every decoder to two rules on arbitrary input:
// never panic, and a successful decode re-encodes to exactly the input
// bytes (the decoders reject trailing bytes and non-canonical fields, so
// the encoding of a value is unique). Run them with `make fuzz-marshal`.

func FuzzDecodeScene(f *testing.F) {
	addFrozenSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeScene(data)
		if err != nil {
			return
		}
		again, err := AppendScene(nil, s)
		if err != nil {
			t.Fatalf("decoded scene does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("scene re-encodes to %d different bytes from %d", len(again), len(data))
		}
	})
}

func FuzzDecodeFrame(f *testing.F) {
	addFrozenSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fb, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// A decoded frame is at least its 9-byte header; byte 8 is the
		// depth flag.
		if again := AppendFrame(nil, fb, data[8] == 1); !bytes.Equal(again, data) {
			t.Fatalf("frame re-encodes to %d different bytes from %d", len(again), len(data))
		}
	})
}

func FuzzDecodeOp(f *testing.F) {
	addFrozenSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := DecodeOp(data)
		if err != nil {
			return
		}
		again, err := AppendOp(nil, op)
		if err != nil {
			t.Fatalf("decoded op does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("op re-encodes to %d different bytes from %d", len(again), len(data))
		}
	})
}
