package mpi

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFloat64sRoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		got, err := decodeFloat64s(encodeFloat64s(xs))
		if err != nil {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			// NaNs round-trip bit-exactly via Float64bits.
			if got[i] != xs[i] && !(math.IsNaN(got[i]) && math.IsNaN(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64sRoundTrip(t *testing.T) {
	f := func(xs []int64) bool {
		got, err := decodeInt64s(encodeInt64s(xs))
		return err == nil && (len(xs) == 0 && len(got) == 0 || reflect.DeepEqual(got, xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsRaggedPayload(t *testing.T) {
	if _, err := decodeFloat64s(make([]byte, 7)); err == nil {
		t.Error("decodeFloat64s accepted 7 bytes")
	}
	if _, err := decodeInt64s(make([]byte, 9)); err == nil {
		t.Error("decodeInt64s accepted 9 bytes")
	}
}

func TestPackPartsRoundTrip(t *testing.T) {
	f := func(parts [][]byte) bool {
		got, err := unpackParts(packParts(parts), len(parts))
		if err != nil {
			return false
		}
		if len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if len(parts[i]) == 0 && len(got[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackPartsValidation(t *testing.T) {
	packed := packParts([][]byte{{1}, {2, 3}})
	if _, err := unpackParts(packed, 3); err == nil {
		t.Error("wrong expected count accepted")
	}
	if _, err := unpackParts(packed[:5], 2); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := unpackParts(nil, 0); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestReduceOpTables(t *testing.T) {
	cases := []struct {
		op     ReduceOp
		a, b   float64
		ai, bi int64
		wantF  float64
		wantI  int64
	}{
		{OpSum, 2, 3, 2, 3, 5, 5},
		{OpMax, 2, 3, 2, 3, 3, 3},
		{OpMin, 2, 3, 2, 3, 2, 2},
		{OpProd, 2, 3, 2, 3, 6, 6},
	}
	for _, tc := range cases {
		if got := tc.op.applyFloat64(tc.a, tc.b); got != tc.wantF {
			t.Errorf("op %v float: got %v, want %v", tc.op, got, tc.wantF)
		}
		if got := tc.op.applyInt64(tc.ai, tc.bi); got != tc.wantI {
			t.Errorf("op %v int: got %v, want %v", tc.op, got, tc.wantI)
		}
	}
}

func TestTagRangesDisjoint(t *testing.T) {
	if TagUserMax >= TagCollectiveBase {
		t.Error("user tags overlap collective tags")
	}
	if TagCollectiveBase+7*64 >= TagControlBase {
		t.Error("collective tags overlap control tags")
	}
}

// The pack-codec fuzz targets live in fuzz_test.go
// (FuzzUnpackParts and friends), with a stronger canonical
// round-trip property than the original re-pack check.

// Test-side encoders for the wire forms the collectives use.

func encodeFloat64s(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	float64Words.encode(buf, xs)
	return buf
}

func encodeInt64s(xs []int64) []byte {
	buf := make([]byte, 8*len(xs))
	int64Words.encode(buf, xs)
	return buf
}

func decodeFloat64s(buf []byte) ([]float64, error) { return float64Words.decode(buf) }

func decodeInt64s(buf []byte) ([]int64, error) { return int64Words.decode(buf) }

// packParts length-prefixes a slice of byte slices into one payload.
func packParts(parts [][]byte) []byte {
	buf := make([]byte, packedLen(parts))
	packPartsInto(buf, parts)
	return buf
}
