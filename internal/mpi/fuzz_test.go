package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzUnpackParts drives the collective payload container (the
// length-prefixed part framing Allgather/Alltoall/Gather ride on) with
// arbitrary wire bytes. The decoder must never panic, never allocate
// proportionally to claimed-but-absent lengths, and on success must
// round-trip canonically: re-packing the unpacked parts reproduces the
// input bit-for-bit (the framing has exactly one encoding per part
// list), with every part aliasing the original buffer capacity-clipped
// so collective unpack can't silently append into a neighbor's bytes.
func FuzzUnpackParts(f *testing.F) {
	// Golden corpus: canonical packings of representative shapes.
	for _, parts := range [][][]byte{
		{},
		{nil},
		{{}, {}},
		{{1, 2, 3}},
		{{0xFF}, bytes.Repeat([]byte{7}, 300), {}},
		{make([]byte, 65), {1}, make([]byte, 2), {9, 9, 9}},
	} {
		f.Add(packParts(parts), len(parts))
	}
	// Adversarial seeds: truncated header, count/length mismatches,
	// length pointing past the buffer.
	f.Add([]byte{2, 0, 0}, 2)
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, 1)
	f.Add([]byte{3, 0, 0, 0, 2, 0, 0, 0, 'h', 'i'}, 3)
	f.Fuzz(func(t *testing.T, buf []byte, want int) {
		parts, err := unpackParts(buf, want)
		if err != nil {
			return // malformed input rejected: fine
		}
		if len(parts) != want {
			t.Fatalf("unpacked %d parts, want %d", len(parts), want)
		}
		repacked := packParts(parts)
		if !bytes.Equal(repacked, buf) {
			t.Fatalf("unpack/pack not canonical: %d bytes in, %d out", len(buf), len(repacked))
		}
		for i, p := range parts {
			if len(p) != cap(p) {
				t.Fatalf("part %d returned with %d spare capacity bytes of the shared buffer", i, cap(p)-len(p))
			}
		}
	})
}

// FuzzDecodeFloat64s drives the reduction-vector codec with arbitrary
// payloads: decode must reject exactly the non-multiple-of-8 lengths,
// and every accepted payload must survive decode→encode bit-exactly
// (float64 bit patterns — NaNs, negative zero, subnormals — must pass
// through reductions unmangled, not be normalized by a float round
// trip).
func FuzzDecodeFloat64s(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeFloat64s([]float64{0, 1, -1, math.Pi}))
	f.Add(encodeFloat64s([]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}))
	f.Add(encodeFloat64s([]float64{math.SmallestNonzeroFloat64, math.MaxFloat64}))
	f.Add([]byte{1, 2, 3}) // ragged: must be rejected
	f.Fuzz(func(t *testing.T, buf []byte) {
		xs, err := decodeFloat64s(buf)
		if err != nil {
			if len(buf)%8 == 0 {
				t.Fatalf("aligned %d-byte payload rejected: %v", len(buf), err)
			}
			return
		}
		if len(buf)%8 != 0 {
			t.Fatalf("ragged %d-byte payload accepted", len(buf))
		}
		if !bytes.Equal(encodeFloat64s(xs), buf) {
			t.Fatal("decode→encode altered float64 bit patterns")
		}
	})
}

// FuzzDecodeInt64s is FuzzDecodeFloat64s for the int64 codec.
func FuzzDecodeInt64s(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeInt64s([]int64{0, 1, -1, math.MaxInt64, math.MinInt64}))
	f.Add([]byte{9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, buf []byte) {
		xs, err := decodeInt64s(buf)
		if err != nil {
			if len(buf)%8 == 0 {
				t.Fatalf("aligned %d-byte payload rejected: %v", len(buf), err)
			}
			return
		}
		if !bytes.Equal(encodeInt64s(xs), buf) {
			t.Fatal("decode→encode altered int64 values")
		}
	})
}

// FuzzCombineFloat64s checks the in-place wire-buffer fold used by the
// reduction trees: length mismatches must error before any element is
// touched, and a MAX fold of a vector with itself must be the identity
// (modulo NaN propagation, which applyFloat64 may resolve either way —
// those inputs are skipped).
func FuzzCombineFloat64s(f *testing.F) {
	f.Add(encodeFloat64s([]float64{1, 2, 3}), uint8(3))
	f.Add(encodeFloat64s([]float64{-0.5}), uint8(1))
	f.Add([]byte{1}, uint8(1))
	f.Fuzz(func(t *testing.T, buf []byte, n uint8) {
		acc := make([]byte, 8*int(n))
		copy(acc, buf)
		orig := append([]byte(nil), acc...)
		err := float64Words.fold(acc, []Message{{Data: buf}}, OpMax)
		if (err == nil) != (len(buf) == len(acc)) {
			t.Fatalf("combine err=%v for %d bytes into %d elements", err, len(buf), n)
		}
		if err != nil {
			if !bytes.Equal(acc, orig) {
				t.Fatal("a rejected fold touched the accumulator")
			}
			return
		}
		for off := 0; off < len(acc); off += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(orig[off:]))
			if math.IsNaN(x) {
				continue
			}
			if got := math.Float64frombits(binary.LittleEndian.Uint64(acc[off:])); got != x {
				t.Fatalf("MAX(x, x) changed element %d: %v → %v", off/8, x, got)
			}
		}
	})
}
