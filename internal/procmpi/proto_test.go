package procmpi

import (
	"reflect"
	"testing"
)

// TestWelcomeRoundTrip pins the welcome payload: world size, the
// interrupted flag and the dead set survive the codec.
func TestWelcomeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		size        int
		interrupted bool
		dead        []int
	}{
		{size: 1, dead: []int{}},
		{size: 8, interrupted: true, dead: []int{2, 3}},
		{size: 1 << 20, dead: []int{0, 7, 1<<20 - 1}},
	} {
		size, interrupted, dead, err := decodeWelcome(encodeWelcome(tc.size, tc.interrupted, tc.dead))
		if err != nil {
			t.Fatalf("decode welcome %+v: %v", tc, err)
		}
		if size != tc.size || interrupted != tc.interrupted || !reflect.DeepEqual(dead, tc.dead) {
			t.Fatalf("welcome round trip: got (%d, %v, %v), want %+v", size, interrupted, dead, tc)
		}
	}
}

// TestRoundResultRoundTrip pins the round-result payload: the agreed
// flag and the survivor list, empty for an agree-only round.
func TestRoundResultRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		flag      bool
		survivors []int
	}{
		{flag: true, survivors: []int{}},
		{flag: false, survivors: []int{}},
		{flag: true, survivors: []int{0, 1, 3}},
	} {
		flag, survivors, err := decodeRoundResult(encodeRoundResult(tc.flag, tc.survivors))
		if err != nil {
			t.Fatalf("decode round result %+v: %v", tc, err)
		}
		if flag != tc.flag || !reflect.DeepEqual(survivors, tc.survivors) {
			t.Fatalf("round result round trip: got (%v, %v), want %+v", flag, survivors, tc)
		}
	}
}

// TestControlPayloadsRejectBadLengths feeds both decoders every
// truncation of a valid payload and the payload with a byte too many:
// each must fail, never read a short or padded rank list as valid.
func TestControlPayloadsRejectBadLengths(t *testing.T) {
	decoders := map[string]struct {
		valid  []byte
		decode func([]byte) error
	}{
		"welcome": {encodeWelcome(8, true, []int{2, 5}), func(p []byte) error {
			_, _, _, err := decodeWelcome(p)
			return err
		}},
		"round result": {encodeRoundResult(true, []int{0, 4}), func(p []byte) error {
			_, _, err := decodeRoundResult(p)
			return err
		}},
	}
	for name, d := range decoders {
		if err := d.decode(d.valid); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", name, err)
		}
		for n := 0; n < len(d.valid); n++ {
			if d.decode(d.valid[:n]) == nil {
				t.Errorf("%s: %d-byte truncation of a %d-byte payload accepted", name, n, len(d.valid))
			}
		}
		if d.decode(append(append([]byte(nil), d.valid...), 0)) == nil {
			t.Errorf("%s: over-long payload accepted", name)
		}
	}
}
