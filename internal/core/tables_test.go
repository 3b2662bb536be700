package core

import (
	"encoding/binary"
	"math"
	"testing"

	"cpa/internal/labelset"
	"cpa/internal/mathx"
)

// FuzzVotedRankMask pins the rank-mask kernels to the bitset walk they
// replace. The input holds a voted set of one to three words, a signature
// and a run of answers, each cut down to a subset of the voted set. For
// every answer, the masks (labelset.Set.RankMask) must give the two-coin
// select-add sums (mathx.AddSelect, on the dispatched backend) and the
// coin counts (maskCounts) that a walk over the voted labels with one
// membership test per label gives, bit for bit.
func FuzzVotedRankMask(f *testing.F) {
	f.Add([]byte{0, 0xff, 0, 0, 0, 0, 0, 0, 0x80, 0x0f}, 1.25, -0.5)
	f.Add([]byte{1, 0x55, 0x55, 0, 0, 0, 0, 0, 0x01, 0xaa, 0xaa, 0, 0, 0, 0, 0, 0x01}, 0.75, -2.0)
	three := []byte{2}
	for k := 0; k < 8*3*6; k++ {
		three = append(three, byte(k*37+11))
	}
	f.Add(three, 3.0, -0.125)
	f.Fuzz(func(t *testing.T, data []byte, vote, miss float64) {
		if len(data) == 0 {
			return
		}
		nw := 1 + int(data[0])%3
		data = data[1:]
		// next reads the next nw words of the input, zero-padded.
		next := func() []uint64 {
			ws := make([]uint64, nw)
			for j := range ws {
				var b [8]byte
				data = data[copy(b[:], data):]
				ws[j] = binary.LittleEndian.Uint64(b[:])
			}
			return ws
		}
		votedW := next()
		voted := labelset.FromWords(votedW)
		labels := voted.Slice()
		within := func() labelset.Set {
			ws := next()
			for j := range ws {
				ws[j] &= votedW[j]
			}
			return labelset.FromWords(ws)
		}
		sigSet := within()
		width := maskWords(len(labels))
		sig := make([]uint64, width)
		sigSet.RankMask(voted, sig)

		want := make([]float64, len(labels))
		got := make([]float64, len(labels))
		mask := make([]uint64, width)
		for a := 0; a == 0 || len(data) > 0; a++ {
			ans := within()
			ans.RankMask(voted, mask)
			for k, c := range labels {
				if ans.Contains(c) {
					want[k] += vote
				} else {
					want[k] += miss
				}
			}
			mathx.AddSelect(got, mask, vote, miss)
			for k := range want {
				// Bit for bit, but any NaN matches any NaN: which NaN an
				// add of two NaNs yields is the hardware's choice (the
				// mathx contract).
				if math.Float64bits(want[k]) != math.Float64bits(got[k]) && !(math.IsNaN(want[k]) && math.IsNaN(got[k])) {
					t.Fatalf("answer %d %v of voted %v: sum of label %d = %v, want %v (bit-exact)", a, ans, voted, labels[k], got[k], want[k])
				}
			}
			nAns, nTP := maskCounts(mask, sig)
			if nAns != ans.Len() || nTP != ans.IntersectLen(sigSet) {
				t.Fatalf("answer %d %v of voted %v, signature %v: mask counts %d/%d, want %d/%d",
					a, ans, voted, sigSet, nAns, nTP, ans.Len(), ans.IntersectLen(sigSet))
			}
		}
	})
}
