package labelset

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSingletonUniverse exercises the full Set surface on the smallest
// vocabulary (one label), where off-by-ones around word 0 would show.
func TestSingletonUniverse(t *testing.T) {
	s := New(1)
	if !s.IsEmpty() || s.Len() != 0 || s.Max() != -1 {
		t.Fatalf("fresh singleton-universe set not empty: %v", s)
	}
	s.Add(0)
	if s.Len() != 1 || !s.Contains(0) || s.Max() != 0 {
		t.Fatalf("singleton add failed: %v", s)
	}
	if !s.Equal(Of(0)) || !s.SubsetOf(Of(0)) || !Of(0).SubsetOf(s) {
		t.Fatalf("singleton equality/subset failed: %v", s)
	}
	if got := s.Jaccard(Of(0)); got != 1 {
		t.Fatalf("self-Jaccard %v", got)
	}
	s.Remove(0)
	if !s.IsEmpty() {
		t.Fatalf("remove left residue: %v", s)
	}
}

// TestZeroValueBinaryOps runs every binary operation with a zero-value Set
// on each side — widths differ (0 words vs n words), which the operations
// must absorb.
func TestZeroValueBinaryOps(t *testing.T) {
	var zero Set
	wide := Of(0, 70, 130) // three words

	if got := zero.Union(wide); !got.Equal(wide) {
		t.Errorf("∅ ∪ wide = %v", got)
	}
	if got := wide.Union(zero); !got.Equal(wide) {
		t.Errorf("wide ∪ ∅ = %v", got)
	}
	grown := zero
	grown.UnionWith(wide)
	if !grown.Equal(wide) {
		t.Errorf("∅ ∪= wide gives %v", grown)
	}
	kept := wide.Clone()
	kept.UnionWith(zero)
	if !kept.Equal(wide) {
		t.Errorf("wide ∪= ∅ gives %v", kept)
	}
	if got := zero.Intersect(wide); !got.IsEmpty() {
		t.Errorf("∅ ∩ wide = %v", got)
	}
	if got := wide.Intersect(zero); !got.IsEmpty() {
		t.Errorf("wide ∩ ∅ = %v", got)
	}
	if got := wide.Minus(zero); !got.Equal(wide) {
		t.Errorf("wide \\ ∅ = %v", got)
	}
	if got := zero.Minus(wide); !got.IsEmpty() {
		t.Errorf("∅ \\ wide = %v", got)
	}
	if got := zero.IntersectLen(wide); got != 0 {
		t.Errorf("|∅ ∩ wide| = %d", got)
	}
	if !zero.SubsetOf(wide) {
		t.Error("∅ not a subset of wide")
	}
	if wide.SubsetOf(zero) {
		t.Error("wide a subset of ∅")
	}
	if !zero.Equal(Set{}) {
		t.Error("two zero sets not equal")
	}
	if got := zero.Jaccard(Set{}); got != 1 {
		t.Errorf("Jaccard(∅,∅) = %v, want 1 (identical answers)", got)
	}
	if got := zero.Jaccard(wide); got != 0 {
		t.Errorf("Jaccard(∅,wide) = %v", got)
	}
}

// TestRemoveBeyondWidth pins that Remove of labels past the backing array
// (and negative labels) is a no-op, never a panic or a grow.
func TestRemoveBeyondWidth(t *testing.T) {
	s := Of(3)
	s.Remove(1000)
	s.Remove(-5)
	if !s.Equal(Of(3)) {
		t.Fatalf("remove-beyond-width mutated the set: %v", s)
	}
	var zero Set
	zero.Remove(0) // no backing words at all
	if !zero.IsEmpty() {
		t.Fatal("remove on the zero value grew it")
	}
}

// TestContainsBeyondWidth pins membership tests past the backing array.
func TestContainsBeyondWidth(t *testing.T) {
	s := Of(2)
	for _, c := range []int{-1, 64, 1 << 20} {
		if s.Contains(c) {
			t.Errorf("Contains(%d) true on %v", c, s)
		}
	}
}

// TestMinusNarrowerOperand pins Minus when the subtrahend has fewer words
// than the receiver (the loop must stop at the shorter width).
func TestMinusNarrowerOperand(t *testing.T) {
	wide := Of(1, 100, 200)
	if got := wide.Minus(Of(1)); !got.Equal(Of(100, 200)) {
		t.Fatalf("wide \\ {1} = %v", got)
	}
	if got := Of(1).Minus(wide); !got.IsEmpty() {
		t.Fatalf("{1} \\ wide = %v", got)
	}
}

// TestEqualTrailingZeroWords pins equality across widths where the longer
// set's extra words are all zero (a set shrunk by Remove).
func TestEqualTrailingZeroWords(t *testing.T) {
	a := Of(1, 200)
	a.Remove(200) // leaves zeroed high words behind
	b := Of(1)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("equality ignores trailing zero words: %v vs %v", a, b)
	}
	if !a.SubsetOf(b) {
		t.Fatal("subset must ignore trailing zero words")
	}
	if a.Len() != 1 || a.Max() != 1 {
		t.Fatalf("Len/Max after shrink: %d/%d", a.Len(), a.Max())
	}
}

// TestOfEmptyVariadic pins the empty constructors.
func TestOfEmptyVariadic(t *testing.T) {
	if s := Of(); !s.IsEmpty() {
		t.Fatalf("Of() = %v", s)
	}
	if s := FromSlice(nil); !s.IsEmpty() {
		t.Fatalf("FromSlice(nil) = %v", s)
	}
	if s := New(0); !s.IsEmpty() || s.Max() != -1 {
		t.Fatalf("New(0) = %v", s)
	}
	if s := New(-3); !s.IsEmpty() {
		t.Fatalf("New(-3) = %v", s)
	}
}

// TestWordBoundaryMembers sweeps members that straddle the 64-bit word
// boundaries, where shift arithmetic bugs live.
func TestWordBoundaryMembers(t *testing.T) {
	members := []int{0, 63, 64, 127, 128}
	s := FromSlice(members)
	if got := s.Slice(); !reflect.DeepEqual(got, members) {
		t.Fatalf("Slice() = %v, want %v", got, members)
	}
	if s.Len() != len(members) || s.Max() != 128 {
		t.Fatalf("Len=%d Max=%d", s.Len(), s.Max())
	}
	want := map[int]bool{}
	for _, c := range members {
		want[c] = true
	}
	for c := 0; c <= 130; c++ {
		if s.Contains(c) != want[c] {
			t.Errorf("Contains(%d) = %v, want %v", c, s.Contains(c), want[c])
		}
	}
}

// TestUnmarshalJSONRejectsGarbage is the table of malformed JSON set
// encodings the codec must reject (and the whitespace forms it must not).
func TestUnmarshalJSONRejectsGarbage(t *testing.T) {
	bad := []string{
		`{"a":1}`, `"1,2"`, `12`, `[1,`, `[1,"two"]`, `[1,-2]`, `[1.5]`, `[,]`,
	}
	for _, raw := range bad {
		var s Set
		if err := json.Unmarshal([]byte(raw), &s); err == nil {
			t.Errorf("accepted %q as %v", raw, s)
		}
	}
	good := map[string][]int{
		`[]`:          nil,
		` [ 1 , 3 ] `: {1, 3},
		"null":        nil,
		"[2]":         {2},
		"\n[0,64]\t":  {0, 64},
	}
	for raw, want := range good {
		var s Set
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			t.Errorf("rejected %q: %v", raw, err)
			continue
		}
		if !s.Equal(FromSlice(want)) {
			t.Errorf("%q decoded to %v, want %v", raw, s, FromSlice(want))
		}
	}
}
