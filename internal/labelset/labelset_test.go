package labelset

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Len() != 0 || s.Contains(0) {
		t.Error("zero value should be an empty set")
	}
	s.Add(130)
	if !s.Contains(130) || s.Len() != 1 {
		t.Error("Add on zero value failed")
	}
}

// TestNewManySetsAreIndependent: sets sharing NewMany's backing never see
// each other's members, also when one grows past the capacity hint.
func TestNewManySetsAreIndependent(t *testing.T) {
	sets := NewMany(3, 70)
	sets[0].Add(69)
	sets[1].Add(0)
	sets[1].Add(200) // past the hint: reallocates sets[1] alone
	sets[2].Add(64)
	for k, want := range [][]int{{69}, {0, 200}, {64}} {
		if got := sets[k].Slice(); !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d = %v, want %v", k, got, want)
		}
	}
	sets[1].Clear()
	if got := sets[2].Slice(); !reflect.DeepEqual(got, []int{64}) {
		t.Fatalf("clearing a neighbour changed set 2 to %v", got)
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(100)
	for _, c := range []int{0, 1, 63, 64, 65, 99} {
		s.Add(c)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	for _, c := range []int{0, 1, 63, 64, 65, 99} {
		if !s.Contains(c) {
			t.Errorf("missing %d", c)
		}
	}
	if s.Contains(2) || s.Contains(100) || s.Contains(-1) {
		t.Error("spurious membership")
	}
	s.Remove(63)
	s.Remove(1000) // out of range: no-op
	s.Remove(-5)   // negative: no-op
	if s.Contains(63) || s.Len() != 5 {
		t.Error("Remove failed")
	}
	// Idempotent add.
	s.Add(0)
	if s.Len() != 5 {
		t.Error("double Add changed cardinality")
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) should panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestSliceSortedAndRoundTrip(t *testing.T) {
	in := []int{7, 3, 200, 64, 0}
	s := FromSlice(in)
	got := s.Slice()
	want := append([]int(nil), in...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := Of(1, 2, 3, 4, 5)
	seen := 0
	s.Range(func(c int) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("Range visited %d, want 3", seen)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3)
	b := Of(3, 4, 200)
	if got := a.Union(b); got.Len() != 5 || !got.Contains(200) || !got.Contains(1) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got.Len() != 2 || got.Contains(3) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.IntersectLen(b); got != 1 {
		t.Errorf("IntersectLen = %d", got)
	}
	if !a.SubsetOf(a.Union(b)) {
		t.Error("a should be subset of a∪b")
	}
	if a.SubsetOf(b) {
		t.Error("a is not a subset of b")
	}
	if Of().SubsetOf(a) != true {
		t.Error("empty set is subset of anything")
	}
}

func TestEqualAcrossWidths(t *testing.T) {
	a := Of(1)
	b := New(512)
	b.Add(1)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("Equal must ignore trailing zero words")
	}
	b.Add(300)
	if a.Equal(b) {
		t.Error("sets differ")
	}
}

func TestJaccard(t *testing.T) {
	a := Of(1, 2)
	b := Of(2, 3)
	if got := a.Jaccard(b); got != 1.0/3 {
		t.Errorf("Jaccard = %g", got)
	}
	if got := (Set{}).Jaccard(Set{}); got != 1 {
		t.Errorf("empty Jaccard = %g, want 1", got)
	}
	if got := a.Jaccard(Set{}); got != 0 {
		t.Errorf("Jaccard with empty = %g, want 0", got)
	}
}

func TestMax(t *testing.T) {
	if (Set{}).Max() != -1 {
		t.Error("empty Max should be -1")
	}
	if got := Of(3, 130, 64).Max(); got != 130 {
		t.Errorf("Max = %d", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2)
	b := a.Clone()
	b.Add(3)
	if a.Contains(3) {
		t.Error("Clone must be independent")
	}
	empty := (Set{}).Clone()
	if !empty.IsEmpty() {
		t.Error("clone of empty should be empty")
	}
}

func TestString(t *testing.T) {
	if got := Of(5, 4).String(); got != "{4,5}" {
		t.Errorf("String = %q", got)
	}
	if got := (Set{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Of(0, 7, 129)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[0,7,129]" {
		t.Errorf("marshal = %s", data)
	}
	var out Set
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) {
		t.Errorf("round trip lost data: %v vs %v", in, out)
	}
	// Empty and null forms.
	var e Set
	if err := json.Unmarshal([]byte("[]"), &e); err != nil || !e.IsEmpty() {
		t.Errorf("[] should decode to empty set (err=%v)", err)
	}
	if err := json.Unmarshal([]byte("null"), &e); err != nil || !e.IsEmpty() {
		t.Errorf("null should decode to empty set (err=%v)", err)
	}
	if err := json.Unmarshal([]byte(`[1,"x"]`), &e); err == nil {
		t.Error("garbage member should fail")
	}
	if err := json.Unmarshal([]byte(`[-3]`), &e); err == nil {
		t.Error("negative member should fail")
	}
	if err := json.Unmarshal([]byte(`{}`), &e); err == nil {
		t.Error("non-array should fail")
	}
}

func TestAppendToNoAlloc(t *testing.T) {
	s := Of(1, 2, 3, 4, 5, 6, 7, 8)
	buf := make([]int, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendTo allocated %v times per run", allocs)
	}
}

func TestPropertyAlgebraLaws(t *testing.T) {
	gen := func(seed int64) Set {
		rng := rand.New(rand.NewSource(seed))
		s := Set{}
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			s.Add(rng.Intn(256))
		}
		return s
	}
	f := func(sa, sb, sc int64) bool {
		a, b, c := gen(sa), gen(sb), gen(sc)
		// Commutativity.
		if !a.Union(b).Equal(b.Union(a)) || !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		// The in-place union agrees with Union, whichever side is wider.
		in := a.Clone()
		in.UnionWith(b)
		if !in.Equal(a.Union(b)) {
			return false
		}
		// Associativity of union.
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		// Distributivity: a ∩ (b ∪ c) = (a∩b) ∪ (a∩c).
		if !a.Intersect(b.Union(c)).Equal(a.Intersect(b).Union(a.Intersect(c))) {
			return false
		}
		// De Morgan within universe of a: a \ (b ∪ c) = (a\b) ∩ (a\c).
		if !a.Minus(b.Union(c)).Equal(a.Minus(b).Intersect(a.Minus(c))) {
			return false
		}
		// Cardinality inclusion-exclusion.
		if a.Union(b).Len() != a.Len()+b.Len()-a.IntersectLen(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(members []uint16) bool {
		s := Set{}
		for _, m := range members {
			s.Add(int(m % 1024))
		}
		data, err := json.Marshal(s)
		if err != nil {
			return false
		}
		var out Set
		if err := json.Unmarshal(data, &out); err != nil {
			return false
		}
		return s.Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkContains(b *testing.B) {
	s := Of(1, 64, 300)
	for i := 0; i < b.N; i++ {
		_ = s.Contains(i & 511)
	}
}

func BenchmarkIntersectLen(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := New(1024), New(1024)
	for i := 0; i < 100; i++ {
		x.Add(rng.Intn(1024))
		y.Add(rng.Intn(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectLen(y)
	}
}

// TestCompactTrimsAndCopies pins Compact: the members of s in the fewest
// words, in storage s does not share.
func TestCompactTrimsAndCopies(t *testing.T) {
	wide := New(300)
	wide.Add(3)
	wide.Add(70)
	c := wide.Compact()
	if len(c.words) != 2 || !c.Equal(wide) {
		t.Fatalf("Compact of %v has %d words (%v), want 2 words", wide, len(c.words), c)
	}
	wide.Add(5)
	if c.Contains(5) {
		t.Fatal("Compact shares storage with its source")
	}
	if e := New(200).Compact(); e.words != nil {
		t.Fatalf("Compact of an empty set holds %d words", len(e.words))
	}
}

// TestRankMask checks RankMask against the rank walk it replaces: a
// member's rank is its index in in.Slice(), across one to three words of
// in and subsets of every density.
func TestRankMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(190)
		var in, s Set
		for c := 0; c < n; c++ {
			if rng.Intn(3) == 0 {
				in.Add(c)
			}
		}
		members := in.Slice()
		want := make([]uint64, (len(members)+63)/64+1)
		for r, c := range members {
			if rng.Intn(2) == 0 {
				s.Add(c)
				want[r/64] |= 1 << (r % 64)
			}
		}
		got := make([]uint64, len(want))
		for w := range got {
			got[w] = ^uint64(0) // RankMask zeroes dst first
		}
		s.RankMask(in, got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: in %v s %v: mask %x, want %x", trial, in, s, got, want)
		}
	}
}
