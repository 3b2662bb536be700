package labelset

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestInternerAssignsStableIds(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Of(1, 4, 5))
	b := in.Intern(Of(0))
	if a == b {
		t.Fatalf("distinct sets share id %d", a)
	}
	if got := in.Intern(Of(5, 4, 1)); got != a {
		t.Errorf("re-interning {1,4,5} gave id %d, want %d", got, a)
	}
	if got := in.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
	if got := in.Count(a); got != 2 {
		t.Errorf("Count(a) = %d, want 2", got)
	}
	if got := in.Count(b); got != 1 {
		t.Errorf("Count(b) = %d, want 1", got)
	}
}

func TestInternerCanonAndContains(t *testing.T) {
	in := NewInterner()
	id := in.Intern(Of(7, 2, 64, 3))
	canon := in.AppendCanon(nil, id)
	want := []int{2, 3, 7, 64}
	if got := in.Size(id); got != len(want) {
		t.Errorf("Size = %d, want %d", got, len(want))
	}
	if len(canon) != len(want) {
		t.Fatalf("canon %v, want %v", canon, want)
	}
	for i, c := range want {
		if canon[i] != c {
			t.Fatalf("canon %v, want %v", canon, want)
		}
		if !in.Contains(id, c) {
			t.Errorf("Contains(%d) = false, want true", c)
		}
	}
	for _, c := range []int{0, 1, 4, 63, 65, 128, -1} {
		if in.Contains(id, c) {
			t.Errorf("Contains(%d) = true, want false", c)
		}
	}
}

// TestInternerWidthInsensitive pins that a set whose bitset carries trailing
// zero words (e.g. after Remove) interns identically to its narrow twin.
func TestInternerWidthInsensitive(t *testing.T) {
	in := NewInterner()
	narrow := Of(3)
	wide := Of(3, 200)
	wide.Remove(200)
	a := in.Intern(narrow)
	if b := in.Intern(wide); b != a {
		t.Fatalf("width-differing equal sets got ids %d and %d", a, b)
	}
	if in.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", in.Len())
	}
}

func TestInternerEmptySet(t *testing.T) {
	in := NewInterner()
	id := in.Intern(Set{})
	if got := in.Intern(New(64)); got != id {
		t.Errorf("empty sets intern to ids %d and %d", id, got)
	}
	if got := in.AppendCanon(nil, id); len(got) != 0 {
		t.Errorf("canon of empty set = %v", got)
	}
	if got := in.Size(id); got != 0 {
		t.Errorf("Size of empty set = %d", got)
	}
}

// TestInternerCloneDiverges pins the clone discipline the model relies on:
// shared history, independent growth.
func TestInternerCloneDiverges(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Of(1))
	cl := in.Clone()
	if got := cl.Intern(Of(1)); got != a {
		t.Fatalf("clone lost existing id: %d vs %d", got, a)
	}
	// Divergent appends on both sides must not corrupt each other.
	x := in.Intern(Of(2))
	y := cl.Intern(Of(3))
	if x != y {
		t.Fatalf("expected both sides to assign the same next id, got %d and %d", x, y)
	}
	if got := in.AppendCanon(nil, x); len(got) != 1 || got[0] != 2 {
		t.Errorf("source canon(%d) = %v, want [2]", x, got)
	}
	if got := cl.AppendCanon(nil, y); len(got) != 1 || got[0] != 3 {
		t.Errorf("clone canon(%d) = %v, want [3]", y, got)
	}
}

func TestInternSliceMatchesIntern(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Of(9, 1))
	if b := in.InternSlice([]int{1, 9}); b != a {
		t.Errorf("InternSlice gave %d, want %d", b, a)
	}
}

// TestInternerAppendCanonMultiWord checks expansion and Size on sets
// spanning several words (label universes past 64), the empty set, and
// that expanding into a buffer with room allocates nothing.
func TestInternerAppendCanonMultiWord(t *testing.T) {
	in := NewInterner()
	for _, want := range [][]int{
		{0, 63, 64, 127, 128, 300},
		{},
		{65},
		{1, 2, 3, 191, 192, 193, 255, 256},
		{511},
	} {
		id := in.InternSlice(want)
		if got := in.AppendCanon(nil, id); !slices.Equal(got, want) {
			t.Errorf("AppendCanon(%d) = %v, want %v", id, got, want)
		}
		if got := in.Size(id); got != len(want) {
			t.Errorf("Size(%d) = %d, want %d", id, got, len(want))
		}
		buf := make([]int, 0, len(want))
		if allocs := testing.AllocsPerRun(50, func() { buf = in.AppendCanon(buf[:0], id) }); allocs > 0 {
			t.Errorf("AppendCanon(%d) into a buffer with room allocates %.1f times", id, allocs)
		}
	}
}

func TestInternSteadyStateAllocFree(t *testing.T) {
	in := NewInterner()
	s := Of(1, 5, 9)
	in.Intern(s)
	allocs := testing.AllocsPerRun(100, func() { in.Intern(s) })
	if allocs > 0 {
		t.Errorf("steady-state Intern allocates %.1f times per call", allocs)
	}
}

// refInterner is the string-keyed reference FuzzInterner holds the probe
// table against: one map entry per distinct member list.
type refInterner struct {
	ids    map[string]int32
	canon  [][]int
	counts []int32
}

func newRefInterner() *refInterner { return &refInterner{ids: map[string]int32{}} }

func (r *refInterner) intern(s Set) int32 {
	xs := s.Slice()
	k := fmt.Sprint(xs)
	if id, ok := r.ids[k]; ok {
		r.counts[id]++
		return id
	}
	id := int32(len(r.canon))
	r.ids[k] = id
	r.canon = append(r.canon, xs)
	r.counts = append(r.counts, 1)
	return id
}

func (r *refInterner) clone() *refInterner {
	return &refInterner{
		ids:    maps.Clone(r.ids),
		canon:  slices.Clone(r.canon),
		counts: slices.Clone(r.counts),
	}
}

// fuzzSet decodes one set from data: a header byte (member count in its
// low three bits, a widening flag in bit 3) and one byte per member, so
// members reach past one 64-bit word. A widened set carries trailing zero
// words that must not change its identity.
func fuzzSet(data []byte) (Set, []byte) {
	if len(data) == 0 {
		return Set{}, nil
	}
	hdr := data[0]
	data = data[1:]
	n := min(int(hdr&7), len(data))
	s := New(0)
	if hdr&8 != 0 {
		s = New(320)
	}
	for _, b := range data[:n] {
		s.Add(int(b))
	}
	return s, data[n:]
}

// sameAsRef checks every read of in against the reference.
func sameAsRef(t *testing.T, what string, in *Interner, ref *refInterner) {
	t.Helper()
	if in.Len() != len(ref.canon) {
		t.Fatalf("%s: Len %d, reference %d", what, in.Len(), len(ref.canon))
	}
	for id, want := range ref.canon {
		id := int32(id)
		// AppendCanon must append after the caller's prefix and leave it.
		prefix := []int{-7}
		if got := in.AppendCanon(prefix, id); got[0] != -7 || !slices.Equal(got[1:], want) {
			t.Fatalf("%s: AppendCanon([-7], %d) = %v, want [-7] + %v", what, id, got, want)
		}
		if got := in.Size(id); got != len(want) {
			t.Fatalf("%s: Size(%d) = %d, want %d", what, id, got, len(want))
		}
		if got := in.At(id).Slice(); !slices.Equal(got, want) {
			t.Fatalf("%s: At(%d) = %v, want %v", what, id, got, want)
		}
		for c := -1; c <= 256; c++ {
			if got := in.Contains(id, c); got != slices.Contains(want, c) {
				t.Fatalf("%s: Contains(%d, %d) = %v for %v", what, id, c, got, want)
			}
		}
		if got := in.Count(id); got != ref.counts[id] {
			t.Fatalf("%s: Count(%d) = %d, want %d", what, id, got, ref.counts[id])
		}
	}
}

// FuzzInterner interns random set sequences into the probe table and into
// a map-keyed reference and requires every read to agree: ids, the
// expanded members against the reference's sorted slice, Size against its
// length, bitset, membership and counts. An op byte picks
// the target: the source, or a clone taken mid-sequence, so a clone and its
// source interning different new sets must not see each other's ids.
func FuzzInterner(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 0, 1, 0})                               // empty set, then the widened empty set
	f.Add([]byte{0, 3, 1, 64, 200, 0, 11, 200, 64, 1, 2, 0})         // past 64 labels, then widened
	f.Add([]byte{0, 1, 5, 1, 0, 0, 1, 6, 2, 1, 6, 2, 1, 7, 0, 1, 7}) // clone, then divergent growth
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ref := NewInterner(), newRefInterner()
		var cl *Interner
		var clRef *refInterner
		for len(data) > 0 {
			op := data[0] % 3
			var s Set
			s, data = fuzzSet(data[1:])
			switch {
			case op == 1 && cl == nil:
				cl, clRef = in.Clone(), ref.clone()
			case op == 2 && cl != nil:
				if got, want := cl.Intern(s), clRef.intern(s); got != want {
					t.Fatalf("clone: Intern(%v) = %d, want %d", s, got, want)
				}
			default:
				if got, want := in.Intern(s), ref.intern(s); got != want {
					t.Fatalf("Intern(%v) = %d, want %d", s, got, want)
				}
			}
		}
		sameAsRef(t, "source", in, ref)
		if cl != nil {
			sameAsRef(t, "clone", cl, clRef)
		}
	})
}

// TestInternerArenaOffsetBound pins what the int32 offsets address — the
// trimmed words of each set, one after another in the word arena — and the
// clear panic an arena past int32 offsets raises, instead of wrapping its
// offsets.
func TestInternerArenaOffsetBound(t *testing.T) {
	in := NewInterner()
	in.Intern(Of(3))      // one word
	in.Intern(Of(3, 200)) // four words
	in.Intern(Set{})      // none
	in.Intern(Of(64))     // two words
	wide := Of(5, 300)
	wide.Remove(300) // one word once trimmed
	in.Intern(wide)
	if want := []int32{0, 1, 5, 5, 7, 8}; !slices.Equal(in.offs, want) {
		t.Fatalf("word offsets %v, want %v", in.offs, want)
	}
	if len(in.words) != 8 {
		t.Fatalf("word arena holds %d words, want 8", len(in.words))
	}
	if got := arenaOffset(math.MaxInt32); got != math.MaxInt32 {
		t.Fatalf("arenaOffset(MaxInt32) = %d", got)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "exceeds int32 offsets") {
			t.Fatalf("arenaOffset past MaxInt32: recovered %v, want the offset panic", r)
		}
	}()
	arenaOffset(math.MaxInt32 + 1)
}

// TestInternerGrowsAtThreeQuarterLoad pins the probe table's sizing — the
// smallest power of two, at least 16, that holds Len() at ¾ load — and
// that every growth keeps ids, members and counts identical to the
// map-keyed reference, while repeats of earlier sets still find their ids.
func TestInternerGrowsAtThreeQuarterLoad(t *testing.T) {
	in, ref := NewInterner(), newRefInterner()
	var sets []Set
	for k := 0; k < 3000; k++ {
		// Distinct one- and two-word sets, some with trailing zero words.
		s := Of(k%64, 64+k/64)
		if k%5 == 0 {
			s = New(320)
			s.Add(k % 64)
			s.Add(64 + k/64)
		}
		sets = append(sets, s)
		if got, want := in.Intern(s), ref.intern(s); got != want {
			t.Fatalf("Intern #%d = %d, want %d", k, got, want)
		}
		n := in.Len()
		size := 16
		for 4*n > 3*size {
			size *= 2
		}
		if len(in.table) != size {
			t.Fatalf("%d sets: table has %d slots, want %d (¾ load)", n, len(in.table), size)
		}
		if k%97 == 0 {
			// Repeats of earlier sets across the growths so far.
			for j := 0; j <= k; j += 13 {
				if got, want := in.Intern(sets[j]), ref.intern(sets[j]); got != want {
					t.Fatalf("repeat of set #%d = %d, want %d", j, got, want)
				}
			}
		}
	}
	if len(in.table) != 4096 {
		t.Fatalf("3000 sets: table has %d slots, want 4096", len(in.table))
	}
	sameAsRef(t, "after growth", in, ref)
}
