// Package labelset provides the compact set-of-labels representation used
// across the answer matrix, the simulator and the inference engines. Labels
// are small non-negative integers (indices into a label vocabulary), so a
// bitset over uint64 words gives O(1) membership, cheap unions and
// intersections, and an allocation-free iteration path for the hot loops of
// variational inference.
package labelset

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a set of label indices backed by a bitset. The zero value is an
// empty set ready for use. Sets grow automatically on Add; all binary
// operations accept operands of different widths.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity hint for labels in [0, n).
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewMany returns count empty sets with capacity for labels in [0, n),
// backed by one allocation. Each set's words are a capacity-clamped window
// of it, so growing one set past n reallocates that set alone.
func NewMany(count, n int) []Set {
	sets := make([]Set, count)
	if n <= 0 {
		return sets
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return sets
}

// FromSlice builds a set from label indices. Negative labels panic: labels
// are vocabulary indices and a negative one is a programming error.
func FromSlice(labels []int) Set {
	s := Set{}
	for _, c := range labels {
		s.Add(c)
	}
	return s
}

// Of is a variadic convenience constructor: Of(1, 4, 5).
func Of(labels ...int) Set { return FromSlice(labels) }

// Compact returns an independent copy of s with trailing zero words
// trimmed: the smallest backing that holds its members.
func (s Set) Compact() Set {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return Set{}
	}
	w := make([]uint64, n)
	copy(w, s.words)
	return Set{words: w}
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

func (s *Set) ensure(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Clear removes every member, retaining the backing storage so the set can
// be refilled without allocating (the consensus-signature caches rebuild
// per-item sets every refresh).
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Add inserts label c.
func (s *Set) Add(c int) {
	if c < 0 {
		panic(fmt.Sprintf("labelset: negative label %d", c))
	}
	w := c / wordBits
	s.ensure(w)
	s.words[w] |= 1 << uint(c%wordBits)
}

// Remove deletes label c if present.
func (s *Set) Remove(c int) {
	if c < 0 {
		return
	}
	w := c / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(c%wordBits)
	}
}

// Contains reports whether label c is in the set.
func (s Set) Contains(c int) bool {
	if c < 0 {
		return false
	}
	w := c / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(c)%wordBits)) != 0
}

// Len returns the cardinality of the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Slice returns the members in increasing order. The result is freshly
// allocated; use AppendTo to reuse a buffer in hot loops.
func (s Set) Slice() []int {
	return s.AppendTo(make([]int, 0, s.Len()))
}

// AppendTo appends the members in increasing order to dst and returns the
// extended slice. It performs no allocation when dst has sufficient capacity,
// which the inference loops rely on.
func (s Set) AppendTo(dst []int) []int {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+tz)
			w &^= 1 << uint(tz)
		}
	}
	return dst
}

// Range calls fn for each member in increasing order, stopping early if fn
// returns false.
func (s Set) Range(fn func(c int) bool) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(base + tz) {
				return
			}
			w &^= 1 << uint(tz)
		}
	}
}

// Union returns s ∪ o as a new set.
func (s Set) Union(o Set) Set {
	n := len(s.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	out := Set{words: make([]uint64, n)}
	copy(out.words, s.words)
	for i, w := range o.words {
		out.words[i] |= w
	}
	return out
}

// UnionWith sets s to s ∪ o in place, growing s only when o is wider.
func (s *Set) UnionWith(o Set) {
	s.ensure(len(o.words) - 1)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Intersect returns s ∩ o as a new set.
func (s Set) Intersect(o Set) Set {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := Set{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & o.words[i]
	}
	return out
}

// Minus returns s \ o as a new set.
func (s Set) Minus(o Set) Set {
	out := s.Clone()
	n := len(out.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		out.words[i] &^= o.words[i]
	}
	return out
}

// IntersectLen returns |s ∩ o| without materialising the intersection. This
// is the inner loop of set-based precision/recall.
func (s Set) IntersectLen(o Set) int {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return count
}

// RankMask writes into dst the mask of s's members' ranks among in's
// members: bit r of dst (word r/64, bit r%64) is set when the r-th smallest
// member of in belongs to s. It zeroes dst first, which must hold at least
// ⌈|in|/64⌉ words. s must be a subset of in. Each member's rank is the
// popcount of in's words below it, so the cost is O(words + |s|).
func (s Set) RankMask(in Set, dst []uint64) {
	clear(dst)
	base := 0
	for wi, w := range s.words {
		var iw uint64
		if wi < len(in.words) {
			iw = in.words[wi]
		}
		for w != 0 {
			b := w & -w
			r := base + bits.OnesCount64(iw&(b-1))
			dst[r>>6] |= 1 << (uint(r) & 63)
			w &^= b
		}
		base += bits.OnesCount64(iw)
	}
}

// Equal reports whether the two sets have identical members.
func (s Set) Equal(o Set) bool {
	long, short := s.words, o.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is in o.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Jaccard returns |s∩o| / |s∪o|, defining the similarity of two empty sets
// as 1 (identical answers).
func (s Set) Jaccard(o Set) float64 {
	inter := s.IntersectLen(o)
	union := s.Len() + o.Len() - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Max returns the largest member, or -1 for the empty set.
func (s Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// String renders the set as "{1,4,5}" with members sorted ascending, which
// matches the paper's Table 1 notation.
func (s Set) String() string {
	members := s.Slice()
	sort.Ints(members)
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range members {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	b.WriteByte('}')
	return b.String()
}

// AppendJSON appends the set's canonical JSON encoding — a sorted array of
// label indices, e.g. [1,4,5] — to dst and returns the extended slice. The
// bytes are exactly MarshalJSON's output; the serving journal's
// zero-allocation encoder builds answer lines with it.
func (s Set) AppendJSON(dst []byte) []byte {
	dst = append(dst, '[')
	first := true
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = strconv.AppendInt(dst, int64(base+tz), 10)
			w &^= 1 << uint(tz)
		}
	}
	return append(dst, ']')
}

// MarshalJSON encodes the set as a sorted JSON array of label indices.
func (s Set) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(make([]byte, 0, 2+4*s.Len())), nil
}

// FromWords builds a set over the given backing words (bit b of words[w] is
// label 64*w+b), taking ownership of the slice. Trailing zero words are
// trimmed so the representation matches incremental Add construction.
func FromWords(words []uint64) Set {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return Set{}
	}
	return Set{words: words[:n:n]}
}

// Arena bump-allocates Set backing words in large blocks, amortising the
// per-set heap object on bulk decode paths (one NDJSON ingest request
// decodes hundreds of sets). Sets built from an arena alias its blocks and
// stay valid for the arena's whole lifetime; an arena must not be recycled
// while any Set built from it is still reachable, so bulk decoders allocate
// one per request and let the GC reclaim it together with the sets. The
// zero value is ready for use.
type Arena struct {
	block []uint64
}

// arenaBlock is the word count of one arena block (4 KiB).
const arenaBlock = 512

// Make builds a Set whose members are the set bits of words, copied into
// the arena. Trailing zero words are trimmed so the representation matches
// incremental Add construction (no dead top words).
func (a *Arena) Make(words []uint64) Set {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return Set{}
	}
	if len(a.block)+n > cap(a.block) {
		size := arenaBlock
		if n > size {
			size = n
		}
		a.block = make([]uint64, 0, size)
	}
	start := len(a.block)
	a.block = a.block[:start+n]
	// Full slice expression: a Set that later grows (Add past its width)
	// reallocates instead of clobbering a neighbour's arena words.
	dst := a.block[start : start+n : start+n]
	copy(dst, words[:n])
	return Set{words: dst}
}

// UnmarshalJSON decodes a JSON array of label indices.
func (s *Set) UnmarshalJSON(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "null" {
		*s = Set{}
		return nil
	}
	if len(trimmed) < 2 || trimmed[0] != '[' || trimmed[len(trimmed)-1] != ']' {
		return fmt.Errorf("labelset: invalid JSON set %q", trimmed)
	}
	inner := strings.TrimSpace(trimmed[1 : len(trimmed)-1])
	*s = Set{}
	if inner == "" {
		return nil
	}
	for _, part := range strings.Split(inner, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("labelset: invalid member %q: %w", part, err)
		}
		if v < 0 {
			return fmt.Errorf("labelset: negative member %d", v)
		}
		s.Add(v)
	}
	return nil
}
