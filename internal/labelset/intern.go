package labelset

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Interner assigns a stable small integer id to every distinct label set it
// sees. Partial-agreement crowds reuse a small universe of answer sets
// heavily, so interning lets the inference engines key per-set caches (the
// score panels of internal/core) by id and replace per-answer label slices
// with a 4-byte reference into one shared canonical table.
//
// Ids are dense, assigned in first-seen order, and never change: the table
// is append-only. A set is stored once, as its bitset words with trailing
// zero words trimmed, in one flat arena addressed by int32 word offsets;
// its members are expanded on demand (AppendCanon) in ascending bit order,
// which is the canonical sorted order, and its size is a popcount (Size).
// Ids are found through an open-addressing table hashed over the trimmed
// words, filled to at most ¾, so a distinct set costs its words plus
// 13–19 bytes of index, with no per-set allocation.
//
// An Interner is owned by a single goroutine for writes (Intern); the
// lookup side (AppendCanon, At, Contains, Size, Count) is safe for
// concurrent readers as long as no Intern call runs at the same time — the
// discipline under which the inference shards operate (interning happens
// only at ingestion, a serial phase).
type Interner struct {
	// table holds id+1 per occupied slot (0 is free). Its length is a power
	// of two with Len() at most ¾ of it: Fibonacci hashing spreads the
	// home slots, so linear probes stay short at that load.
	table []int32
	shift uint // 64 − log2(len(table)): a hash's top bits pick its home slot

	// offs[id] and offs[id+1] bound the set's words in the arena. The arena
	// and offs are append-only: a Set handed out by At stays valid and
	// unchanged whatever is interned later.
	offs   []int32
	words  []uint64 // bitset words, trailing zero words trimmed, set after set
	counts []int32  // id → how many times the set was interned
}

// NewInterner returns an empty table.
func NewInterner() *Interner {
	return &Interner{offs: []int32{0}}
}

// Len returns the number of distinct sets interned so far.
func (in *Interner) Len() int { return len(in.counts) }

// hashWords mixes bitset words into a 64-bit hash whose top bits
// are well spread.
func hashWords(words []uint64) uint64 {
	h := uint64(len(words))
	for _, w := range words {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h * 0x9e3779b97f4a7c15
}

// Intern returns the id of s, assigning the next id on first sight. The
// empty set interns like any other (id'd once). Repeats are
// allocation-free; new sets cost amortised arena and table growth.
func (in *Interner) Intern(s Set) int32 {
	// Trailing zero words are dropped so sets that differ only in bitset
	// width intern identically.
	words := s.words
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	if 4*(len(in.counts)+1) > 3*len(in.table) {
		in.rehash(max(16, 2*len(in.table)))
	}
	mask := uint64(len(in.table) - 1)
	slot := hashWords(words) >> in.shift
	for ; in.table[slot] != 0; slot = (slot + 1) & mask {
		id := in.table[slot] - 1
		if slices.Equal(in.wordsOf(id), words) {
			in.counts[id]++
			return id
		}
	}
	if len(in.counts) >= math.MaxInt32-1 {
		panic("labelset: interner exceeds MaxInt32-1 distinct sets")
	}
	end := arenaOffset(len(in.words) + len(words))
	id := int32(len(in.counts))
	in.table[slot] = id + 1
	in.words = append(in.words, words...)
	in.offs = append(in.offs, end)
	in.counts = append(in.counts, 1)
	return id
}

// arenaOffset converts an arena length to an offset. It panics, before
// Intern changes anything, if the offset would overflow int32.
func arenaOffset(n int) int32 {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("labelset: interner arena of %d entries exceeds int32 offsets", n))
	}
	return int32(n)
}

// rehash rebuilds the probe table at size n, a power of two.
func (in *Interner) rehash(n int) {
	in.table = make([]int32, n)
	in.shift = uint(64 - bits.Len(uint(n-1)))
	mask := uint64(n - 1)
	for id := range in.counts {
		slot := hashWords(in.wordsOf(int32(id))) >> in.shift
		for in.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		in.table[slot] = int32(id) + 1
	}
}

// wordsOf returns the set's trimmed bitset words, capacity-clamped.
func (in *Interner) wordsOf(id int32) []uint64 {
	lo, hi := in.offs[id], in.offs[id+1]
	return in.words[lo:hi:hi]
}

// InternSlice interns the set with the given sorted members (the
// persistence-restore path). It panics on negative members like Set.Add.
func (in *Interner) InternSlice(xs []int) int32 {
	return in.Intern(FromSlice(xs))
}

// AppendCanon appends the interned set's members to dst in ascending
// order — the canonical order every kernel sums in — and returns the
// extended slice. It allocates nothing when dst has room for Size(id)
// more members.
func (in *Interner) AppendCanon(dst []int, id int32) []int {
	return in.At(id).AppendTo(dst)
}

// Size returns the number of members of the interned set.
func (in *Interner) Size(id int32) int { return in.At(id).Len() }

// Contains reports whether label c is a member of the interned set — the
// O(1) replacement for a binary search over sorted members.
func (in *Interner) Contains(id int32, c int) bool { return in.At(id).Contains(c) }

// At returns the interned set's bitset. Callers must treat it as read-only.
func (in *Interner) At(id int32) Set { return Set{words: in.wordsOf(id)} }

// Count returns how many times the set has been interned — the reuse factor
// that cache-admission policies key on.
func (in *Interner) Count(id int32) int32 { return in.counts[id] }

// Clone returns an interner that shares the immutable arena with the
// receiver but can accept new sets independently: ids assigned by either
// side after the clone do not leak into the other. The probe table and the
// counts are copied; the arena and offsets are shared by capacity-clamped
// headers, so the clone's appends reallocate instead of writing into slots
// the source may still fill.
func (in *Interner) Clone() *Interner {
	return &Interner{
		table:  append([]int32(nil), in.table...),
		shift:  in.shift,
		offs:   in.offs[:len(in.offs):len(in.offs)],
		words:  in.words[:len(in.words):len(in.words)],
		counts: append([]int32(nil), in.counts...),
	}
}

// String renders a small table summary for diagnostics.
func (in *Interner) String() string {
	return fmt.Sprintf("labelset.Interner{%d sets}", in.Len())
}
