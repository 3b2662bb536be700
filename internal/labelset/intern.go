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
// is append-only. For every id the Interner keeps both the canonical sorted
// members (the exact slice the old per-answer []int carried, shared by
// every reference to the set) and the bitset words for O(1) membership
// tests in the consensus-counting loops. Both live in flat arenas addressed
// by int32 offsets, and ids are found through an open-addressing table
// hashed over the trimmed bitset words, so a distinct set costs its members
// and words plus 20–28 bytes of index, with no per-set allocation.
//
// An Interner is owned by a single goroutine for writes (Intern); the
// lookup side (Canon, Contains, Count) is safe for concurrent readers as
// long as no Intern call runs at the same time — the discipline under which
// the inference shards operate (interning happens only at ingestion, a
// serial phase).
type Interner struct {
	// table holds id+1 per occupied slot (0 is free). Its length is a power
	// of two and at least twice Len(), so linear probes stay short.
	table []int32
	shift uint // 64 − log2(len(table)): a hash's top bits pick its home slot

	// offs[id] and offs[id+1] bound the set's members and words in the
	// arenas. Arenas and offs are append-only: a slice handed out by Canon
	// or At stays valid and unchanged whatever is interned later.
	offs    []offset
	members []int    // canonical sorted members, set after set
	words   []uint64 // bitset words, trailing zero words trimmed
	counts  []int32  // id → how many times the set was interned
}

// offset is where one set starts in each arena.
type offset struct{ member, word int32 }

// NewInterner returns an empty table.
func NewInterner() *Interner {
	return &Interner{offs: []offset{{}}}
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
	if 2*(len(in.counts)+1) > len(in.table) {
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
	end := offset{arenaOffset(len(in.members) + s.Len()), arenaOffset(len(in.words) + len(words))}
	id := int32(len(in.counts))
	in.table[slot] = id + 1
	in.members = s.AppendTo(in.members)
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
	lo, hi := in.offs[id].word, in.offs[id+1].word
	return in.words[lo:hi:hi]
}

// InternSlice interns the set with the given sorted members (the
// persistence-restore path). It panics on negative members like Set.Add.
func (in *Interner) InternSlice(xs []int) int32 {
	return in.Intern(FromSlice(xs))
}

// Canon returns the canonical sorted member slice of the interned set.
// Callers must not mutate it: the slice is shared by every reference.
func (in *Interner) Canon(id int32) []int {
	lo, hi := in.offs[id].member, in.offs[id+1].member
	return in.members[lo:hi:hi]
}

// Contains reports whether label c is a member of the interned set — the
// O(1) replacement for a binary search over the canonical slice.
func (in *Interner) Contains(id int32, c int) bool { return in.At(id).Contains(c) }

// At returns the interned set's bitset. Callers must treat it as read-only.
func (in *Interner) At(id int32) Set { return Set{words: in.wordsOf(id)} }

// Count returns how many times the set has been interned — the reuse factor
// that cache-admission policies key on.
func (in *Interner) Count(id int32) int32 { return in.counts[id] }

// Clone returns an interner that shares the immutable arenas with the
// receiver but can accept new sets independently: ids assigned by either
// side after the clone do not leak into the other. The probe table and the
// counts are copied; the arenas and offsets are shared by capacity-clamped
// headers, so the clone's appends reallocate instead of writing into slots
// the source may still fill.
func (in *Interner) Clone() *Interner {
	return &Interner{
		table:   append([]int32(nil), in.table...),
		shift:   in.shift,
		offs:    in.offs[:len(in.offs):len(in.offs)],
		members: in.members[:len(in.members):len(in.members)],
		words:   in.words[:len(in.words):len(in.words)],
		counts:  append([]int32(nil), in.counts...),
	}
}

// String renders a small table summary for diagnostics.
func (in *Interner) String() string {
	return fmt.Sprintf("labelset.Interner{%d sets}", in.Len())
}
