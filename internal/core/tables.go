package core

import (
	"math/bits"
	"slices"
)

// Per-call item tables (DESIGN.md §9).
//
// The finalize, imputation, reliability and prediction kernels all walk an
// item's voted labels, and the imputation and two-coin kernels walk its
// answers against them. A job keeps each voted list as a bitset
// (votedSets) and each answer as an interned set id, so the call work
// expands both once per call for the items the call reads:
//
//   - the voted list, ascending — the order ŷ is aligned with;
//   - one rank mask per stored answer: bit k is set when the answer holds
//     the item's k-th voted label (labelset.Set.RankMask, O(|answer|)), in
//     ⌈|voted|/64⌉ words, so items voting more than 64 labels take the
//     same path;
//   - a signature mask of the same width ahead of the answers' masks, the
//     ranks of the item's hardened consensus (hardSigItem).
//
// With the masks, the vote/miss accumulation of the imputation is one
// mathx.AddSelect per answer and the two-coin counts are popcounts of
// mask ∩ signature. Every table is working memory: it lives in the call
// work, is marked unexpanded when a unit is borrowed, and is never
// reachable from a model at rest. An item's tables stay valid for the rest
// of the call: nothing a call does after expanding an item changes its
// voted list or its stored answers' labels (PartialFit ingests and extends
// the voted lists first; a window compaction keeps every retained answer
// and every voted list).

// itemTables is the call work's expansion of the voted lists and rank
// masks of the items the call has expanded.
type itemTables struct {
	votedAt  []int    // per item: 1 + start of its voted list in votedLab; 0 = not expanded
	maskAt   []int    // per item: start of its signature mask in masks (valid once expanded)
	votedLab []int    // voted lists, in expansion order
	masks    []uint64 // per expanded item: signature mask, then one mask per stored answer
	pending  []int    // expandItems' worklist
	nLab     int      // votedLab length once pending is filled
	nMask    int      // masks length once pending is filled
}

// reset marks every item unexpanded, keeping the storage.
func (t *itemTables) reset() {
	clear(t.votedAt)
	t.votedLab, t.masks = t.votedLab[:0], t.masks[:0]
	t.nLab, t.nMask = 0, 0
}

// maskWords is the width, in words, of a rank mask over nv voted labels.
func maskWords(nv int) int { return (nv + 63) >> 6 }

// expandItems expands every listed item (nil: every item) not yet expanded
// in this call, borrowing the call work first if the model holds none, and
// returns the work. A serial sync point: offsets are assigned in list
// order, then the items fill their disjoint ranges — on the Algorithm 3
// shards when every item is listed.
func (m *Model) expandItems(items []int) *callWork {
	w := m.borrowWork()
	t := &w.itemTables
	t.pending = t.pending[:0]
	if items == nil {
		for i := 0; i < m.numItems; i++ {
			m.enqueueItem(t, i)
		}
	} else {
		for _, i := range items {
			m.enqueueItem(t, i)
		}
	}
	todo := t.pending
	if len(todo) == 0 {
		return w
	}
	t.votedLab = slices.Grow(t.votedLab, t.nLab-len(t.votedLab))[:t.nLab]
	t.masks = slices.Grow(t.masks, t.nMask-len(t.masks))[:t.nMask]
	if items != nil {
		for _, i := range todo {
			m.fillItemTables(t, i)
		}
		return w
	}
	m.parallelFor(len(todo), func(lo, hi int) {
		for _, i := range todo[lo:hi] {
			m.fillItemTables(t, i)
		}
	})
	return w
}

// enqueueItem assigns item i its table ranges and queues it, unless it is
// expanded or queued already.
func (m *Model) enqueueItem(t *itemTables, i int) {
	if t.votedAt[i] != 0 {
		return
	}
	nv := len(m.yhatVals[i])
	t.votedAt[i], t.maskAt[i] = t.nLab+1, t.nMask
	t.nLab += nv
	t.nMask += (1 + m.perItem[i].Len()) * maskWords(nv)
	t.pending = append(t.pending, i)
}

// fillItemTables writes item i's voted list and its answers' rank masks
// into the ranges expandItems assigned it. The signature mask is written
// by hardSigItem.
func (m *Model) fillItemTables(t *itemTables, i int) {
	set := m.votedSets[i]
	nv := len(m.yhatVals[i])
	at := t.votedAt[i] - 1
	set.AppendTo(t.votedLab[at:at])
	nw := maskWords(nv)
	if nw == 0 {
		return
	}
	off := t.maskAt[i] + nw
	l := &m.perItem[i]
	for s, sn := 0, l.segs(); s < sn; s++ {
		for _, ar := range l.seg(s) {
			m.intern.At(ar.set).RankMask(set, t.masks[off:off+nw])
			off += nw
		}
	}
}

// votedList returns item i's voted labels, ascending, from the call's
// tables; the item must have been expanded in this call.
func (m *Model) votedList(i int) []int {
	t := &m.work.itemTables
	at := t.votedAt[i] - 1
	n := len(m.yhatVals[i])
	return t.votedLab[at : at+n : at+n]
}

// itemMasks returns item i's rank-mask width nw, its signature mask and
// its answers' masks (answer p in ans[p·nw:(p+1)·nw], in stored order)
// from the call's tables; the item must have been expanded in this call.
func (m *Model) itemMasks(i int) (nw int, sig, ans []uint64) {
	t := &m.work.itemTables
	nw = maskWords(len(m.yhatVals[i]))
	at := t.maskAt[i]
	end := at + (1+m.perItem[i].Len())*nw
	return nw, t.masks[at : at+nw : at+nw], t.masks[at+nw : end : end]
}

// maskCounts returns the number of labels in an answer's rank mask and the
// number of them its item's signature mask holds — |answer| and
// |answer ∩ signature| by popcount, given answer ⊆ voted.
func maskCounts(mask, sig []uint64) (nAns, nSig int) {
	for j, aw := range mask {
		nAns += bits.OnesCount64(aw)
		nSig += bits.OnesCount64(aw & sig[j])
	}
	return nAns, nSig
}
