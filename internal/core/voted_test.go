package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cpa/internal/labelset"
)

// TestExtendVotedCarriesYhatByRank grows items' voted sets round after
// round — over three bitset words, with and without revealed truth — and
// requires each old ŷ to land at its label's rank in the grown set, new
// labels to start at 0, and the old set and ŷ to stay as they were (rebind,
// never mutate), against a label-keyed reference.
func TestExtendVotedCarriesYhatByRank(t *testing.T) {
	const items, labels = 4, 150
	m, err := NewModel(Config{Seed: 3}, items, 2, labels)
	if err != nil {
		t.Fatal(err)
	}
	m.trainScratch()
	defer m.releaseScratch()
	rng := rand.New(rand.NewSource(3))
	ref := make([]map[int]float64, items)
	for i := range ref {
		ref[i] = map[int]float64{}
	}
	// Items 1 and 3 carry revealed truth, which joins their voted sets.
	m.revealedTruth[1] = []int{7, 140}
	m.revealedTruth[3] = []int{64}
	grown := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < items; i++ {
			var refs []ansRef
			for a := rng.Intn(3); a > 0; a-- {
				var s labelset.Set
				for n := rng.Intn(3); n > 0; n-- {
					// Mostly low labels, so later rounds often add nothing.
					c := rng.Intn(12)
					if rng.Intn(4) == 0 {
						c = rng.Intn(labels)
					}
					s.Add(c)
					ref[i][c] += 0
				}
				refs = append(refs, ansRef{set: m.intern.Intern(s)})
			}
			for _, c := range m.revealedTruth[i] {
				ref[i][c] += 0
			}
			oldSet, oldVals := m.votedSets[i], m.yhatVals[i]
			oldMembers, oldCopy := oldSet.Slice(), slices.Clone(oldVals)
			m.extendVotedItem(i, refs)
			want := make([]int, 0, len(ref[i]))
			for c := range ref[i] {
				want = append(want, c)
			}
			sort.Ints(want)
			if got := m.votedSets[i].Slice(); !slices.Equal(got, want) {
				t.Fatalf("round %d item %d: voted %v, want %v", round, i, got, want)
			}
			vals := m.yhatVals[i]
			if len(vals) != len(want) {
				t.Fatalf("round %d item %d: %d ŷ entries for %d voted labels", round, i, len(vals), len(want))
			}
			for k, c := range want {
				if vals[k] != ref[i][c] {
					t.Fatalf("round %d item %d: ŷ for label %d (rank %d) = %v, want %v", round, i, c, k, vals[k], ref[i][c])
				}
			}
			if !slices.Equal(oldSet.Slice(), oldMembers) || !slices.Equal(oldVals, oldCopy) {
				t.Fatalf("round %d item %d: the old voted set or ŷ was mutated", round, i)
			}
			if len(want) > len(oldMembers) {
				grown++
			} else if len(vals) > 0 && &vals[0] != &oldVals[0] {
				t.Fatalf("round %d item %d: ŷ rebound with nothing new voted", round, i)
			}
			// Stand in for imputation: fresh distinct values each round.
			for k, c := range want {
				vals[k] = float64(round*1000+i*200+c) + 0.5
				ref[i][c] = vals[k]
			}
		}
	}
	if grown < 20 {
		t.Fatalf("only %d voted-set growths", grown)
	}
}

// TestLoadRejectsMalformedVotedLists re-encodes a saved model with one
// voted list broken at a time and requires Load to refuse each with
// ErrConfig: a list must be strictly ascending labels in [0, numLabels),
// aligned with its ŷ, or the next publication indexes past the labels.
func TestLoadRejectsMalformedVotedLists(t *testing.T) {
	ds := loadShuffled(t, "topic", 0.08, 5)
	m, err := NewModel(Config{Seed: 5, BatchSize: 64}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitStream(ds); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&st); err != nil {
		t.Fatal(err)
	}
	item := -1
	for i, voted := range st.VotedList {
		if len(voted) >= 2 {
			item = i
			break
		}
	}
	if item < 0 {
		t.Fatal("no item with two voted labels")
	}
	reload := func(mutate func(voted []int, vals []float64) ([]int, []float64)) error {
		t.Helper()
		cp := st
		cp.VotedList = slices.Clone(st.VotedList)
		cp.YhatVals = slices.Clone(st.YhatVals)
		cp.VotedList[item], cp.YhatVals[item] = mutate(slices.Clone(st.VotedList[item]), slices.Clone(st.YhatVals[item]))
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&cp); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&b)
		return err
	}
	if err := reload(func(v []int, y []float64) ([]int, []float64) { return v, y }); err != nil {
		t.Fatalf("unchanged state: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(voted []int, vals []float64) ([]int, []float64)
	}{
		{"out of range", func(v []int, y []float64) ([]int, []float64) { return append(v, 999), append(y, 0.5) }},
		{"numLabels", func(v []int, y []float64) ([]int, []float64) { return append(v, ds.NumLabels), append(y, 0.5) }},
		{"negative", func(v []int, y []float64) ([]int, []float64) { return append([]int{-1}, v...), append(y, 0.5) }},
		{"descending", func(v []int, y []float64) ([]int, []float64) { v[0], v[1] = v[1], v[0]; return v, y }},
		{"repeated", func(v []int, y []float64) ([]int, []float64) { return append(v[:1], v...), append(y, 0.5) }},
		{"ŷ too short", func(v []int, y []float64) ([]int, []float64) { return v, y[:len(y)-1] }},
	} {
		if err := reload(tc.mutate); !errors.Is(err, ErrConfig) {
			t.Errorf("%s voted list: Load returned %v, want ErrConfig", tc.name, err)
		}
	}
}
