package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpa/internal/datasets"
	"cpa/internal/mathx"
)

// imputeItemReferee is the legacy imputation, kept verbatim: the voted
// list expanded from its bitset, each answer's labels tested with
// Intern.Contains — label-major, one rescan of the item's answers per
// label on the calibrated path — and every log-odds and sigmoid computed
// afresh. The production imputeItem, which reuses the prevalence-floor
// log-odds, reads the answers as rank masks, accumulates votes answer-major
// with one mathx.AddSelect per answer and takes the sigmoid's exponentials
// in one ExpRow, is pinned to it bit for bit on every path: revealed
// truth, ground truth only, the bootstrap vote share and the calibrated
// posterior, with and without an expert prior.
func (m *Model) imputeItemReferee(i int) {
	voted := m.votedSets[i].Slice()
	vals := m.yhatVals[i]
	l := &m.perItem[i]
	if truth := m.revealedTruth[i]; truth != nil {
		for k, c := range voted {
			vals[k] = 0
			for _, tc := range truth {
				if tc == c {
					vals[k] = 1
					break
				}
			}
		}
		return
	}
	if m.cfg.GroundTruthOnly {
		for k := range vals {
			vals[k] = 0
		}
		return
	}
	if !m.haveRates {
		for k := range vals {
			vals[k] = 0
		}
		denom := 0.0
		for s, sn := 0, l.segs(); s < sn; s++ {
			for _, ar := range l.seg(s) {
				w := m.workerRelW[ar.other]
				denom += w
				for k, c := range voted {
					if m.intern.Contains(ar.set, c) {
						vals[k] += w
					}
				}
			}
		}
		if denom > 0 {
			inv := 1 / denom
			for k := range vals {
				vals[k] *= inv
			}
		}
		return
	}
	T := m.T
	phiMean, nbar := m.work.phiMean, m.work.nbar
	phiRow := m.phi.Row(i)
	for k, c := range voted {
		prior := 0.0
		for t := 0; t < T; t++ {
			pt := phiRow[t]
			if pt < 1e-6 {
				continue
			}
			prior += pt * mathx.Clamp(nbar[t]*phiMean.At(t, c), 0.02, 0.90)
		}
		if lp := m.labelPrev[c]; prior < lp {
			prior = lp
		}
		if m.expertCooc != nil {
			prior = math.Max(prior, 0.9*m.expertPriorFloor(voted, vals, c))
		}
		prior = mathx.Clamp(prior, 0.05, 0.90)
		logOdds := math.Log(prior) - math.Log1p(-prior)
		for s, sn := 0, l.segs(); s < sn; s++ {
			for _, ar := range l.seg(s) {
				if m.intern.Contains(ar.set, c) {
					logOdds += m.voteLW[ar.other]
				} else {
					logOdds += m.missLW[ar.other]
				}
			}
		}
		vals[k] = 1 / (1 + math.Exp(-mathx.Clamp(logOdds, -30, 30)))
	}
	if m.expertCooc != nil {
		for k, a := range voted {
			if vals[k] <= 0.5 {
				continue
			}
			row := m.expertCooc.Row(a)
			for j, b := range voted {
				if implied := row[b] * vals[k]; implied > vals[j] {
					vals[j] = implied
				}
			}
		}
	}
}

// finalizeOnlineReferee is FinalizeOnline with every reliability and
// imputation pass run through the legacy referees (updateReliabilityReferee,
// imputeItemReferee).
func (m *Model) finalizeOnlineReferee() {
	defer m.releaseScratch()
	m.temp = 1
	m.refreshExpectations()
	m.updateLocal()
	for pass := 0; pass < 3; pass++ {
		m.updateReliabilityReferee()
		m.imputePrep()
		for i := 0; i < m.numItems; i++ {
			m.imputeItemReferee(i)
		}
	}
}

// checkImputeItems compares imputeItem with the referee on every item of m
// from the same prepared state, restoring ŷ after each item.
func checkImputeItems(t *testing.T, what string, m *Model) {
	t.Helper()
	defer m.releaseScratch()
	m.imputePrep()
	m.expandItems(nil)
	for i := 0; i < m.numItems; i++ {
		saved := append([]float64(nil), m.yhatVals[i]...)
		m.imputeItem(i)
		got := append([]float64(nil), m.yhatVals[i]...)
		copy(m.yhatVals[i], saved)
		m.imputeItemReferee(i)
		sameBits(t, fmt.Sprintf("%s item %d: ŷ", what, i), m.yhatVals[i], got)
		copy(m.yhatVals[i], saved)
	}
}

// TestImputeMatchesReferee pins the production imputation to the
// label-major referee: item by item from the live state of every round of
// a topic- and an image-shaped stream, and as whole FinalizeOnline runs
// (three reliability + imputation passes) on clones, with and without an
// expert co-occurrence prior.
func TestImputeMatchesReferee(t *testing.T) {
	for _, tc := range []struct {
		profile string
		scale   float64
		expert  bool
	}{{"topic", 0.2, false}, {"image", 0.08, false}, {"topic", 0.2, true}, {"image", 0.08, true}} {
		t.Run(fmt.Sprintf("%s/expert=%v", tc.profile, tc.expert), func(t *testing.T) {
			ds, _, err := datasets.Load(tc.profile, tc.scale, 17)
			if err != nil {
				t.Fatal(err)
			}
			ds = ds.Shuffled(rand.New(rand.NewSource(17)))
			cfg := Config{Seed: 17, BatchSize: 64, Parallelism: 2}
			model, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			if tc.expert {
				C := ds.NumLabels
				rng := rand.New(rand.NewSource(5))
				cooc := make([][]float64, C)
				for a := range cooc {
					cooc[a] = make([]float64, C)
					for k := 0; k < 2; k++ {
						cooc[a][rng.Intn(C)] = 0.5 + 0.5*rng.Float64()
					}
				}
				if err := model.SetExpertCooccurrence(cooc); err != nil {
					t.Fatal(err)
				}
			}
			rounds := 0
			for r, b := range ds.Batches(cfg.BatchSize) {
				if err := model.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("round %d", r)
				checkImputeItems(t, what, model)
				if r%4 == 3 {
					got, want := model.Clone(), model.Clone()
					got.FinalizeOnline()
					want.finalizeOnlineReferee()
					for i := range want.yhatVals {
						sameBits(t, fmt.Sprintf("%s finalize item %d: ŷ", what, i), want.yhatVals[i], got.yhatVals[i])
					}
				}
				rounds++
			}
			if rounds < 12 {
				t.Fatalf("stream too short: %d rounds", rounds)
			}
		})
	}
}
