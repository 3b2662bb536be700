package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/labelset"
)

// The legacy scalar forms of the full publication's reliability and view
// stages, kept verbatim so the production kernels — rank masks over the
// call's item tables, interleaved coin chains, cluster-wide prediction
// weights over m-major panels — can be pinned to them bit for bit
// (TestPublishFullMatchesReferee). With finalizeOnlineReferee and
// imputeItemReferee (impute_test.go) they make up the legacy publication.

// hardSigItemReferee recomputes item i's hardened signature from its
// voted list expanded afresh.
func (m *Model) hardSigItemReferee(w *callWork, i int) {
	vals := m.yhatVals[i]
	voted := m.votedSets[i].Slice()
	sig := &w.sigSet[i]
	sig.Clear()
	cnt, bestK, bestV := 0, -1, 0.0
	for k, v := range vals {
		if v > 0.5 {
			cnt++
			sig.Add(voted[k])
		}
		if v > bestV {
			bestK, bestV = k, v
		}
	}
	if cnt == 0 && bestK >= 0 {
		cnt = 1
		sig.Add(voted[bestK])
	}
	w.sigLen[i] = cnt
}

// addN adds v to buf[idx] n times through a register.
func addN(buf []float64, idx int, v float64, n int) {
	s := buf[idx]
	for r := 0; r < n; r++ {
		s += v
	}
	buf[idx] = s
}

// itemCoinStatsReferee counts item i's two-coin statistics with a bitset
// intersection per answer and one addN chain per slot.
func (m *Model) itemCoinStatsReferee(i int, buf []float64) {
	offTP, offTPD, offFP, offFPD, offPrevN, offPrevD, offTPU, offTPDU, offFPU, offFPDU := m.coinOffsets()
	vals := m.yhatVals[i]
	for k, c := range m.votedSets[i].Slice() {
		buf[offPrevN+c] += vals[k]
		buf[offPrevD+c]++
	}
	sig := m.work.sigSet[i]
	nPos := m.work.sigLen[i]
	nNeg := len(vals) - nPos
	m.perItem[i].each(func(ar ansRef) {
		u := int(ar.other)
		ans := m.intern.At(ar.set)
		nTP := ans.IntersectLen(sig)
		nFP := ans.Len() - nTP
		buf[offTPDU+u] += float64(nPos)
		buf[offTPU+u] += float64(nTP)
		buf[offFPDU+u] += float64(nNeg)
		buf[offFPU+u] += float64(nFP)
		for mm, kw := range m.kappa.Row(u) {
			if kw < respFloor {
				continue
			}
			addN(buf, offTPD+mm, kw, nPos)
			addN(buf, offTP+mm, kw, nTP)
			addN(buf, offFPD+mm, kw, nNeg)
			addN(buf, offFP+mm, kw, nFP)
		}
	})
}

// updateReliabilityReferee is updateReliability over the legacy signature
// and coin kernels, with the same block-ordered reductions.
func (m *Model) updateReliabilityReferee() {
	M, C, U := m.M, m.numLabels, m.numWorkers
	w := m.borrowWork()
	if w.sigSet == nil {
		w.sigSet = labelset.NewMany(m.numItems, m.numLabels)
	}
	for i := 0; i < m.numItems; i++ {
		m.hardSigItemReferee(w, i)
	}
	agree := w.agreeStats
	m.accAgree.Accumulate(agree, 0, 2*M, U, m.shardCount(U),
		func(buf []float64, lo, hi int) {
			for u := lo; u < hi; u++ {
				m.workerAgreeStats(u, buf)
			}
		})
	coins := w.coinStats
	m.accCoin.Accumulate(coins, 0, m.coinLen(), m.numItems, m.shardCount(m.numItems),
		func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				m.itemCoinStatsReferee(i, buf)
			}
		})
	offTP, offTPD, offFP, offFPD, offPrevN, offPrevD, offTPU, offTPDU, offFPU, offFPDU := m.coinOffsets()
	copy(m.tpNumU, coins[offTPU:offTPU+U])
	copy(m.tpDenU, coins[offTPDU:offTPDU+U])
	copy(m.fpNumU, coins[offFPU:offFPU+U])
	copy(m.fpDenU, coins[offFPDU:offFPDU+U])
	for c := 0; c < C; c++ {
		m.labelPrev[c] = (coins[offPrevN+c] + 0.5) / (coins[offPrevD+c] + 2)
	}
	m.deriveWorkerModel(coins[offTP:offTP+M], coins[offTPD:offTPD+M],
		coins[offFP:offFP+M], coins[offFPD:offFPD+M], agree[:M], agree[M:])
}

// consensusViewReferee is ConsensusView with the cluster-major weights of
// predictWeightsReferee (the row-major ψ^MAP product for sets without a
// panel) and every entry's candidates read from its voted bitset.
func (m *Model) consensusViewReferee() *ConsensusView {
	defer m.releaseScratch()
	psiMAP := m.dirichletModes(m.lambda)
	pp := m.buildProductPanels(m.transposeCube(psiMAP))
	prior := m.clusterPriors()
	m.expandItems(nil) // predictCandidates reads the voted lists from the call's tables
	sc := newPredictScratch(m)
	view := &ConsensusView{Items: make([]ItemConsensus, m.numItems), Stats: m.Stats()}
	for i := range view.Items {
		m.predictWeightsReferee(i, psiMAP, pp, sc)
		it := ItemConsensus{Item: i, Labels: m.instantiateItem(i, prior, sc).Slice()}
		if vals := m.yhatVals[i]; len(vals) > 0 {
			it.Candidates = make([]Candidate, len(vals))
			for k, c := range m.votedSets[i].Slice() {
				it.Candidates[k] = Candidate{Label: c, Confidence: vals[k]}
			}
		}
		view.Items[i] = it
	}
	return view
}

// wideStream builds a crowd whose items vote more than 64, and some more
// than 128, distinct labels: 24 items over 160 labels, each item's answers
// drawn from its own pool of 150 labels, so the rank masks span up to
// three words.
func wideStream(seed int64) *answers.Dataset {
	const items, workers, labels = 24, 60, 160
	rng := rand.New(rand.NewSource(seed))
	ds, err := answers.NewDataset("wide", items, workers, labels)
	if err != nil {
		panic(err)
	}
	for i := 0; i < items; i++ {
		pool := rng.Perm(labels)[:150]
		for _, u := range rng.Perm(workers)[:45] {
			var s labelset.Set
			for n := 2 + rng.Intn(9); n > 0; n-- {
				s.Add(pool[rng.Intn(len(pool))])
			}
			if err := ds.Add(i, u, s); err != nil {
				panic(err)
			}
		}
	}
	return ds.Shuffled(rng)
}

// TestPublishFullMatchesReferee pins the full publication — the §4.1
// finalize and the §3.4 view — to the legacy scalar path on a Clone
// (finalizeOnlineReferee, then consensusViewReferee), bit for bit, every
// third round of streams that cover: items voting more than 64 and more
// than 128 labels, revealed truth, an expert co-occurrence prior, the
// score and product panels disabled, and AnswerWindow compactions.
func TestPublishFullMatchesReferee(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ds       func(t *testing.T) *answers.Dataset
		cfg      Config
		reveal   bool
		expert   bool
		noPanels bool
	}{
		{name: "wide", ds: func(*testing.T) *answers.Dataset { return wideStream(9) }, cfg: Config{Seed: 9, BatchSize: 48, Parallelism: 2}},
		{name: "image/revealed+expert", ds: func(t *testing.T) *answers.Dataset { return loadShuffled(t, "image", 0.08, 13) },
			cfg: Config{Seed: 13, BatchSize: 64, Parallelism: 2}, reveal: true, expert: true},
		{name: "wide/panels-disabled", ds: func(*testing.T) *answers.Dataset { return wideStream(10) }, cfg: Config{Seed: 10, BatchSize: 48}, noPanels: true},
		{name: "image/panels-disabled", ds: func(t *testing.T) *answers.Dataset { return loadShuffled(t, "image", 0.08, 14) },
			cfg: Config{Seed: 14, BatchSize: 64}, noPanels: true},
		{name: "topic/window", ds: func(t *testing.T) *answers.Dataset { return loadShuffled(t, "topic", 0.2, 15) },
			cfg: Config{Seed: 15, BatchSize: 64, AnswerWindow: 300, Parallelism: 2}, reveal: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds(t)
			m, err := NewModel(tc.cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			m.panels.disabled = tc.noPanels
			if tc.reveal {
				for i := 0; i < ds.NumItems; i += 5 {
					if truth, ok := ds.Truth(i); ok {
						m.revealedTruth[i] = truth.Slice()
					}
				}
			}
			if tc.expert {
				chainExpert(t, m)
			}
			pub := NewPublisher(m)
			checked, compactions, widest := 0, 0, 0
			for r, b := range ds.Batches(tc.cfg.BatchSize) {
				intern := m.intern
				if err := m.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				if m.intern != intern {
					compactions++
				}
				if r%3 != 2 {
					continue
				}
				got, _, err := pub.Publish(true)
				if err != nil {
					t.Fatal(err)
				}
				ref := m.Clone()
				ref.finalizeOnlineReferee()
				sameView(t, r, ref.consensusViewReferee(), got)
				for _, vals := range m.yhatVals {
					widest = max(widest, len(vals))
				}
				checked++
			}
			if checked < 4 {
				t.Fatalf("stream too short: %d publications checked", checked)
			}
			if tc.cfg.AnswerWindow > 0 && compactions < 2 {
				t.Fatalf("AnswerWindow compacted %d times, want at least 2", compactions)
			}
			if tc.name == "wide" && widest <= 128 {
				t.Fatalf("widest voted list %d labels, want more than 128", widest)
			}
			t.Logf("%d publications, %d compactions, widest voted list %d labels", checked, compactions, widest)
		})
	}
}

// TestImputeMatchesRefereeOnWideItems pins imputeItem to its legacy
// referee item by item on items voting more than 64 and 128 labels, with
// and without revealed truth and an expert prior, and on an image-shaped
// stream. Each round is checked twice: as fitted, and with the prevalence
// floor lifted (labelPrev zeroed), because on these small crowds almost
// every prior ends on the floor and the cluster-mixture sum would
// otherwise go unchecked.
func TestImputeMatchesRefereeOnWideItems(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ds     func(t *testing.T) *answers.Dataset
		expert bool
	}{
		{"wide", func(*testing.T) *answers.Dataset { return wideStream(11) }, false},
		{"wide/expert", func(*testing.T) *answers.Dataset { return wideStream(11) }, true},
		{"image", func(t *testing.T) *answers.Dataset { return loadShuffled(t, "image", 0.08, 12) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds(t)
			m, err := NewModel(Config{Seed: 11, BatchSize: 48}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			m.revealedTruth[3] = ds.Answers()[0].Labels.Slice()
			if tc.expert {
				chainExpert(t, m)
			}
			for r, b := range ds.Batches(48) {
				if err := m.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				checkImputeItems(t, fmt.Sprintf("round %d", r), m)
				saved := append([]float64(nil), m.labelPrev...)
				clear(m.labelPrev)
				checkImputeItems(t, fmt.Sprintf("round %d, no prevalence floor", r), m)
				copy(m.labelPrev, saved)
			}
		})
	}
}
