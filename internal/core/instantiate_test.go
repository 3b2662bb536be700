package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpa/internal/datasets"
	"cpa/internal/labelset"
	"cpa/internal/mathx"
)

// The referees below are the cluster-major, unpruned forms of the §3.4
// instantiation, kept verbatim so the production loops (answer-major,
// pruned) can be pinned to them bit for bit.

// predictWeightsReferee fills sc.logW cluster by cluster.
func (m *Model) predictWeightsReferee(i int, psiMAP []float64, pp *prodCache, sc *predictScratch) {
	M, T, C := m.M, m.T, m.numLabels
	ansL := &m.perItem[i]
	for t := 0; t < T; t++ {
		w := math.Log(math.Max(m.phi.At(i, t), 1e-300))
		for s, sn := 0, ansL.segs(); s < sn; s++ {
			for _, ar := range ansL.seg(s) {
				kappaRow := m.kappa.Row(ar.other)
				inner := 0.0
				var panel []float64
				if pp != nil {
					panel = pp.panel(ar.set, T*M)
				}
				if panel != nil {
					row := panel[t*M : t*M+M]
					for mm, km := range kappaRow {
						if km < 1e-10 {
							continue
						}
						inner += km * row[mm]
					}
				} else {
					xs := m.intern.Canon(ar.set)
					tBase := t * M * C
					for mm := 0; mm < M; mm++ {
						km := kappaRow[mm]
						if km < 1e-10 {
							continue
						}
						p := 1.0
						base := tBase + mm*C
						for _, c := range xs {
							v := psiMAP[base+c]
							if v < 1e-12 {
								v = 1e-12
							}
							p *= v
						}
						inner += km * p
					}
				}
				if inner < 1e-300 {
					inner = 1e-300
				}
				w += math.Log(inner)
			}
		}
		sc.logW[t] = w
	}
	shift := mathx.LogSumExp(sc.logW)
	for t := range sc.logW {
		sc.logW[t] -= shift
	}
}

// instantiateItemReferee runs the greedy search over every candidate, with
// the per-cluster gains computed cluster by cluster.
func (m *Model) instantiateItemReferee(i int, phiMAP, nbar []float64, sc *predictScratch) labelset.Set {
	T, C := m.T, m.numLabels
	candidates := m.predictCandidates(i, phiMAP, nbar, sc)
	nAns := float64(m.perItem[i].Len())
	voteWeight := (nAns + 1) / (nAns + 3)
	voted := m.votedList[i]
	yv := sc.yv[:0]
	for k := range candidates {
		if k < len(voted) {
			yv = append(yv, m.yhatVals[i][k])
		} else {
			yv = append(yv, 0)
		}
	}
	sc.yv = yv
	if cap(sc.delta) < len(candidates) {
		sc.delta = make([][]float64, len(candidates))
	}
	sc.delta = sc.delta[:len(candidates)]
	for k := range sc.delta {
		if sc.delta[k] == nil {
			sc.delta[k] = make([]float64, T)
		}
	}
	for t := 0; t < T; t++ {
		base := sc.logW[t]
		for k, c := range candidates {
			prior := math.Min(nbar[t]*phiMAP[t*C+c], 0.95)
			if m.labelPrev[c] > prior {
				prior = m.labelPrev[c]
			}
			p := mathx.Clamp(voteWeight*yv[k]+(1-voteWeight)*prior, 1e-6, 0.99)
			l1p := math.Log1p(-p)
			base += l1p
			sc.delta[k][t] = math.Log(p) - l1p
		}
		sc.runLogS[t] = base
	}
	return m.greedySearch(candidates, sc)
}

// pickableGain reports whether a candidate's per-cluster gains reach the
// gain of p = pickableP in some cluster (δ is increasing in p).
func pickableGain(d []float64) bool {
	for _, v := range d {
		if v >= math.Log(pickableP)-math.Log1p(-pickableP) {
			return true
		}
	}
	return false
}

// checkAgainstReferees compares, on every item of m, the production
// weights and instantiation with the referees. full selects the full
// publication's evidence weights (predictItem); otherwise the incremental
// publisher's ϕ weights (predictItemLocal).
func checkAgainstReferees(t *testing.T, what string, m *Model, full bool) (pruned int) {
	t.Helper()
	phiMAP := m.dirichletModes(m.zeta)
	nbar := m.clusterTruthSizes()
	var psiMAP []float64
	var pp *prodCache
	if full {
		psiMAP = m.dirichletModes(m.lambda)
		pp = m.buildProductPanels(psiMAP)
	}
	sc, ref := newPredictScratch(m), newPredictScratch(m)
	for i := 0; i < m.numItems; i++ {
		if full {
			m.predictWeights(i, psiMAP, pp, sc)
			m.predictWeightsReferee(i, psiMAP, pp, ref)
			sameBits(t, fmt.Sprintf("%s item %d: ln w", what, i), ref.logW, sc.logW)
		} else {
			for k := 0; k < m.T; k++ {
				sc.logW[k] = math.Log(math.Max(m.phi.At(i, k), 1e-300))
			}
			shift := mathx.LogSumExp(sc.logW)
			for k := range sc.logW {
				sc.logW[k] -= shift
			}
			copy(ref.logW, sc.logW)
		}
		got := m.instantiateItem(i, phiMAP, nbar, sc)
		want := m.instantiateItemReferee(i, phiMAP, nbar, ref)
		if !got.Equal(want) {
			t.Fatalf("%s item %d: pruned greedy picked %v, referee %v", what, i, got.Slice(), want.Slice())
		}
		// Same picks in the same order: the running scores must agree bit
		// for bit, and the kept candidates must be the referee's pickable
		// ones, in order, with bit-identical gains.
		sameBits(t, fmt.Sprintf("%s item %d: runLogS", what, i), ref.runLogS, sc.runLogS)
		live := 0
		for k, d := range ref.delta[:len(ref.cand)] {
			if !pickableGain(d) {
				pruned++
				continue
			}
			if sc.cand[live] != ref.cand[k] {
				t.Fatalf("%s item %d: kept candidate %d is label %d, referee %d", what, i, live, sc.cand[live], ref.cand[k])
			}
			sameBits(t, fmt.Sprintf("%s item %d: δ of label %d", what, i, ref.cand[k]), d, sc.delta[live])
			live++
		}
	}
	return pruned
}

// TestInstantiatePrunedMatchesReferee pins the pruned, answer-major §3.4
// instantiation to its referees on every item of every full and
// incremental publication of a topic-shaped and an image-shaped stream.
func TestInstantiatePrunedMatchesReferee(t *testing.T) {
	for _, tc := range []struct {
		profile string
		scale   float64
	}{{"topic", 0.2}, {"image", 0.08}} {
		t.Run(tc.profile, func(t *testing.T) {
			ds, _, err := datasets.Load(tc.profile, tc.scale, 13)
			if err != nil {
				t.Fatal(err)
			}
			ds = ds.Shuffled(rand.New(rand.NewSource(13)))
			cfg := Config{Seed: 13, BatchSize: 64, Parallelism: 2}
			model, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			pub := NewPublisher(model)
			rounds, dropped := 0, 0
			for r, b := range ds.Batches(cfg.BatchSize) {
				if err := model.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				full := r%4 == 3
				if _, _, err := pub.Publish(full); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("round %d", r)
				if full {
					// The publisher's clone holds the finalized posterior
					// the full publication instantiated from.
					dropped += checkAgainstReferees(t, what+" full", pub.clone, true)
				} else {
					// The incremental publication reads the live model.
					dropped += checkAgainstReferees(t, what+" incremental", model, false)
				}
				rounds++
			}
			if rounds < 12 {
				t.Fatalf("stream too short: %d rounds", rounds)
			}
			if dropped == 0 {
				t.Fatal("no candidate was ever pruned: the test does not exercise the pruning")
			}
		})
	}
}

// TestGreedyPruneBound checks the exactness argument behind the pruning on
// synthetic score tables: a candidate whose inclusion probability is below
// pickableP in every cluster never changes the greedy search's result. The
// tables draw p from [0.48, 0.52] (so candidates straddle the threshold,
// including p exactly at it), repeat gain vectors and scores to force exact
// ties, and scale the running scores up to |runLogS| = 1e5.
func TestGreedyPruneBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0.48, 0.485, math.Nextafter(pickableP, 0), pickableP, 0.495, 0.5, 0.51, 0.52}
	const C = 64
	m := &Model{numLabels: C}
	sawPruned, sawPicked := false, false
	for trial := 0; trial < 20000; trial++ {
		T := 1 + rng.Intn(6)
		K := 1 + rng.Intn(12)
		scale := []float64{1, 30, 1e3, 1e5}[rng.Intn(4)]
		runLogS := make([]float64, T)
		tied := rng.Intn(3) == 0
		for k := range runLogS {
			if tied && k > 0 {
				runLogS[k] = runLogS[0]
			} else {
				runLogS[k] = (2*rng.Float64() - 1) * scale
			}
		}
		cands := make([]int, K)
		deltas := make([][]float64, K)
		var keptC []int
		var keptD [][]float64
		for k := range deltas {
			cands[k] = rng.Intn(C)
			if k > 0 && rng.Intn(4) == 0 {
				deltas[k] = deltas[rng.Intn(k)] // exact tie with an earlier candidate
			} else {
				deltas[k] = make([]float64, T)
				for c := range deltas[k] {
					p := ps[rng.Intn(len(ps))]
					if rng.Intn(2) == 0 {
						p = 0.48 + 0.04*rng.Float64()
					}
					deltas[k][c] = math.Log(p) - math.Log1p(-p)
				}
			}
			if pickableGain(deltas[k]) {
				keptC = append(keptC, cands[k])
				keptD = append(keptD, deltas[k])
			} else {
				sawPruned = true
			}
		}
		search := func(cs []int, ds [][]float64) labelset.Set {
			sc := &predictScratch{
				runLogS: append([]float64(nil), runLogS...),
				trial:   make([]float64, T),
				delta:   ds,
			}
			return m.greedySearch(cs, sc)
		}
		want := search(cands, deltas)
		got := search(keptC, keptD)
		if !got.Equal(want) {
			t.Fatalf("trial %d: pruned search picked %v, full search %v (runLogS %v, deltas %v)",
				trial, got.Slice(), want.Slice(), runLogS, deltas)
		}
		if !want.IsEmpty() {
			sawPicked = true
		}
	}
	if !sawPruned || !sawPicked {
		t.Fatalf("tables did not exercise both sides: pruned=%v picked=%v", sawPruned, sawPicked)
	}
}
