package core

import (
	"fmt"
	"math"
	"sort"

	"cpa/internal/labelset"
	"cpa/internal/mat"
	"cpa/internal/mathx"
)

// Predict instantiates the deterministic assignment d : items → 2^labels
// (paper §3.4): for every item it maximises p(y_i, x_{U_i} | D, P) over
// label sets, greedily by default or exhaustively over a capped candidate
// universe with Config.ExhaustivePrediction. Prediction is independent per
// item and runs on the Algorithm 3 shards.
func (m *Model) Predict() ([]labelset.Set, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%w: Predict before Fit/FitStream", ErrState)
	}
	pred := make([]labelset.Set, m.numItems)
	// Posterior-mode (MAP) estimates ψ^MAP, φ^MAP of the Dirichlet
	// posteriors, shared read-only across shards, plus the per-set
	// likelihood panels Π_c ψ^MAP (built once per call, read-only in the
	// shards; nil entries fall back to the identical per-answer product).
	psiMAP := m.dirichletModes(m.lambda)
	phiMAP := m.dirichletModes(m.zeta)
	nbar := m.clusterTruthSizes()
	pp := m.buildProductPanels(psiMAP)
	m.parallelFor(m.numItems, func(lo, hi int) {
		sc := newPredictScratch(m)
		for i := lo; i < hi; i++ {
			pred[i] = m.predictItem(i, psiMAP, phiMAP, nbar, pp, sc)
		}
	})
	return pred, nil
}

// PredictItem predicts a single item with fresh scratch. Prefer Predict for
// bulk use.
func (m *Model) PredictItem(i int) (labelset.Set, error) {
	if !m.fitted {
		return labelset.Set{}, fmt.Errorf("%w: PredictItem before Fit/FitStream", ErrState)
	}
	if i < 0 || i >= m.numItems {
		return labelset.Set{}, fmt.Errorf("%w: item %d out of range", ErrConfig, i)
	}
	psiMAP := m.dirichletModes(m.lambda)
	phiMAP := m.dirichletModes(m.zeta)
	nbar := m.clusterTruthSizes()
	// No product panels for a single item: building the full per-set cache
	// would dwarf the one item's work, and the nil path is bit-identical.
	return m.predictItem(i, psiMAP, phiMAP, nbar, nil, newPredictScratch(m)), nil
}

// dirichletModes returns the row-wise MAP points of a matrix of Dirichlet
// posteriors (one C-dimensional factor per row) as a flat row-major slice,
// falling back to the mean when any concentration is below one (no
// interior mode).
func (m *Model) dirichletModes(params *mat.Dense) []float64 {
	return m.dirichletModesInto(params, nil)
}

// dirichletModesInto is the buffer-reusing form (the per-round snapshot
// publisher calls it once per publication).
func (m *Model) dirichletModesInto(params *mat.Dense, out []float64) []float64 {
	C := m.numLabels
	if cap(out) < params.Size() {
		out = make([]float64, params.Size())
	}
	out = out[:params.Size()]
	for r := 0; r < params.Rows(); r++ {
		row := params.Row(r)
		dst := out[r*C : (r+1)*C]
		sum := mathx.Sum(row)
		interior := sum > float64(C)
		if interior {
			for _, a := range row {
				if a < 1 {
					interior = false
					break
				}
			}
		}
		if interior {
			denom := sum - float64(C)
			for c, a := range row {
				dst[c] = (a - 1) / denom
			}
		} else {
			copy(dst, row)
			mathx.NormalizeInPlace(dst)
		}
	}
	return out
}

// clusterTruthSizes estimates n̄_t, the expected true-label-set size of each
// cluster, from the accumulated emission mass: Σ_c (ζ_tc − η) is the
// ϕ-weighted sum of imputed/observed truth masses in cluster t (DESIGN.md
// D3).
func (m *Model) clusterTruthSizes() []float64 {
	out := make([]float64, m.T)
	m.clusterTruthSizesInto(out)
	return out
}

// clusterTruthSizesInto is the allocation-free form used every iteration by
// imputeTruth (dst must have T entries; it doubles as the ϕ column-mass
// accumulator).
func (m *Model) clusterTruthSizesInto(dst []float64) {
	T, C := m.T, m.numLabels
	mat.Fill(dst, 0)
	m.phi.ColSumsInto(dst, nil)
	for t := 0; t < T; t++ {
		acc := m.zeta.RowSum(t) - float64(C)*m.cfg.EtaPrior
		v := 0.0
		if dst[t] > 1e-6 {
			v = acc / dst[t]
		}
		dst[t] = mathx.Clamp(v, 1, float64(C))
	}
}

// predictScratch holds the per-item working buffers of prediction.
type predictScratch struct {
	logW    []float64   // T: ln w_it (cluster posterior incl. answer evidence)
	runLogS []float64   // T: running ln S_t(y) during greedy
	trial   []float64   // T
	wt      []float64   // T: mixture weights in probability space
	delta   [][]float64 // per candidate: T-vector of per-cluster gains
	cand    []int
	yv      []float64    // per candidate: imputed truth expectation (0 for extras)
	used    []bool       // greedy-search committed flags
	seen    labelset.Set // candidate dedup bitset
	extras  []scoredCand // prior-driven candidate buffer
	active  []int        // communities of one answer's worker with κ ≥ 1e-10
}

type scoredCand struct {
	c int
	p float64
}

func newPredictScratch(m *Model) *predictScratch {
	return &predictScratch{
		logW:    make([]float64, m.T),
		runLogS: make([]float64, m.T),
		trial:   make([]float64, m.T),
		wt:      make([]float64, m.T),
		seen:    labelset.New(m.numLabels),
		active:  make([]int, 0, m.M),
	}
}

// predictItem implements the §3.4 instantiation for one item (DESIGN.md D3
// documents the multinomial→Bernoulli conversion of the set score). pp, when
// non-nil, supplies per-set likelihood panels over ψ^MAP so the community
// mixture per (answer, cluster) is a contiguous floored dot; answers without
// a panel recompute the product with identical float-operation order.
func (m *Model) predictItem(i int, psiMAP, phiMAP, nbar []float64, pp *prodCache, sc *predictScratch) labelset.Set {
	m.predictWeights(i, psiMAP, pp, sc)
	return m.instantiateItem(i, phiMAP, nbar, sc)
}

// predictWeights fills sc.logW with the normalised cluster posterior
// weights ln w_it = ln ϕ_it + Σ_{u∈U_i} ln Σ_m κ_um p(x_iu | ψ_tm^MAP).
// The loop is answer-major: each answer's panel, κ row and set of active
// communities are looked up once for all T clusters, while every
// accumulator still adds its terms in the same order (answers in index
// order, communities ascending), so the bits match a cluster-major loop.
func (m *Model) predictWeights(i int, psiMAP []float64, pp *prodCache, sc *predictScratch) {
	M, T, C := m.M, m.T, m.numLabels
	for t := 0; t < T; t++ {
		sc.logW[t] = math.Log(math.Max(m.phi.At(i, t), 1e-300))
	}
	ansL := &m.perItem[i]
	for s, sn := 0, ansL.segs(); s < sn; s++ {
		for _, ar := range ansL.seg(s) {
			kappaRow := m.kappa.Row(ar.other)
			act := sc.active[:0]
			for mm, km := range kappaRow {
				if km >= 1e-10 {
					act = append(act, mm)
				}
			}
			sc.active = act
			var panel []float64
			if pp != nil {
				panel = pp.panel(ar.set, T*M)
			}
			var xs []int
			if panel == nil {
				xs = m.intern.Canon(ar.set)
			}
			for t := 0; t < T; t++ {
				inner := 0.0
				if panel != nil {
					row := panel[t*M : t*M+M]
					for _, mm := range act {
						inner += kappaRow[mm] * row[mm]
					}
				} else {
					tBase := t * M * C
					for _, mm := range act {
						p := 1.0
						base := tBase + mm*C
						for _, c := range xs {
							v := psiMAP[base+c]
							if v < 1e-12 {
								v = 1e-12
							}
							p *= v
						}
						inner += kappaRow[mm] * p
					}
				}
				if inner < 1e-300 {
					inner = 1e-300
				}
				sc.logW[t] += math.Log(inner)
			}
		}
	}
	// Normalise for stability (constant shift does not change the argmax).
	shift := mathx.LogSumExp(sc.logW)
	for t := range sc.logW {
		sc.logW[t] -= shift
	}
}

// predictItemLocal is the incremental publisher's instantiation: cluster
// posterior weights come straight from the model's current responsibilities
// (ln w_it = ln ϕ_it — ϕ already folds the answer evidence through the D1
// update) instead of re-scoring the item's full answer history against
// ψ^MAP, so the per-item cost is independent of how many answers the item
// has accumulated. Caught-up (full) publications still use predictItem's
// full-evidence weights.
func (m *Model) predictItemLocal(i int, phiMAP, nbar []float64, sc *predictScratch) labelset.Set {
	for t := 0; t < m.T; t++ {
		sc.logW[t] = math.Log(math.Max(m.phi.At(i, t), 1e-300))
	}
	shift := mathx.LogSumExp(sc.logW)
	for t := range sc.logW {
		sc.logW[t] -= shift
	}
	return m.instantiateItem(i, phiMAP, nbar, sc)
}

// instantiateItem runs the shared tail of the §3.4 instantiation from the
// cluster weights prepared in sc.logW: candidate assembly, per-cluster
// inclusion deltas, and the greedy (or capped exhaustive) subset search.
func (m *Model) instantiateItem(i int, phiMAP, nbar []float64, sc *predictScratch) labelset.Set {
	T, C := m.T, m.numLabels

	// Candidate labels: every voted label plus cluster labels with
	// appreciable posterior-weighted inclusion probability (this is where
	// labels nobody proposed can still enter the consensus — R3).
	candidates := m.predictCandidates(i, phiMAP, nbar, sc)

	// Per-cluster per-label inclusion probability with hierarchical
	// shrinkage (DESIGN.md D3): the item's calibrated truth posterior ŷ_ic
	// shrunk toward the cluster prior max(n̄_t·φ_tc, labelPrev_c). ŷ is
	// already prior-informed (imputeTruth), so the blend weight rises
	// quickly with the item's answer count.
	nAns := float64(m.perItem[i].Len())
	voteWeight := (nAns + 1) / (nAns + 3)
	// Candidate k's imputed expectation: predictCandidates places the voted
	// labels first, in voted order, so the alignment is positional; the
	// prior-driven extras carry 0 (nobody voted them), as the old per-item
	// map defaulted.
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
		for k := range sc.delta {
			sc.delta[k] = make([]float64, T)
		}
	}
	sc.delta = sc.delta[:len(candidates)]
	for k := range sc.delta {
		if sc.delta[k] == nil {
			sc.delta[k] = make([]float64, T)
		}
	}
	// Candidate-major pass. runLogS_t = ln w_t + Σ_k ln(1−p_tk) adds the
	// candidates in order, as a cluster-major loop would, and δ_tk =
	// ln p_tk − ln(1−p_tk) is kept only for candidates the greedy search
	// can pick. The others are compacted away before the search: a
	// candidate below pickableP in every cluster has δ_tk ≤ ln(0.49/0.51)
	// ≈ −0.04 everywhere, so including it lowers the mixture score by at
	// least 0.04 at every greedy step and it never clears the step's
	// bestScore+1e-12 bar (DESIGN.md §8). The exhaustive search keeps every
	// candidate, because trimToCap ranks them all.
	copy(sc.runLogS, sc.logW)
	pk := sc.trial // free until the search starts
	live := 0
	for k, c := range candidates {
		// The slots of dropped candidates below k are free, so the gains
		// land in slot live ≤ k; d holds ln(1−p_tk) until k proves pickable.
		d := sc.delta[live]
		pickable := m.cfg.ExhaustivePrediction
		for t := 0; t < T; t++ {
			prior := math.Min(nbar[t]*phiMAP[t*C+c], 0.95)
			if m.labelPrev[c] > prior {
				prior = m.labelPrev[c]
			}
			p := mathx.Clamp(voteWeight*yv[k]+(1-voteWeight)*prior, 1e-6, 0.99)
			l1p := math.Log1p(-p)
			sc.runLogS[t] += l1p
			pk[t], d[t] = p, l1p
			if p >= pickableP {
				pickable = true
			}
		}
		if !pickable {
			continue
		}
		for t := 0; t < T; t++ {
			d[t] = math.Log(pk[t]) - d[t]
		}
		candidates[live] = c
		live++
	}
	candidates = candidates[:live]

	if m.cfg.ExhaustivePrediction {
		m.trimToCap(candidates, sc)
		return m.exhaustiveSearch(sc.cand, sc)
	}
	return m.greedySearch(candidates, sc)
}

// pickableP is the inclusion probability a candidate must reach in at least
// one cluster for the greedy search to consider it (see instantiateItem).
const pickableP = 0.49

// predictCandidates assembles the candidate label universe for an item:
// voted labels always; plus the labels whose mixture inclusion probability
// Σ_t W_t·φ̃_tc clears a small threshold (capped to keep the search bounded).
func (m *Model) predictCandidates(i int, phiMAP, nbar []float64, sc *predictScratch) []int {
	T, C := m.T, m.numLabels
	const inclusionThreshold = 0.2
	// Prior-driven (non-voted) candidates are capped by the item's evidence
	// volume: with almost no answers the cluster prior itself is built from
	// almost nothing, and flooding the search with speculative labels
	// destroys precision exactly where the paper's Fig. 3 demands
	// robustness.
	maxExtra := 4 * m.perItem[i].Len()
	if maxExtra > 16 {
		maxExtra = 16
	}
	if m.perItem[i].Len() < 2 {
		maxExtra = 0
	}
	sc.cand = sc.cand[:0]
	sc.seen.Clear()
	for _, c := range m.votedList[i] {
		sc.cand = append(sc.cand, c)
		sc.seen.Add(c)
	}
	// Mixture weights in probability space.
	wt := sc.wt
	for t := 0; t < T; t++ {
		wt[t] = math.Exp(sc.logW[t])
	}
	extras := sc.extras[:0]
	for t := 0; t < T; t++ {
		if wt[t] < 0.05 {
			continue
		}
		for c := 0; c < C; c++ {
			if sc.seen.Contains(c) {
				continue
			}
			p := wt[t] * mathx.Clamp(nbar[t]*phiMAP[t*C+c], 0, 0.95)
			if p > inclusionThreshold {
				extras = append(extras, scoredCand{c, p})
				sc.seen.Add(c)
			}
		}
	}
	sc.extras = extras
	sort.Slice(extras, func(a, b int) bool { return extras[a].p > extras[b].p })
	if len(extras) > maxExtra {
		extras = extras[:maxExtra]
	}
	for _, e := range extras {
		sc.cand = append(sc.cand, e.c)
	}
	return sc.cand
}

// greedySearch adds, at each step, the candidate label with the largest
// increase of the mixture score ln Σ_t exp(runLogS_t + δ_tc), stopping when
// no candidate increases it (§3.4's greedy approximation of the NP-hard
// argmax). Because the score is a mixture over clusters, committing to one
// label re-weights the clusters and changes later labels' gains — the label
// co-occurrence mechanism of requirement R3.
func (m *Model) greedySearch(candidates []int, sc *predictScratch) labelset.Set {
	out := labelset.New(m.numLabels)
	if cap(sc.used) < len(candidates) {
		sc.used = make([]bool, len(candidates))
	}
	used := sc.used[:len(candidates)]
	for k := range used {
		used[k] = false
	}
	current := mathx.LogSumExp(sc.runLogS)
	for {
		bestK, bestScore := -1, current
		for k := range candidates {
			if used[k] {
				continue
			}
			for t := range sc.trial {
				sc.trial[t] = sc.runLogS[t] + sc.delta[k][t]
			}
			if s := mathx.LogSumExp(sc.trial); s > bestScore+1e-12 {
				bestK, bestScore = k, s
			}
		}
		if bestK < 0 {
			break
		}
		used[bestK] = true
		out.Add(candidates[bestK])
		for t := range sc.runLogS {
			sc.runLogS[t] += sc.delta[bestK][t]
		}
		current = bestScore
	}
	return out
}

// trimToCap reduces the candidate universe to the ExhaustiveCap labels with
// the highest single-label mixture gain, reordering sc.cand and sc.delta in
// lock-step so exhaustiveSearch sees a consistent view.
func (m *Model) trimToCap(candidates []int, sc *predictScratch) {
	cap := m.cfg.ExhaustiveCap
	if len(candidates) <= cap {
		return
	}
	type ranked struct {
		idx  int
		gain float64
	}
	order := make([]ranked, len(candidates))
	for k := range candidates {
		for t := range sc.trial {
			sc.trial[t] = sc.runLogS[t] + sc.delta[k][t]
		}
		order[k] = ranked{idx: k, gain: mathx.LogSumExp(sc.trial)}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].gain > order[b].gain })
	newCand := make([]int, cap)
	newDelta := make([][]float64, cap)
	for j := 0; j < cap; j++ {
		newCand[j] = candidates[order[j].idx]
		newDelta[j] = sc.delta[order[j].idx]
	}
	sc.cand = newCand
	sc.delta = newDelta
}

// exhaustiveSearch scans all 2^k subsets of the candidate universe — the
// exact argmax the paper calls NP-hard, feasible only for small universes
// (used by the No-L discussion and the greedy-vs-exact ablation bench).
func (m *Model) exhaustiveSearch(candidates []int, sc *predictScratch) labelset.Set {
	k := len(candidates)
	bestMask := 0
	bestScore := math.Inf(-1)
	for mask := 0; mask < 1<<uint(k); mask++ {
		for t := range sc.trial {
			s := sc.runLogS[t]
			for b := 0; b < k; b++ {
				if mask&(1<<uint(b)) != 0 {
					s += sc.delta[b][t]
				}
			}
			sc.trial[t] = s
		}
		if s := mathx.LogSumExp(sc.trial); s > bestScore {
			bestMask, bestScore = mask, s
		}
	}
	out := labelset.New(m.numLabels)
	for b := 0; b < k; b++ {
		if bestMask&(1<<uint(b)) != 0 {
			out.Add(candidates[b])
		}
	}
	return out
}
