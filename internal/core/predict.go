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
	defer m.releaseScratch()
	return m.predictAll(), nil
}

// predictAll instantiates every item and leaves the call work held, so a
// caller can read the items' expanded voted lists after it. The inputs
// shared read-only across the shards are the posterior-mode (MAP)
// estimates ψ^MAP, φ^MAP of the Dirichlet posteriors — ψ^MAP as the
// transposed cube (transposeCube) — the cluster priors, and the per-set
// likelihood panels Π_c ψ^MAP (built once per call; sets without a panel
// take the identical product from the transposed cube).
func (m *Model) predictAll() []labelset.Set {
	pred := make([]labelset.Set, m.numItems)
	prior := m.clusterPriors()
	cubeT := m.transposeCube(m.dirichletModes(m.lambda))
	m.expandItems(nil)
	pp := m.buildProductPanels(cubeT)
	m.parallelFor(m.numItems, func(lo, hi int) {
		sc := newPredictScratch(m)
		for i := lo; i < hi; i++ {
			pred[i] = m.predictItem(i, prior, pp, cubeT, sc)
		}
	})
	return pred
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
	prior := m.clusterPriors()
	defer m.releaseScratch()
	cubeT := m.transposeCube(m.dirichletModes(m.lambda))
	m.expandItems([]int{i})
	// No product panels for a single item: building the full per-set cache
	// would dwarf the one item's work, and the nil path is bit-identical.
	return m.predictItem(i, prior, nil, cubeT, newPredictScratch(m)), nil
}

// clusterPriors builds the §3.4 cluster-prior table in the call's work
// (see clusterPriorsInto), borrowing it first if the model holds none. The
// table is read-only while the shards instantiate and lives until the call
// (Predict, PredictItem, the incremental refresh) gives its work back, so
// those calls must not run concurrently on one model.
func (m *Model) clusterPriors() []float64 {
	w := m.borrowWork()
	w.phiMAP = m.dirichletModesInto(m.zeta, w.phiMAP)
	m.clusterTruthSizesInto(w.nbar)
	w.prior = m.clusterPriorsInto(w.phiMAP, w.nbar, w.prior)
	return w.prior
}

// clusterPriorsInto fills the label-major C×T table prior[c·T+t] =
// min(n̄_t·φ^MAP_tc, 0.95), the capped cluster prior both predictCandidates
// and instantiateItem read, once per prediction call instead of once per
// (item, candidate, cluster). instantiateItem floors it at labelPrev_c;
// predictCandidates needs the unfloored value, so the floor stays at the
// use site.
func (m *Model) clusterPriorsInto(phiMAP, nbar, dst []float64) []float64 {
	T, C := m.T, m.numLabels
	if cap(dst) < T*C {
		dst = make([]float64, T*C)
	}
	dst = dst[:T*C]
	for t := 0; t < T; t++ {
		for c := 0; c < C; c++ {
			dst[c*T+t] = math.Min(nbar[t]*phiMAP[t*C+c], 0.95)
		}
	}
	return dst
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

// clusterTruthSizesInto estimates n̄_t, the expected true-label-set size of
// each cluster, from the accumulated emission mass: Σ_c (ζ_tc − η) is the
// ϕ-weighted sum of imputed/observed truth masses in cluster t (DESIGN.md
// D3). dst must have T entries; it doubles as the ϕ column-mass
// accumulator.
func (m *Model) clusterTruthSizesInto(dst []float64) {
	T, C := m.T, m.numLabels
	mathx.Fill(dst, 0)
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
	inner   []float64   // T: one answer's community mixtures, then their logs
	prod    []float64   // T: one community's p(x | ψ^MAP_tm) for a set without a panel
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
	canon   []int        // one answer's members (AppendCanon)
}

type scoredCand struct {
	c int
	p float64
}

func newPredictScratch(m *Model) *predictScratch {
	T, M, C := m.T, m.M, m.numLabels
	rows := make([]float64, 6*T) // one allocation for the six T-rows
	ints := make([]int, M+C)     // and one for active and canon
	return &predictScratch{
		logW:    rows[0*T : 1*T : 1*T],
		inner:   rows[1*T : 2*T : 2*T],
		runLogS: rows[2*T : 3*T : 3*T],
		trial:   rows[3*T : 4*T : 4*T],
		wt:      rows[4*T : 5*T : 5*T],
		prod:    rows[5*T : 6*T : 6*T],
		seen:    labelset.New(m.numLabels),
		active:  ints[:0:M],
		canon:   ints[M:M],
	}
}

// predictItem implements the §3.4 instantiation for one item (DESIGN.md D3
// documents the multinomial→Bernoulli conversion of the set score). pp,
// when non-nil, supplies per-set likelihood panels over ψ^MAP; answers
// without a panel recompute the products from cubeT, the transposed ψ^MAP,
// with identical float-operation order. prior is the clusterPriorsInto
// table.
func (m *Model) predictItem(i int, prior []float64, pp *prodCache, cubeT []float64, sc *predictScratch) labelset.Set {
	m.predictWeights(i, pp, cubeT, sc)
	return m.instantiateItem(i, prior, sc)
}

// predictWeights fills sc.logW with the normalised cluster posterior
// weights ln w_it = ln ϕ_it + Σ_{u∈U_i} ln Σ_m κ_um p(x_iu | ψ_tm^MAP).
// The loop is answer-major and, within an answer, community-major: each
// answer's panel, κ row and set of active communities are looked up once,
// every active community adds its T likelihoods in one mathx.Axpy over the
// m-major panel's contiguous T-run (or over the product of its members'
// T-runs of cubeT, for a set without a panel), and the T inner sums go
// through one mathx.LogRow. Every accumulator still adds its terms in the
// same order (answers in index order, communities ascending), so the bits
// match a cluster-major loop.
func (m *Model) predictWeights(i int, pp *prodCache, cubeT []float64, sc *predictScratch) {
	M, T := m.M, m.T
	TM := T * M
	for t := 0; t < T; t++ {
		sc.logW[t] = math.Log(math.Max(m.phi.At(i, t), 1e-300))
	}
	inner := sc.inner
	ansL := &m.perItem[i]
	for s, sn := 0, ansL.segs(); s < sn; s++ {
		for _, ar := range ansL.seg(s) {
			kappaRow := m.kappa.Row(int(ar.other))
			act := sc.active[:0]
			for mm, km := range kappaRow {
				if km >= 1e-10 {
					act = append(act, mm)
				}
			}
			sc.active = act
			var panel []float64
			if pp != nil {
				panel = pp.panel(ar.set, TM)
			}
			clear(inner)
			if panel != nil {
				for _, mm := range act {
					mathx.Axpy(kappaRow[mm], panel[mm*T:mm*T+T], inner)
				}
			} else {
				sc.canon = m.intern.AppendCanon(sc.canon[:0], ar.set)
				for _, mm := range act {
					mathx.Fill(sc.prod, 1)
					for _, c := range sc.canon {
						b := c*TM + mm*T
						mathx.MulFloor(sc.prod, cubeT[b:b+T], 1e-12)
					}
					mathx.Axpy(kappaRow[mm], sc.prod, inner)
				}
			}
			for t, v := range inner {
				if v < 1e-300 {
					inner[t] = 1e-300
				}
			}
			mathx.LogRow(inner, inner)
			for t, l := range inner {
				sc.logW[t] += l
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
func (m *Model) predictItemLocal(i int, prior []float64, sc *predictScratch) labelset.Set {
	for t := 0; t < m.T; t++ {
		sc.logW[t] = math.Log(math.Max(m.phi.At(i, t), 1e-300))
	}
	shift := mathx.LogSumExp(sc.logW)
	for t := range sc.logW {
		sc.logW[t] -= shift
	}
	return m.instantiateItem(i, prior, sc)
}

// instantiateItem runs the shared tail of the §3.4 instantiation from the
// cluster weights prepared in sc.logW and the clusterPriorsInto table:
// candidate assembly, per-cluster inclusion deltas, and the greedy (or
// capped exhaustive) subset search.
func (m *Model) instantiateItem(i int, prior []float64, sc *predictScratch) labelset.Set {
	T := m.T

	// Candidate labels: every voted label plus cluster labels with
	// appreciable posterior-weighted inclusion probability (this is where
	// labels nobody proposed can still enter the consensus — R3).
	candidates := m.predictCandidates(i, prior, sc)

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
	vals := m.yhatVals[i]
	yv := sc.yv[:0]
	for k := range candidates {
		if k < len(vals) {
			yv = append(yv, vals[k])
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
	//
	// Most clusters hold no mass (n̄_t = 1) and fall back to labelPrev_c, so
	// p_tk repeats along a candidate's row: every cluster whose prior is at
	// or below the floor blends the floor itself, so its p is the
	// candidate's pFloor, whose logarithms are taken once per candidate,
	// and any other cluster whose p is bitwise equal to the previous
	// cluster's reuses that cluster's logarithms (DESIGN.md §8).
	copy(sc.runLogS, sc.logW)
	pk := sc.trial // free until the search starts
	live := 0
	for k, c := range candidates {
		// The slots of dropped candidates below k are free, so the gains
		// land in slot live ≤ k; d holds ln(1−p_tk) until k proves pickable.
		d := sc.delta[live]
		pickable := m.cfg.ExhaustivePrediction
		row := prior[c*T : c*T+T]
		lp := m.labelPrev[c]
		pFloor := mathx.Clamp(voteWeight*yv[k]+(1-voteWeight)*lp, 1e-6, 0.99)
		l1Floor, haveFloor := 0.0, false // ln(1−pFloor), taken at first use
		for t, pr := range row {
			var p, l1p float64
			if lp >= pr {
				if !haveFloor {
					l1Floor, haveFloor = math.Log1p(-pFloor), true
				}
				p, l1p = pFloor, l1Floor
			} else {
				p = mathx.Clamp(voteWeight*yv[k]+(1-voteWeight)*pr, 1e-6, 0.99)
				if t > 0 && math.Float64bits(p) == math.Float64bits(pk[t-1]) {
					l1p = d[t-1]
				} else {
					l1p = math.Log1p(-p)
				}
			}
			sc.runLogS[t] += l1p
			pk[t], d[t] = p, l1p
			if p >= pickableP {
				pickable = true
			}
		}
		if !pickable {
			continue
		}
		dFloor, haveDFloor := 0.0, false // ln pFloor − ln(1−pFloor)
		for t := 0; t < T; t++ {
			switch {
			case haveFloor && math.Float64bits(pk[t]) == math.Float64bits(pFloor):
				if !haveDFloor {
					dFloor, haveDFloor = math.Log(pFloor)-l1Floor, true
				}
				d[t] = dFloor
			case t > 0 && math.Float64bits(pk[t]) == math.Float64bits(pk[t-1]):
				d[t] = d[t-1]
			default:
				d[t] = math.Log(pk[t]) - d[t]
			}
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
func (m *Model) predictCandidates(i int, prior []float64, sc *predictScratch) []int {
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
	sc.cand = append(sc.cand[:0], m.votedList(i)...)
	sc.seen.Clear()
	sc.seen.UnionWith(m.votedSets[i])
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
			// Clamp(x, 0, 0.95) from the table's min(x, 0.95).
			v := prior[c*T+t]
			if v < 0 {
				v = 0
			}
			p := wt[t] * v
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
