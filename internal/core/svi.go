package core

import (
	"fmt"
	"math"

	"cpa/internal/answers"
	"cpa/internal/mat"
	"cpa/internal/mathx"
)

// FitStream trains the model online (paper §4.1, Algorithm 2): the dataset's
// arrival-ordered answers are consumed once, in mini-batches of
// Config.BatchSize, with natural-gradient updates under the learning rate
// ω_b = (1+b)^{-ForgettingRate}. Revealed truths are registered before
// streaming (test questions are known up front in the paper's setting).
//
// After the stream is consumed, the online-prediction posterior of §4.1 is
// prepared: one local pass refreshes the responsibilities and imputations
// from the final global parameters (no additional training epochs — each
// answer still contributes to the globals exactly once).
func (m *Model) FitStream(ds *answers.Dataset) (*TrainStats, error) {
	if ds == nil || ds.NumAnswers() == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrConfig)
	}
	if ds.NumItems != m.numItems || ds.NumWorkers != m.numWorkers || ds.NumLabels != m.numLabels {
		return nil, fmt.Errorf("%w: dataset dims %d/%d/%d do not match model %d/%d/%d", ErrConfig,
			ds.NumItems, ds.NumWorkers, ds.NumLabels, m.numItems, m.numWorkers, m.numLabels)
	}
	for i := 0; i < m.numItems; i++ {
		if truth, ok := ds.Revealed(i); ok {
			m.revealedTruth[i] = truth.Slice()
		}
	}
	stats := &TrainStats{}
	for _, b := range ds.Batches(m.cfg.BatchSize) {
		if err := m.PartialFit(b.Answers); err != nil {
			return nil, err
		}
		stats.Iterations++
		stats.Deltas = append(stats.Deltas, m.lastBatchDelta)
	}
	m.FinalizeOnline()
	return stats, nil
}

// batchAns is one validated, ingested answer of the current PartialFit
// round: dense ids plus the interned label set.
type batchAns struct {
	item, worker int
	set          int32
}

// batchGroups buckets a round's answers by key (worker or item) without a
// map: keys are collected and insertion-sorted, offsets built by counting,
// refs placed grouped-contiguously with batch order preserved inside each
// key — exactly the iteration order the per-key map-append used to produce.
// All storage is reused across rounds.
type batchGroups struct {
	keys []int
	off  []int32
	refs []ansRef
}

// group rebuilds the grouping from the round's answers. count must be a
// zeroed array indexable by every key; it is restored to zero before
// returning, touching only the round's keys.
func (g *batchGroups) group(tuples []batchAns, byWorker bool, count []int32) {
	g.keys = g.keys[:0]
	for _, t := range tuples {
		k := t.item
		if byWorker {
			k = t.worker
		}
		if count[k] == 0 {
			g.keys = append(g.keys, k)
		}
		count[k]++
	}
	sortInts(g.keys)
	if cap(g.off) < len(g.keys)+1 {
		g.off = make([]int32, len(g.keys)+1)
	}
	g.off = g.off[:len(g.keys)+1]
	g.off[0] = 0
	for j, k := range g.keys {
		g.off[j+1] = g.off[j] + count[k]
		count[k] = g.off[j] // becomes the write cursor for the placement pass
	}
	if cap(g.refs) < len(tuples) {
		g.refs = make([]ansRef, len(tuples))
	}
	g.refs = g.refs[:len(tuples)]
	for _, t := range tuples {
		k, other := t.item, t.worker
		if byWorker {
			k, other = t.worker, t.item
		}
		g.refs[count[k]] = ansRef{other: int32(other), set: t.set}
		count[k]++
	}
	for _, k := range g.keys {
		count[k] = 0
	}
}

// seg returns the grouped refs of the j-th key.
func (g *batchGroups) seg(j int) []ansRef { return g.refs[g.off[j]:g.off[j+1]] }

// PartialFit performs one stochastic variational inference step on a batch
// of newly arrived answers (paper Algorithm 2). The model accumulates the
// answers (needed for prediction and for scaling the stochastic gradients)
// but every update in this call costs O(batch), not O(data): local
// responsibilities move along batch-only evidence with the canonical
// geometric blend, and global parameters along the scaled natural gradient.
// Every score, suffstat, and blending kernel is shared with the batch path
// (see kernels.go); Algorithm 2 differs from Algorithm 1 only in the answer
// subsets, population scaling, and the learning rate ω. Steady-state rounds
// allocate only for genuine state growth (answer chunks, new label sets):
// grouping, blending, and reduction scratch live in the call work.
func (m *Model) PartialFit(batch []answers.Answer) error {
	if len(batch) == 0 {
		return nil
	}
	ws := m.trainScratch()
	defer m.releaseScratch()
	// Validate and ingest, interning each answer's label set.
	tuples := ws.batchAns[:0]
	for _, a := range batch {
		if a.Item < 0 || a.Item >= m.numItems || a.Worker < 0 || a.Worker >= m.numWorkers {
			return fmt.Errorf("%w: answer (%d,%d) out of range", ErrConfig, a.Item, a.Worker)
		}
		if a.Labels.IsEmpty() {
			return fmt.Errorf("%w: empty answer for item %d worker %d", ErrConfig, a.Item, a.Worker)
		}
		if mx := a.Labels.Max(); mx >= m.numLabels {
			return fmt.Errorf("%w: label %d out of range", ErrConfig, mx)
		}
		id := m.ingest(a)
		tuples = append(tuples, batchAns{item: a.Item, worker: a.Worker, set: id})
	}
	ws.batchAns = tuples
	ws.gWorkers.group(tuples, true, ws.groupCount)
	ws.gItems.group(tuples, false, ws.groupCount)
	workers, items := ws.gWorkers.keys, ws.gItems.keys
	m.extendVoted(&ws.gItems)
	// Record the touched items for the incremental snapshot publisher
	// (publish.go): dirty items accumulate until the next takeDirtySorted.
	for _, i := range items {
		if !m.dirtyFlags[i] {
			m.dirtyFlags[i] = true
			m.dirtyItems = append(m.dirtyItems, i)
		}
	}

	// Learning rate ω_b = (1+b)^{-r}.
	m.batchIndex++
	omega := math.Pow(1+float64(m.batchIndex), -m.cfg.ForgettingRate)

	// Serial sync point: the round's expectations, from the globals the
	// previous round left, then panels for the round's label sets only
	// (O(batch) panel work per round).
	m.refreshExpectations()
	m.ensureScorePanelsFor(tuples)

	// Local step, workers: stochastic Eq. 2 from batch evidence, scaled to
	// the worker's full answer volume, geometric blend with weight ω
	// (first-touch rows take the fresh estimate directly). The per-worker
	// and per-item loops run on the Algorithm 3 map shards — each writes
	// only its own responsibility row, blending through its own scratch row.
	sw, si := m.shardCount(len(workers)), m.shardCount(len(items))
	if cap(ws.shardDeltas) < sw+si {
		ws.shardDeltas = make([]float64, sw+si)
	}
	shardDeltas := ws.shardDeltas[:sw+si]
	mathx.Fill(shardDeltas, 0)
	if !m.cfg.DisableCommunities {
		mat.ParallelFor(len(workers), sw, func(shard, lo, hi int) {
			fresh := ws.freshK.Row(shard)
			old := ws.oldK.Row(shard)
			maxD := 0.0
			for wi := lo; wi < hi; wi++ {
				u := workers[wi]
				refs := ws.gWorkers.seg(wi)
				scale := float64(m.perWorker[u].Len()) / float64(len(refs))
				m.scoreKappaBatch(refs, scale, fresh)
				mathx.SoftmaxInPlace(fresh)
				row := m.kappa.Row(u)
				copy(old, row)
				first := m.perWorker[u].Len() == len(refs)
				blendRows(row, fresh, omega, first)
				if d := mathx.MaxAbsDiff(old, row); d > maxD {
					maxD = d
				}
			}
			shardDeltas[shard] = maxD
		})
	}
	// Imputed truth for the touched items under the current worker model.
	m.imputeTruth(items)
	// Local step, items: stochastic cluster responsibilities, same blending
	// (the paper's µ-space natural gradient, Eqs. 15–17, 20).
	if !m.cfg.DisableClusters {
		mat.ParallelFor(len(items), si, func(shard, lo, hi int) {
			fresh := ws.freshT.Row(shard)
			old := ws.oldT.Row(shard)
			maxD := 0.0
			for ii := lo; ii < hi; ii++ {
				i := items[ii]
				refs := ws.gItems.seg(ii)
				scale := float64(m.perItem[i].Len()) / float64(len(refs))
				m.scorePhiBatch(i, refs, scale, fresh)
				mathx.SoftmaxInPlace(fresh)
				row := m.phi.Row(i)
				copy(old, row)
				first := m.perItem[i].Len() == len(refs)
				blendRows(row, fresh, omega, first)
				if d := mathx.MaxAbsDiff(old, row); d > maxD {
					maxD = d
				}
			}
			shardDeltas[sw+shard] = maxD
		})
	}
	maxDelta := 0.0
	for _, d := range shardDeltas {
		if d > maxDelta {
			maxDelta = d
		}
	}

	// Global step: natural-gradient targets from the batch scaled to the
	// population seen so far, blended with weight ω (Eqs. 9–14, 18–19).
	m.sviGlobalStep(tuples, items, workers, omega)
	// Worker-model statistics from the batch, blended into the running
	// accumulators (ratios are scale-free, so raw batch counts suffice).
	m.sviWorkerModelStep(items, omega)
	m.lastBatchDelta = maxDelta
	m.fitted = true
	m.streamFitted = true
	m.maybeCompactWindow()
	return nil
}

// FinalizeOnline prepares the online-prediction posterior (§4.1): one local
// pass over the stored answers recomputes the responsibilities from the
// final global parameters, then the worker-model/imputation fixed point is
// iterated a few times (each a cheap O(answers) pass — no further global
// training). Safe to call repeatedly; a no-op before any PartialFit.
func (m *Model) FinalizeOnline() {
	if !m.streamFitted {
		return
	}
	defer m.releaseScratch()
	m.temp = 1
	m.refreshExpectations()
	m.updateLocal()
	for pass := 0; pass < 3; pass++ {
		m.updateReliability()
		m.imputeTruth(nil)
	}
}

// blendRows overwrites row with the geometric blend row^(1−ω)·fresh^ω
// (normalised), or with fresh directly on first touch.
func blendRows(row, fresh []float64, omega float64, first bool) {
	if first {
		copy(row, fresh)
		return
	}
	for j := range row {
		row[j] = math.Pow(math.Max(row[j], 1e-12), 1-omega) *
			math.Pow(math.Max(fresh[j], 1e-12), omega)
	}
	mathx.NormalizeInPlace(row)
}

// sviGlobalStep forms the intermediate estimates λ̂, ζ̂, ρ̂, υ̂ that the
// batch's sufficient statistics would imply if the whole stream looked like
// this batch (scale factors N/|batch|), then blends them into the current
// parameters with the learning rate: θ ← (1−ω)θ + ω·θ̂. This is the
// canonical SVI step of Hoffman et al. and coincides with the paper's
// natural-gradient Eqs. (9)–(14) aggregated per Eqs. (18)–(19). The
// suffstat and blending kernels are exactly the batch ones (kernels.go)
// with scale ≠ 1 and ω < 1.
func (m *Model) sviGlobalStep(batch []batchAns, items, workers []int, omega float64) {
	M, T := m.M, m.T

	// --- λ̂ from the batch answers (Eq. 9 / 18), in batch arrival order,
	// expanding each answer's interned set into its canonical members.
	scaleA := float64(m.numAns) / float64(len(batch))
	lhat := m.work.lambdaSuff
	mathx.Fill(lhat, 0)
	for _, ba := range batch {
		m.ws.canon = m.intern.AppendCanon(m.ws.canon[:0], ba.set)
		m.lambdaAnswerStat(lhat, ba.item, ba.worker, m.ws.canon)
	}
	applyDirichlet(m.lambda.Data(), lhat, m.cfg.GammaPrior, scaleA, omega)

	// --- ζ̂ from the batch items' (imputed) truth (Eq. 10 / 18).
	scaleI := float64(m.seenItems) / float64(len(items))
	zhat := m.work.zetaSuff
	mathx.Fill(zhat, 0)
	for _, i := range items {
		m.zetaItemStat(zhat, i)
	}
	applyDirichlet(m.zeta.Data(), zhat, m.cfg.EtaPrior, scaleI, omega)

	// --- ρ̂ from the batch workers (Eqs. 11–12 / 19).
	if M > 1 && !m.cfg.DisableCommunities {
		scaleU := float64(m.seenWorkers) / float64(len(workers))
		colSum := m.work.colSumM
		mathx.Fill(colSum, 0)
		m.kappa.ColSumsInto(colSum, workers)
		applySticks(m.rho1, m.rho2, colSum, m.cfg.Alpha, scaleU, omega)
	}

	// --- υ̂ from the batch items (Eqs. 13–14 / 19).
	if T > 1 && !m.cfg.DisableClusters {
		colSum := m.work.colSumT
		mathx.Fill(colSum, 0)
		m.phi.ColSumsInto(colSum, items)
		applySticks(m.ups1, m.ups2, colSum, m.cfg.Epsilon, scaleI, omega)
	}
}

// sviWorkerModelStep updates the community two-coin rates and reliabilities
// from the batch items only, through the same per-item counting kernels as
// the batch pass, blending the batch's community counts into running
// accumulators with weight ω (the rates are ratios, so no population
// scaling is needed). Per-worker raw counts accumulate across the stream —
// each answer contributes once. Agreement is κ-weighted per answer (the
// stream never revisits a worker's history, so per-worker means are
// unavailable; see workerAgreeStats for the batch weighting).
func (m *Model) sviWorkerModelStep(items []int, omega float64) {
	M, C, U := m.M, m.numLabels, m.numWorkers
	if m.runTP == nil {
		m.runTP = make([]float64, M)
		m.runTPD = make([]float64, M)
		m.runFP = make([]float64, M)
		m.runFPD = make([]float64, M)
		m.runAgree = make([]float64, M)
		m.runAgreeD = make([]float64, M)
		m.runPrevN = make([]float64, C)
		m.runPrevD = make([]float64, C)
	}
	m.refreshHardSig(items)
	w := m.work // borrowed by refreshHardSig
	coins := w.coinStats
	mathx.Fill(coins, 0)
	agree := w.agreeStats
	mathx.Fill(agree, 0)
	for _, i := range items {
		m.itemCoinStats(i, coins)
		m.itemAgreeStats(i, agree)
	}
	offTP, offTPD, offFP, offFPD, offPrevN, offPrevD, offTPU, offTPDU, offFPU, offFPDU := m.coinOffsets()
	// Exponential reliability discounting (Config.ReliabilityHalfLife): the
	// per-worker coin counts decay by 2^(-1/H) per round before the batch's
	// evidence lands, and the running community statistics — whose natural ω
	// blend weight vanishes as the stream grows — keep a blend weight of at
	// least 1−2^(-1/H). Both give reliability a half-life of H rounds; with
	// H = 0 this block is skipped and the accumulators never forget.
	omegaR := omega
	if h := m.cfg.ReliabilityHalfLife; h > 0 {
		decay := math.Exp2(-1 / h)
		if f := 1 - decay; omegaR < f {
			omegaR = f
		}
		for u := 0; u < U; u++ {
			m.tpNumU[u] *= decay
			m.tpDenU[u] *= decay
			m.fpNumU[u] *= decay
			m.fpDenU[u] *= decay
		}
	}
	for u := 0; u < U; u++ {
		m.tpNumU[u] += coins[offTPU+u]
		m.tpDenU[u] += coins[offTPDU+u]
		m.fpNumU[u] += coins[offFPU+u]
		m.fpDenU[u] += coins[offFPDU+u]
	}
	for mm := 0; mm < M; mm++ {
		m.runTP[mm] = (1-omegaR)*m.runTP[mm] + omegaR*coins[offTP+mm]
		m.runTPD[mm] = (1-omegaR)*m.runTPD[mm] + omegaR*coins[offTPD+mm]
		m.runFP[mm] = (1-omegaR)*m.runFP[mm] + omegaR*coins[offFP+mm]
		m.runFPD[mm] = (1-omegaR)*m.runFPD[mm] + omegaR*coins[offFPD+mm]
		m.runAgree[mm] = (1-omegaR)*m.runAgree[mm] + omegaR*agree[mm]
		m.runAgreeD[mm] = (1-omegaR)*m.runAgreeD[mm] + omegaR*agree[M+mm]
	}
	for c := 0; c < C; c++ {
		m.runPrevN[c] = (1-omegaR)*m.runPrevN[c] + omegaR*coins[offPrevN+c]
		m.runPrevD[c] = (1-omegaR)*m.runPrevD[c] + omegaR*coins[offPrevD+c]
		m.labelPrev[c] = (m.runPrevN[c] + 0.5) / (m.runPrevD[c] + 2)
	}
	m.deriveWorkerModel(m.runTP, m.runTPD, m.runFP, m.runFPD, m.runAgree, m.runAgreeD)
}

// sortInts is an insertion sort adequate for the short per-batch key lists;
// it avoids pulling package sort into a hot path with interface conversions.
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// extendVoted merges the round's newly voted labels into the touched items'
// voted-label lists, preserving existing imputed values. It relies on the
// voted-set invariant — votedSets[i] already contains every label of every
// previously ingested answer on i (rebuildVoted for batch loads, this
// function for every earlier streaming round, persistence for reloads) — so
// only the batch refs and the revealed truth need merging: O(batch words)
// per round by OR-ing the interned bitsets into one scratch set, with no
// per-item map and no walk of the item's answer history.
func (m *Model) extendVoted(g *batchGroups) {
	for j, i := range g.keys {
		m.extendVotedItem(i, g.seg(j))
	}
}

func (m *Model) extendVotedItem(i int, refs []ansRef) {
	cur := m.votedSets[i]
	s := &m.work.voted
	s.Clear()
	s.UnionWith(cur)
	for _, ar := range refs {
		s.UnionWith(m.intern.At(ar.set))
	}
	for _, c := range m.revealedTruth[i] {
		s.Add(c)
	}
	n := s.Len()
	oldVals := m.yhatVals[i]
	if n == len(oldVals) {
		return // nothing new voted: cur ⊆ s, so equal sizes mean equal sets
	}
	vals := make([]float64, n)
	// Carry existing imputations across: cur ⊆ s, so walking s's members in
	// ascending order meets cur's in ascending order too, and each old ŷ
	// moves from its rank in cur to its rank in s. New labels start at 0,
	// like the map version did.
	k, j := 0, 0
	s.Range(func(c int) bool {
		if cur.Contains(c) {
			vals[k] = oldVals[j]
			j++
		}
		k++
		return true
	})
	// Rebind, never mutate: clones may share the old set and ŷ.
	m.votedSets[i] = s.Compact()
	m.yhatVals[i] = vals
}
