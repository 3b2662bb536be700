package core

import (
	"fmt"
	"math"

	"cpa/internal/answers"
	"cpa/internal/mat"
	"cpa/internal/mathx"
)

// TrainStats reports the trajectory of a Fit or FitStream call.
type TrainStats struct {
	// Iterations actually run (VI) or batches consumed (SVI).
	Iterations int
	// Converged reports whether the parameter-delta criterion fired before
	// MaxIter (always false for SVI, which is single-pass by design).
	Converged bool
	// Deltas holds the max absolute responsibility change per iteration.
	Deltas []float64
	// DataLogLik traces the expected data log likelihood Σ ln p(x_iu) under
	// the mean posterior — a cheap ELBO surrogate used to monitor progress.
	DataLogLik []float64
}

// FinalDelta returns the last recorded delta, or +Inf when none.
func (s *TrainStats) FinalDelta() float64 {
	if len(s.Deltas) == 0 {
		return math.Inf(1)
	}
	return s.Deltas[len(s.Deltas)-1]
}

// Fit runs batch variational inference (paper Algorithm 1) to convergence on
// the dataset. It may be called repeatedly; each call re-loads the data and
// continues from the current posterior.
func (m *Model) Fit(ds *answers.Dataset) (*TrainStats, error) {
	if ds == nil || ds.NumAnswers() == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrConfig)
	}
	if err := m.loadDataset(ds); err != nil {
		return nil, err
	}
	ws := m.trainScratch()
	if ws.prevKappa == nil {
		ws.prevKappa, ws.prevPhi = mat.New(m.numWorkers, m.M), mat.New(m.numItems, m.T)
	}
	stats := &TrainStats{}

	// Bootstrap: impute truth from plain votes (uniform reliability), seed
	// the responsibilities from the data (DESIGN.md D6) on the first fit,
	// then fold them into the globals so the first local update sees a
	// symmetry-broken posterior.
	m.imputeTruth(nil)
	if !m.fitted {
		m.seedFromData()
	}
	m.updateGlobal()
	m.updateReliability()
	m.imputeTruth(nil)
	m.refreshExpectations()

	prevKappa, prevPhi := ws.prevKappa, ws.prevPhi
	prevKappa.CopyFrom(m.kappa)
	prevPhi.CopyFrom(m.phi)
	for iter := 0; iter < m.cfg.MaxIter; iter++ {
		// Deterministic annealing: keep the local responsibilities soft for
		// the first iterations so assignments can move off the seed before
		// the posterior hardens (DESIGN.md D6).
		m.temp = math.Max(1, 4*math.Pow(0.5, float64(iter)))
		m.updateLocal()
		m.updateGlobal()
		m.updateReliability()
		m.imputeTruth(nil)
		m.refreshExpectations()

		delta := math.Max(m.kappa.MaxAbsDiff(prevKappa), m.phi.MaxAbsDiff(prevPhi))
		stats.Deltas = append(stats.Deltas, delta)
		stats.DataLogLik = append(stats.DataLogLik, m.dataLogLik())
		stats.Iterations = iter + 1
		prevKappa.CopyFrom(m.kappa)
		prevPhi.CopyFrom(m.phi)
		if delta < m.cfg.Tol && m.temp <= 1 {
			stats.Converged = true
			break
		}
	}
	m.fitted = true
	return stats, nil
}

// updateLocal performs the coordinate-ascent updates of the local variables:
// worker community responsibilities κ (Eq. 2) and item cluster
// responsibilities ϕ (Eq. 3 extended per DESIGN.md D1). With
// Config.Parallelism > 1 the per-worker and per-item updates run on the
// Algorithm 3 map shards (each shard writes only its own responsibility
// rows).
func (m *Model) updateLocal() {
	// Serial sync point: bring the per-set score panels up to date with the
	// current expectations before the shards start reading them.
	m.ensureScorePanels()
	if !m.cfg.DisableCommunities {
		m.parallelFor(m.numWorkers, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				m.updateKappaRow(u)
			}
		})
	}
	if !m.cfg.DisableClusters {
		m.parallelFor(m.numItems, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				m.updatePhiRow(i)
			}
		})
	}
}

// updateKappaRow recomputes q(z_u) for one worker (Eq. 2) through the
// shared scoring kernel — the batch case is the stochastic update with the
// full answer list and scale 1.
func (m *Model) updateKappaRow(u int) {
	row := m.kappa.Row(u)
	m.scoreKappaList(&m.perWorker[u], 1, row)
	if m.temp > 1 {
		mathx.Scale(row, 1/m.temp)
	}
	mathx.SoftmaxInPlace(row)
}

// updatePhiRow recomputes q(l_i) for one item through the shared scoring
// kernel (Eq. 3 + Appendix C answer evidence, DESIGN.md D1/D2).
func (m *Model) updatePhiRow(i int) {
	row := m.phi.Row(i)
	m.scorePhiList(i, 1, row)
	if m.temp > 1 {
		mathx.Scale(row, 1/m.temp)
	}
	mathx.SoftmaxInPlace(row)
}

// updateGlobal recomputes the global variational parameters: the stick
// posteriors ρ, υ (Eqs. 4–5) and the Dirichlet posteriors λ, ζ (Eqs. 6–7,
// with Eq. 7 extended by imputed truth per DESIGN.md D2). Each is the
// ω = 1, scale = 1 case of the shared blending kernels the SVI path uses.
func (m *Model) updateGlobal() {
	m.updateSticks()
	m.updateLambda()
	m.updateZeta()
}

// updateSticks implements Eqs. (4) and (5).
func (m *Model) updateSticks() {
	ws := m.trainScratch()
	if m.M > 1 {
		colSum := ws.colSumM
		mat.Fill(colSum, 0)
		m.kappa.ColSumsInto(colSum, nil)
		applySticks(m.rho1, m.rho2, colSum, m.cfg.Alpha, 1, 1)
	}
	if m.T > 1 {
		colSum := ws.colSumT
		mat.Fill(colSum, 0)
		m.phi.ColSumsInto(colSum, nil)
		applySticks(m.ups1, m.ups2, colSum, m.cfg.Epsilon, 1, 1)
	}
}

// updateLambda implements Eq. (6): λ_tmc = γ + Σ_i ϕ_it Σ_u κ_um x_iuc.
// Fixed item blocks accumulate the per-answer suffstats into private
// buffers that are reduced in block order, so results are bit-identical
// for every Parallelism (mat.Sharded).
func (m *Model) updateLambda() {
	suff := m.trainScratch().lambdaSuff
	m.accLambda.Accumulate(suff, 0, len(suff), m.numItems, m.shardCount(m.numItems),
		func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				l := &m.perItem[i]
				for s, n := 0, l.segs(); s < n; s++ {
					for _, ar := range l.seg(s) {
						m.lambdaAnswerStat(buf, i, ar.other, m.intern.Canon(ar.set))
					}
				}
			}
		})
	applyDirichlet(m.lambda.Data(), suff, m.cfg.GammaPrior, 1, 1)
}

// updateZeta implements Eq. (7) with imputed truth: ζ_tc = η + Σ_i ϕ_it ·
// E[y_ic] (DESIGN.md D2), sharded over items like updateLambda.
func (m *Model) updateZeta() {
	suff := m.trainScratch().zetaSuff
	m.accZeta.Accumulate(suff, 0, len(suff), m.numItems, m.shardCount(m.numItems),
		func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				m.zetaItemStat(buf, i)
			}
		})
	applyDirichlet(m.zeta.Data(), suff, m.cfg.EtaPrior, 1, 1)
}

// updateReliability derives community reliabilities rel_m from the mean
// agreement (Jaccard) between the answers of a community's workers and the
// hardened current consensus ŷ, pooled over the community (requirement R1:
// assessing workers through their community is robust where per-worker data
// is sparse), together with the community/worker two-coin rates against the
// same consensus (requirement R2). Both passes run on the Algorithm 3
// shards with the shard-invariant block-order reduction. Reliabilities are
// min-max normalised and floored, then folded into per-worker weights
// w_u = Σ_m κ_um rel_m (DESIGN.md D2). The mutual reinforcement — better
// consensus → sharper reliabilities → better consensus — is the iterative
// mechanism the paper's §1 describes.
func (m *Model) updateReliability() {
	M, C, U := m.M, m.numLabels, m.numWorkers
	m.refreshHardSig(nil)

	// Community agreement, sharded over workers (each worker contributes
	// its mean agreement once, κ-weighted).
	agree := m.ws.agreeStats
	m.accAgree.Accumulate(agree, 0, 2*M, U, m.shardCount(U),
		func(buf []float64, lo, hi int) {
			for u := lo; u < hi; u++ {
				m.workerAgreeStats(u, buf)
			}
		})

	// Two-coin and prevalence counts, sharded over items.
	coins := m.ws.coinStats
	m.accCoin.Accumulate(coins, 0, m.coinLen(), m.numItems, m.shardCount(m.numItems),
		func(buf []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				m.itemCoinStats(i, buf)
			}
		})

	// Unpack: the batch pass replaces the per-worker raw counts wholesale.
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

// deriveWorkerModel turns the accumulated two-coin counts into the worker
// model. Community rates come from the κ-weighted accumulators; each
// worker's rates are its own raw counts shrunk toward its community's rates
// with shrinkageObs pseudo-observations — the community acts as a prior
// (requirement R1: robust for sparse workers) while prolific workers are
// judged mostly on their own record. Per-worker vote/miss log-odds weights
// and min-max-normalised reliabilities follow.
func (m *Model) deriveWorkerModel(tpNum, tpDen, fpNum, fpDen, agreeNum, agreeDen []float64) {
	const shrinkageObs = 8.0
	M := m.M
	for mm := 0; mm < M; mm++ {
		tpr := (tpNum[mm] + 1) / (tpDen[mm] + 2)
		fpr := (fpNum[mm] + 1) / (fpDen[mm] + 2)
		m.tprM[mm] = mathx.Clamp(tpr, 0.05, 0.98)
		m.fprM[mm] = mathx.Clamp(fpr, 0.02, 0.95)
	}
	for u := 0; u < m.numWorkers; u++ {
		kappaRow := m.kappa.Row(u)
		commTPR, commFPR := 0.0, 0.0
		for mm, k := range kappaRow {
			if k < respFloor {
				continue
			}
			commTPR += k * m.tprM[mm]
			commFPR += k * m.fprM[mm]
		}
		tprU := mathx.Clamp((m.tpNumU[u]+shrinkageObs*commTPR)/(m.tpDenU[u]+shrinkageObs), 0.05, 0.98)
		fprU := mathx.Clamp((m.fpNumU[u]+shrinkageObs*commFPR)/(m.fpDenU[u]+shrinkageObs), 0.02, 0.95)
		m.voteLW[u] = math.Log(tprU / fprU)
		m.missLW[u] = math.Log((1 - tprU) / (1 - fprU))
	}
	minRel, maxRel := math.Inf(1), math.Inf(-1)
	for mm := 0; mm < M; mm++ {
		if agreeDen[mm] > 1e-9 {
			m.relm[mm] = agreeNum[mm] / agreeDen[mm]
		} else {
			m.relm[mm] = math.NaN() // empty community: resolved below
		}
		if !math.IsNaN(m.relm[mm]) {
			if m.relm[mm] < minRel {
				minRel = m.relm[mm]
			}
			if m.relm[mm] > maxRel {
				maxRel = m.relm[mm]
			}
		}
	}
	if !(maxRel > minRel) {
		mathx.Fill(m.relm, 1)
	} else {
		span := maxRel - minRel
		for mm := range m.relm {
			if math.IsNaN(m.relm[mm]) {
				m.relm[mm] = 0.5 // neutral weight for empty communities
				continue
			}
			m.relm[mm] = math.Max(0.05, (m.relm[mm]-minRel)/span)
		}
	}
	for u := 0; u < m.numWorkers; u++ {
		m.workerRelW[u] = mathx.Dot(m.kappa.Row(u), m.relm)
	}
	m.haveRates = true
}

// imputeTruth recomputes the imputed truth expectations ŷ_ic for items
// without revealed truth (DESIGN.md D2). Before the first worker-model pass
// it uses reliability-weighted vote frequencies (bootstrap); afterwards it
// computes a calibrated per-label posterior: a two-coin log-odds vote with
// the per-worker community rates, around a prior drawn from the item's
// cluster emissions — the channel through which label co-occurrence
// dependencies flow into the consensus (requirement R3). When items is nil
// every item is refreshed on the Algorithm 3 shards (each item's ŷ is
// independent); otherwise only the listed items are, serially.
func (m *Model) imputeTruth(items []int) {
	m.imputePrep()
	if items == nil {
		m.parallelFor(m.numItems, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				m.imputeItem(i)
			}
		})
		return
	}
	for _, i := range items {
		m.imputeItem(i)
	}
}

// imputePrep refreshes the shared imputation inputs (the posterior-mean
// emissions ws.phiMean and the expected cluster truth-set sizes ws.nbar)
// from the current global parameters. Split from imputeTruth so the
// incremental publisher can freeze these inputs against the live ϕ before
// refreshing individual items (publish.go): each imputeItem call is then a
// pure per-item function of the prepared state.
//
// It also tabulates, label-major, each cluster's clamped prior
// clamp(n̄_t·φ̄_tc, 0.02, 0.90), which every item voting label c mixes, and
// caches per label the clamped prevalence floor and its log-odds: most
// voted labels' priors end on that floor, and imputeItem reuses the
// log-odds whenever its prior is bitwise equal to the cached input.
func (m *Model) imputePrep() {
	if !m.haveRates {
		return
	}
	T := m.T
	phiMean, nbar, tab := m.ws.phiMean, m.ws.nbar, m.ws.imputeTab
	phiMean.CopyFrom(m.zeta)
	for t := 0; t < T; t++ {
		phiMean.NormalizeRow(t)
	}
	m.clusterTruthSizesInto(nbar)
	for t := 0; t < T; t++ {
		for c, v := range phiMean.Row(t) {
			tab[c*T+t] = mathx.Clamp(nbar[t]*v, 0.02, 0.90)
		}
	}
	for c, lp := range m.labelPrev {
		p := mathx.Clamp(lp, 0.05, 0.90)
		m.ws.prevClamp[c] = p
		m.ws.prevLogOdd[c] = math.Log(p) - math.Log1p(-p)
	}
}

// imputeItem refreshes one item's ŷ from the inputs prepared by imputePrep.
// It reads only the item's own state (ϕ row, votes, answers) plus shared
// read-only inputs, so calls on distinct items are independent.
func (m *Model) imputeItem(i int) {
	voted := m.votedList[i]
	vals := m.yhatVals[i]
	if truth := m.revealedTruth[i]; truth != nil {
		// Revealed items carry exact expectations.
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
		// Literal Eq. 7 ablation: unobserved truth contributes nothing
		// anywhere — demonstrating why grounding is required (D2).
		for k := range vals {
			vals[k] = 0
		}
		return
	}
	l := &m.perItem[i]
	if !m.haveRates {
		// Bootstrap: reliability-weighted vote share.
		for k := range vals {
			vals[k] = 0
		}
		denom := 0.0
		for s, sn := 0, l.segs(); s < sn; s++ {
			for _, ar := range l.seg(s) {
				w := m.workerRelW[ar.other]
				denom += w
				// Both slices are sorted: advance a cursor instead of a
				// binary search per label.
				k := 0
				for _, c := range m.intern.Canon(ar.set) {
					for voted[k] < c {
						k++
					}
					vals[k] += w
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
	// Calibrated path: prior log-odds combining the cluster-mixture
	// prior (label co-occurrence, R3) with the per-label empirical
	// prevalence (the class prior): clusters lift co-occurring labels
	// where the clustering is informative, prevalence separates
	// commonly-true labels from incidental votes everywhere else.
	T := m.T
	phiRow := m.phi.Row(i)
	expert := m.expertCooc != nil
	for k, c := range voted {
		prior := 0.0
		for t, cp := range m.ws.imputeTab[c*T : c*T+T] {
			pt := phiRow[t]
			if pt < 1e-6 {
				continue
			}
			prior += pt * cp
		}
		if lp := m.labelPrev[c]; prior < lp {
			prior = lp
		}
		if expert {
			// §6 extension: expert conditional probabilities floor the
			// prior of labels implied by currently-believed ones.
			prior = math.Max(prior, 0.9*m.expertPriorFloor(i, c))
		}
		prior = mathx.Clamp(prior, 0.05, 0.90)
		var logOdds float64
		if math.Float64bits(prior) == math.Float64bits(m.ws.prevClamp[c]) {
			logOdds = m.ws.prevLogOdd[c]
		} else {
			logOdds = math.Log(prior) - math.Log1p(-prior)
		}
		if !expert {
			// vals holds the log-odds until the answer-major pass below.
			vals[k] = logOdds
			continue
		}
		// The expert floor of later labels reads this label's fresh ŷ, so
		// the expert path finishes each label before starting the next.
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
	if !expert {
		// Two-coin votes, answer-major: each answer's sorted labels are
		// merged against the sorted voted list once, and every label still
		// adds its terms in answer order.
		for s, sn := 0, l.segs(); s < sn; s++ {
			for _, ar := range l.seg(s) {
				vote, miss := m.voteLW[ar.other], m.missLW[ar.other]
				xs := m.intern.Canon(ar.set)
				j := 0
				for k, c := range voted {
					for j < len(xs) && xs[j] < c {
						j++
					}
					if j < len(xs) && xs[j] == c {
						vals[k] += vote
					} else {
						vals[k] += miss
					}
				}
			}
		}
		// ŷ = 1/(1 + e^−clamp(logOdds)), with the exponentials in one row.
		for k, v := range vals {
			vals[k] = -mathx.Clamp(v, -30, 30)
		}
		mathx.ExpRow(vals, vals)
		for k, e := range vals {
			vals[k] = 1 / (1 + e)
		}
		return
	}
	// §6 extension, second stage: propagate belief along expert
	// implications — "include label b whenever label a has been assigned"
	// (the paper's §2.1 motivating rule). One pass over ordered pairs of
	// voted labels.
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

// dataLogLik computes the ELBO surrogate Σ_{(i,u)} ln Σ_t ϕ_it Σ_m κ_um
// p(x_iu | ψ̄_tm) under the posterior-mean confusion vectors — cheap,
// monotone-ish during training, used by tests and diagnostics. Reused label
// sets read their likelihood p(x | ψ̄_tm) from a product panel built once
// per call and reduce it with FlooredDot; sets without a panel run the
// fused gather-prod kernel over a transposed copy of the cube. Both paths
// use the canonical 4-lane reduction with the same κ floor and per-factor
// clamp, so panel vs fallback (and panels disabled vs enabled) move zero
// bits, on every backend.
func (m *Model) dataLogLik() float64 {
	M, T, C := m.M, m.T, m.numLabels
	if m.ws.psiMean == nil {
		m.ws.psiMean = mat.New(T*M, C)
	}
	psiMean := m.ws.psiMean
	psiMean.CopyFrom(m.lambda)
	for r := 0; r < T*M; r++ {
		psiMean.NormalizeRow(r)
	}
	psi := psiMean.Data()
	pp := m.buildProductPanels(psi)
	var total [1]float64
	m.accLogLik.Accumulate(total[:], 0, 1, m.numItems, m.shardCount(m.numItems),
		func(buf []float64, lo, hi int) {
			sum := 0.0
			for i := lo; i < hi; i++ {
				phiRow := m.phi.Row(i)
				l := &m.perItem[i]
				for s, sn := 0, l.segs(); s < sn; s++ {
					for _, ar := range l.seg(s) {
						kappaRow := m.kappa.Row(ar.other)
						var panel []float64
						if pp != nil {
							panel = pp.panel(ar.set, T*M)
						}
						lik := 0.0
						if panel != nil {
							for t := 0; t < T; t++ {
								pt := phiRow[t]
								if pt < 1e-10 {
									continue
								}
								row := panel[t*M : t*M+M]
								inner := 0.0
								for mm, km := range kappaRow {
									if km < 1e-10 {
										continue
									}
									inner += km * row[mm]
								}
								lik += pt * inner
							}
						} else {
							xs := m.intern.Canon(ar.set)
							for t := 0; t < T; t++ {
								pt := phiRow[t]
								if pt < 1e-10 {
									continue
								}
								inner := 0.0
								tBase := t * M * C
								for mm := 0; mm < M; mm++ {
									km := kappaRow[mm]
									if km < 1e-10 {
										continue
									}
									p := 1.0
									base := tBase + mm*C
									for _, c := range xs {
										v := psi[base+c]
										if v < 1e-12 {
											v = 1e-12
										}
										p *= v
									}
									inner += km * p
								}
								lik += pt * inner
							}
						}
						if lik < 1e-300 {
							lik = 1e-300
						}
						sum += math.Log(lik)
					}
				}
			}
			buf[0] += sum
		})
	return total[0]
}
