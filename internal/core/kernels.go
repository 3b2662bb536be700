package core

import (
	"cpa/internal/labelset"
	"cpa/internal/mat"
	"cpa/internal/mathx"
)

// This file is the shared sufficient-statistics layer of the two inference
// engines. Batch coordinate ascent (Algorithm 1) and stochastic variational
// inference (Algorithm 2) compute the *same* per-row scores and per-answer
// statistics; they differ only in which answers they see (all vs. a
// mini-batch), how the data term is scaled to the population, and how the
// resulting target is blended into the current parameter (ω = 1 recovers
// the exact coordinate-ascent update). Every kernel here is allocation-free
// and safe to run from the Algorithm 3 map shards as long as shards write
// disjoint rows or private buffers.

// respFloor is the responsibility mass below which a mixture component's
// contribution is skipped in the hot loops; weightFloor the same for
// products of responsibilities.
const (
	respFloor   = 1e-8
	weightFloor = 1e-10
)

// scoreKappaList fills dst (length M) with the unnormalised log-posterior
// of Eq. 2 for one worker from its full chunked answer list (the batch
// case, scale 1, or the finalize pass):
//
//	dst_m = E[ln π_m] + scale · Σ_refs Σ_t ϕ_it E[ln p(x_iu | ψ_tm)]
func (m *Model) scoreKappaList(l *ansList, scale float64, dst []float64) {
	copy(dst, m.elogPi)
	for s, n := 0, l.segs(); s < n; s++ {
		m.scoreKappaRefs(l.seg(s), scale, dst)
	}
}

// scoreKappaBatch is the SVI form: the worker's mini-batch answer slice
// with the population scale |answers_u| / |batch_u|.
func (m *Model) scoreKappaBatch(refs []ansRef, scale float64, dst []float64) {
	copy(dst, m.elogPi)
	m.scoreKappaRefs(refs, scale, dst)
}

// scoreKappaRefs accumulates the data term of Eq. 2 for one contiguous
// answer segment into dst (no init — callers seed dst with E[ln π]). With a
// cached score panel the inner loop is one contiguous AXPY per surviving
// cluster row; the scalar fallback (no panel) produces identical bits.
func (m *Model) scoreKappaRefs(refs []ansRef, scale float64, dst []float64) {
	T, M := m.T, m.M
	var scratch *panelScratch
	for _, ar := range refs {
		phiRow := m.phi.Row(ar.other)
		if panel := m.scorePanel(ar.set); panel != nil {
			for t := 0; t < T; t++ {
				pt := phiRow[t]
				if pt < respFloor {
					continue
				}
				mat.Axpy(scale*pt, panel[t*M:t*M+M], dst)
			}
			continue
		}
		xs := m.intern.Canon(ar.set)
		if offs := m.scratchOffs(&scratch, len(xs)); offs != nil {
			// No cached slot: one fused gather-sum pass per surviving
			// cluster straight off the transposed cube — the kernel sums
			// the set's |offs| contiguous psiT runs per community in
			// canonical member order (the panel-fill order) and rounds
			// a·sum once, exactly the scalar fallback's float64(w*s), so
			// the bits match both the panel path and the fallback. No
			// intermediate panel row: a separate fill+add+AXPY sequence
			// measured slower (three memory passes against one).
			psiT := m.panels.psiT
			TM := T * M
			for t := 0; t < T; t++ {
				pt := phiRow[t]
				if pt < respFloor {
					continue
				}
				base := t * M
				for j, c := range xs {
					offs[j] = c*TM + base
				}
				mathx.AxpyGatherSum(scale*pt, psiT, offs, dst)
			}
			continue
		}
		// Scalar fallback: answerScore inlined with the cube base hoisted
		// (identical float-operation order to Axpy over a panel row: the
		// per-set sum matches the panel fill, the product's intermediate
		// rounding is pinned like the kernel's — no FMA contraction).
		psi := m.elogPsi.Data()
		C := m.numLabels
		for t := 0; t < T; t++ {
			pt := phiRow[t]
			if pt < respFloor {
				continue
			}
			w := scale * pt
			base := t * M * C
			for mm := range dst {
				b := base + mm*C
				s := 0.0
				for _, c := range xs {
					s += psi[b+c]
				}
				dst[mm] += float64(w * s)
			}
		}
	}
	m.putScratchPanel(scratch)
}

// scorePhiList fills dst (length T) with the unnormalised log-posterior of
// the item cluster update from the item's full chunked answer list (batch /
// finalize case, scale 1). See scorePhiBase for the term structure.
func (m *Model) scorePhiList(i int, scale float64, dst []float64) {
	m.scorePhiBase(i, dst)
	if !m.cfg.LiteralPhiUpdate {
		l := &m.perItem[i]
		for s, n := 0, l.segs(); s < n; s++ {
			m.scorePhiRefs(l.seg(s), scale, dst)
		}
	}
}

// scorePhiBatch is the SVI form: the item's mini-batch answer slice with
// the population scale |answers_i| / |batch_i|.
func (m *Model) scorePhiBatch(i int, refs []ansRef, scale float64, dst []float64) {
	m.scorePhiBase(i, dst)
	if !m.cfg.LiteralPhiUpdate {
		m.scorePhiRefs(refs, scale, dst)
	}
}

// scorePhiBase seeds dst with the refs-independent terms of the item
// cluster update: the literal Eq. 3 terms (stick prior plus truth-emission
// evidence, never scaled — the item's truth is one observation regardless
// of batching). Unobserved truth contributes through its imputed
// expectation ŷ (DESIGN.md D2).
func (m *Model) scorePhiBase(i int, dst []float64) {
	T := m.T
	copy(dst, m.elogTau)
	if truth := m.revealedTruth[i]; truth != nil {
		elogPhi := m.elogPhi
		for t := 0; t < T; t++ {
			row := elogPhi.Row(t)
			s := 0.0
			for _, c := range truth {
				s += row[c]
			}
			dst[t] += s
		}
	} else if !m.cfg.GroundTruthOnly {
		voted := m.votedList[i]
		vals := m.yhatVals[i]
		for t := 0; t < T; t++ {
			row := m.elogPhi.Row(t)
			s := 0.0
			for k, c := range voted {
				if v := vals[k]; v > respFloor {
					s += v * row[c]
				}
			}
			dst[t] += s
		}
	}
}

// scorePhiRefs accumulates the Appendix C answer-evidence term a_it for one
// contiguous answer segment into dst, scaled like the κ data term
// (DESIGN.md D1). With a cached panel each cluster's community reduction is
// a floored dot over one contiguous panel row, bit-identical to the scalar
// skip-loop fallback.
func (m *Model) scorePhiRefs(refs []ansRef, scale float64, dst []float64) {
	T, M := m.T, m.M
	var scratch *panelScratch
	for _, ar := range refs {
		kappaRow := m.kappa.Row(ar.other)
		// All T cluster reductions share one κ row, so its floor structure
		// is scanned once per answer (FloorGroups) and every reduction
		// visits only the surviving 4-lane groups — bit-neutral by the
		// groups-kernel contract, and the big win on late-fit near-one-hot
		// κ rows, where T full-width floor scans per answer would dwarf
		// the surviving work.
		if panel := m.scorePanel(ar.set); panel != nil {
			for t := 0; t < T; t++ {
				dst[t] += scale * mat.FlooredDot(kappaRow, panel[t*M:t*M+M], respFloor)
			}
			continue
		}
		xs := m.intern.Canon(ar.set)
		offs := m.scratchOffs(&scratch, len(xs))
		if offs == nil {
			m.poolOffs(&scratch, len(xs)) // groups scratch for the scalar path
		}
		scratch.groups = mathx.FloorGroups(kappaRow, respFloor, scratch.groups)
		groups := scratch.groups
		if offs != nil && 16*len(groups) >= 3*M {
			// Dense κ row with the transposed cube current: fused gather
			// floored-dot — the same canonical 4-lane reduction as
			// FlooredDot over a panel row, with the member gather-sum in
			// the panel entry's role, restricted to the surviving groups
			// (bit-neutral omission). The ≥75%-group-coverage gate keeps
			// the vector kernel off scattered-sparse rows, where it pays
			// for all four lanes of every surviving group while the scalar
			// loop below touches only the live entries — measured ~2×
			// slower there despite the vector width.
			psiT := m.panels.psiT
			TM := T * M
			for t := 0; t < T; t++ {
				base := t * M
				for j, c := range xs {
					offs[j] = c*TM + base
				}
				dst[t] += scale * mathx.FlooredDotGatherSumGroups(kappaRow, psiT, offs, groups, respFloor)
			}
			continue
		}
		psi := m.elogPsi.Data()
		C := m.numLabels
		// Sparse rows (and the panels-disabled hook): survivor-local scalar
		// walk over the row-major cube — each live community reads its
		// |set| members from one ψ row, the friendliest layout when
		// survivors are scattered. The loop reproduces FlooredDot's
		// canonical 4-lane-strided reduction order bit-for-bit (mat/mathx
		// contract): four lane accumulators over communities mm ≡ lane
		// (mod 4), floored entries contributing an explicit +0.0, lanes
		// combined (s0+s2)+(s1+s3), remainder folded in sequentially —
		// visiting only the surviving groups, which is bit-neutral by the
		// same omission argument the kernels rely on. setSum(b) plays the
		// panel entry's role, summed in the same canonical member order.
		setSum := func(b int) float64 {
			sc := 0.0
			for _, c := range xs {
				sc += psi[b+c]
			}
			return sc
		}
		for t := 0; t < T; t++ {
			base := t * M * C
			var s0, s1, s2, s3 float64
			for _, g := range groups {
				mm := int(g) * 4
				p0, p1, p2, p3 := 0.0, 0.0, 0.0, 0.0
				b := base + mm*C
				if km := kappaRow[mm]; km >= respFloor {
					p0 = float64(km * setSum(b))
				}
				if km := kappaRow[mm+1]; km >= respFloor {
					p1 = float64(km * setSum(b+C))
				}
				if km := kappaRow[mm+2]; km >= respFloor {
					p2 = float64(km * setSum(b+2*C))
				}
				if km := kappaRow[mm+3]; km >= respFloor {
					p3 = float64(km * setSum(b+3*C))
				}
				s0 += p0
				s1 += p1
				s2 += p2
				s3 += p3
			}
			s := (s0 + s2) + (s1 + s3)
			for mm := M &^ 3; mm < M; mm++ {
				p := 0.0
				if km := kappaRow[mm]; km >= respFloor {
					p = float64(km * setSum(base+mm*C))
				}
				s += p
			}
			dst[t] += scale * s
		}
	}
	m.putScratchPanel(scratch)
}

// lambdaAnswerStat adds one answer's Eq. 6 sufficient statistic into buf
// (layout: flat (T·M)×C, matching Model.lambda):
//
//	buf[(t·M+m)·C + c] += ϕ_it · κ_um   for every c ∈ x_iu.
//
// Batch accumulates it over every answer (sharded by item); SVI over the
// mini-batch only, scaling the reduced total instead.
func (m *Model) lambdaAnswerStat(buf []float64, item, worker int, labels []int) {
	M, T, C := m.M, m.T, m.numLabels
	phiRow := m.phi.Row(item)
	kappaRow := m.kappa.Row(worker)
	for t := 0; t < T; t++ {
		pt := phiRow[t]
		if pt < respFloor {
			continue
		}
		rowBase := t * M * C
		for mm := 0; mm < M; mm++ {
			w := pt * kappaRow[mm]
			if w < weightFloor {
				continue
			}
			base := rowBase + mm*C
			for _, c := range labels {
				buf[base+c] += w
			}
		}
	}
}

// zetaItemStat adds item i's Eq. 7 sufficient statistic into buf (layout:
// flat T×C, matching Model.zeta): ϕ_it·E[y_ic] with the revealed truth
// indicator when available, the imputed expectation otherwise (DESIGN.md
// D2), or nothing at all under GroundTruthOnly.
func (m *Model) zetaItemStat(buf []float64, i int) {
	T, C := m.T, m.numLabels
	truth := m.revealedTruth[i]
	if truth == nil && m.cfg.GroundTruthOnly {
		return
	}
	phiRow := m.phi.Row(i)
	for t := 0; t < T; t++ {
		pt := phiRow[t]
		if pt < respFloor {
			continue
		}
		base := t * C
		if truth != nil {
			for _, c := range truth {
				buf[base+c] += pt
			}
			continue
		}
		voted := m.votedList[i]
		vals := m.yhatVals[i]
		for k, c := range voted {
			if v := vals[k]; v > respFloor {
				buf[base+c] += pt * v
			}
		}
	}
}

// applyDirichlet folds a sufficient-statistics block into a Dirichlet
// parameter block: dst = (1−ω)·dst + ω·(prior + scale·suff). ω = 1,
// scale = 1 is the exact batch coordinate-ascent update (Eqs. 6–7); SVI
// uses the population scale with the learning rate ω (Eqs. 9–10, 18).
func applyDirichlet(dst, suff []float64, prior, scale, omega float64) {
	if omega >= 1 {
		for k, s := range suff {
			dst[k] = prior + scale*s
		}
		return
	}
	for k, s := range suff {
		dst[k] = (1-omega)*dst[k] + omega*(prior+scale*s)
	}
}

// applySticks folds (scaled) responsibility column sums into the truncated
// Beta stick posteriors with blending weight ω: the target of stick j is
// (1 + scale·colSum_j, conc + scale·Σ_{k>j} colSum_k) — Eqs. 4–5 for the
// batch case (ω = 1), Eqs. 11–14/19 for SVI.
func applySticks(a, b, colSum []float64, conc, scale, omega float64) {
	K := len(colSum)
	suffix := 0.0
	for j := K - 1; j >= 0; j-- {
		if j < K-1 {
			t1 := 1 + scale*colSum[j]
			t2 := conc + scale*suffix
			a[j] = (1-omega)*a[j] + omega*t1
			b[j] = (1-omega)*b[j] + omega*t2
		}
		suffix += colSum[j]
	}
}

// ---------------------------------------------------------------------------
// Worker-model statistics: hardened consensus, agreement, two-coin counts
// ---------------------------------------------------------------------------

// refreshHardSig recomputes the hardened consensus signature summaries for
// the listed items (nil = all): per item, the voted labels whose imputed
// (or revealed) expectation exceeds ½, or the single strongest label as a
// fallback when none does (so every answered item has a non-empty
// signature), kept as a bitset so the agreement and two-coin kernels can
// intersect answers against it in O(words), plus its size.
func (m *Model) refreshHardSig(items []int) {
	if m.ws.sigSet == nil {
		m.ws.sigSet = make([]labelset.Set, m.numItems)
		for i := range m.ws.sigSet {
			m.ws.sigSet[i] = labelset.New(m.numLabels)
		}
	}
	apply := func(i int) {
		vals := m.yhatVals[i]
		voted := m.votedList[i]
		sig := &m.ws.sigSet[i]
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
		m.ws.sigLen[i] = cnt
	}
	if items == nil {
		for i := 0; i < m.numItems; i++ {
			apply(i)
		}
		return
	}
	for _, i := range items {
		apply(i)
	}
}

// jaccardWithSig returns the Jaccard agreement between an interned answer
// set and item i's hardened signature (1 when both are empty, the harmless
// convention for unanswerable comparisons). Both sides are bitsets, so the
// intersection is a word-wise popcount instead of a per-label walk.
func (m *Model) jaccardWithSig(set int32, i int) float64 {
	inter := m.intern.At(set).IntersectLen(m.ws.sigSet[i])
	union := len(m.intern.Canon(set)) + m.ws.sigLen[i] - inter
	if union > 0 {
		return float64(inter) / float64(union)
	}
	return 1
}

// Coin-stat buffer layout: four M-length community two-coin accumulators,
// two C-length prevalence accumulators, four U-length per-worker raw-count
// accumulators. One flat buffer so the whole item pass reduces through a
// single sharded accumulator.
func (m *Model) coinLen() int { return 4*m.M + 2*m.numLabels + 4*m.numWorkers }

func (m *Model) coinOffsets() (tp, tpD, fp, fpD, prevN, prevD, tpU, tpDU, fpU, fpDU int) {
	M, C, U := m.M, m.numLabels, m.numWorkers
	tp, tpD, fp, fpD = 0, M, 2*M, 3*M
	prevN, prevD = 4*M, 4*M+C
	tpU, tpDU, fpU, fpDU = 4*M+2*C, 4*M+2*C+U, 4*M+2*C+2*U, 4*M+2*C+3*U
	return
}

// itemCoinStats accumulates, into a coin-stat buffer, the two-coin counts
// of every answer on item i against the hardened consensus (requirement
// R2: per-label validity, pooled by community for sparse-data robustness):
// for each voted label, every answering worker either asserted it (vote)
// or left it out (miss), counted raw per worker and κ-weighted per
// community, plus the per-label prevalence numerators. Identical between
// the batch pass (all items, sharded) and the SVI pass (batch items only).
func (m *Model) itemCoinStats(i int, buf []float64) {
	_, _, _, _, offPrevN, offPrevD, _, _, _, _ := m.coinOffsets()
	voted := m.votedList[i]
	vals := m.yhatVals[i]
	for k, c := range voted {
		buf[offPrevN+c] += vals[k]
		buf[offPrevD+c]++
	}
	l := &m.perItem[i]
	for si, sn := 0, l.segs(); si < sn; si++ {
		m.itemCoinRefs(i, l.seg(si), buf)
	}
}

// itemCoinRefs accumulates the two-coin counts of one contiguous answer
// segment of item i (see itemCoinStats). Bit-exactness note: for a fixed
// answer, each accumulator slot receives some number of additions of the
// same value (kw, or 1 for the raw counts) — the order of *identical*
// addends doesn't change the result, so the loop is free to count the
// (pos, vote) combinations first and then apply each slot's additions in a
// register, as long as the addition *count* per slot matches the
// per-voted-label walk it replaces.
func (m *Model) itemCoinRefs(i int, refs []ansRef, buf []float64) {
	offTP, offTPD, offFP, offFPD, _, _, offTPU, offTPDU, offFPU, offFPDU := m.coinOffsets()
	sig := m.ws.sigSet[i]
	// Hardened-signature sizes are per-item constants: every answer asserts
	// or misses against the same nPos positive and nNeg negative slots.
	nPos := m.ws.sigLen[i]
	nNeg := len(m.votedList[i]) - nPos
	for _, ar := range refs {
		u := ar.other
		kappaRow := m.kappa.Row(u)
		// Count this answer's votes that land on positive / negative slots.
		// Its labels are a subset of the voted list and the signature is
		// exactly the positive slots, so one popcount of answer ∩ signature
		// counts the positive votes.
		nTP := m.intern.At(ar.set).IntersectLen(sig)
		nFP := len(m.intern.Canon(ar.set)) - nTP
		buf[offTPDU+u] += float64(nPos)
		buf[offTPU+u] += float64(nTP)
		buf[offFPDU+u] += float64(nNeg)
		buf[offFPU+u] += float64(nFP)
		for mm, kw := range kappaRow {
			if kw < respFloor {
				continue
			}
			addN(buf, offTPD+mm, kw, nPos)
			addN(buf, offTP+mm, kw, nTP)
			addN(buf, offFPD+mm, kw, nNeg)
			addN(buf, offFP+mm, kw, nFP)
		}
	}
}

// addN adds v to buf[idx] n times through a register — the bit-exact
// replacement for n interleaved in-memory additions of the same value (it
// must stay n additions: v*n would round differently).
func addN(buf []float64, idx int, v float64, n int) {
	s := buf[idx]
	for r := 0; r < n; r++ {
		s += v
	}
	buf[idx] = s
}

// workerAgreeStats adds worker u's κ-weighted mean agreement with the
// hardened consensus into an agreement buffer (layout [num M | den M]) —
// the batch weighting, where every worker contributes equally to its
// community regardless of answer volume (requirement R1).
func (m *Model) workerAgreeStats(u int, buf []float64) {
	M := m.M
	agree := 0.0
	l := &m.perWorker[u]
	for s, sn := 0, l.segs(); s < sn; s++ {
		for _, ar := range l.seg(s) {
			agree += m.jaccardWithSig(ar.set, ar.other)
		}
	}
	n := l.Len()
	if n == 0 {
		return
	}
	a := agree / float64(n)
	kappaRow := m.kappa.Row(u)
	for mm, kw := range kappaRow {
		buf[mm] += kw * a
		buf[M+mm] += kw
	}
}

// itemAgreeStats adds the κ-weighted per-answer agreements of item i into
// an agreement buffer — the SVI weighting, where each streamed answer
// contributes once (the stream never revisits a worker's history).
func (m *Model) itemAgreeStats(i int, buf []float64) {
	M := m.M
	l := &m.perItem[i]
	for s, sn := 0, l.segs(); s < sn; s++ {
		for _, ar := range l.seg(s) {
			a := m.jaccardWithSig(ar.set, i)
			kappaRow := m.kappa.Row(ar.other)
			for mm, kw := range kappaRow {
				if kw < respFloor {
					continue
				}
				buf[mm] += kw * a
				buf[M+mm] += kw
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Algorithm 3 shard plumbing (thin wrappers over internal/mat)
// ---------------------------------------------------------------------------

// shardCount returns the number of map shards for a loop over n elements.
func (m *Model) shardCount(n int) int { return mat.Shards(m.cfg.Parallelism, n) }

// parallelFor splits [0, n) into contiguous shards processed concurrently.
// With Parallelism 1 it runs inline (no goroutine overhead).
func (m *Model) parallelFor(n int, fn func(lo, hi int)) {
	mat.ParallelFor(n, m.shardCount(n), func(_, lo, hi int) { fn(lo, hi) })
}
