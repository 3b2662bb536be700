package core

import (
	"math"

	"cpa/internal/mat"
	"cpa/internal/mathx"
)

// ELBO computes the evidence lower bound of the current variational
// posterior (paper §3.3): E_q[ln p(x, z, l, ψ, φ, π', τ')] − E_q[ln q].
// It is the principled convergence diagnostic; Fit's default criterion is
// the cheaper parameter-delta rule the paper reports using, but tests and
// callers can assert ELBO improvement across Fit calls.
//
// Terms follow the factorisation in the paper's Appendix C. The imputed
// truth ŷ (DESIGN.md D2) enters as the expected emission term
// Σ_i Σ_t ϕ_it Σ_c E[y_ic]·E[ln φ_tc], which is exactly the E-step bound of
// the missing-data treatment.
func (m *Model) ELBO() float64 {
	M, T := m.M, m.T
	var elbo float64
	m.refreshExpectations()
	defer m.releaseScratch()
	w := m.work

	// --- E[ln p(x | z, l, ψ)]: answers under community confusion, read from
	// the per-set score panels where cached (bit-identical to answerScore).
	m.ensureScorePanels()
	for i := 0; i < m.numItems; i++ {
		phiRow := m.phi.Row(i)
		m.perItem[i].each(func(ar ansRef) {
			kappaRow := m.kappa.Row(int(ar.other))
			panel := m.scorePanel(ar.set)
			var xs []int
			if panel == nil {
				m.ws.canon = m.intern.AppendCanon(m.ws.canon[:0], ar.set)
				xs = m.ws.canon
			}
			for t := 0; t < T; t++ {
				pt := phiRow[t]
				if pt < 1e-12 {
					continue
				}
				for mm := 0; mm < M; mm++ {
					km := kappaRow[mm]
					if km < 1e-12 {
						continue
					}
					if panel != nil {
						elbo += pt * km * panel[t*M+mm]
					} else {
						elbo += pt * km * m.answerScore(t, mm, xs)
					}
				}
			}
		})
	}

	// --- E[ln p(y | l, φ)]: revealed or imputed truth under emissions.
	m.expandItems(nil)
	for i := 0; i < m.numItems; i++ {
		phiRow := m.phi.Row(i)
		voted := m.votedList(i)
		vals := m.yhatVals[i]
		for t := 0; t < T; t++ {
			pt := phiRow[t]
			if pt < 1e-12 {
				continue
			}
			elogRow := w.elogPhi.Row(t)
			s := 0.0
			for k, c := range voted {
				if v := vals[k]; v > 1e-12 {
					s += v * elogRow[c]
				}
			}
			elbo += pt * s
		}
	}

	// --- E[ln p(z | π')] − E[ln q(z)] and the community stick terms.
	elbo += mixtureTerms(m.kappa, w.elogPi)
	if M > 1 {
		elbo += stickTerms(m.rho1, m.rho2, m.cfg.Alpha)
	}
	// --- E[ln p(l | τ')] − E[ln q(l)] and the cluster stick terms.
	elbo += mixtureTerms(m.phi, w.elogTau)
	if T > 1 {
		elbo += stickTerms(m.ups1, m.ups2, m.cfg.Epsilon)
	}

	// --- E[ln p(ψ)] − E[ln q(ψ)] and E[ln p(φ)] − E[ln q(φ)]: Dirichlet
	// prior-minus-entropy terms.
	for r := 0; r < T*M; r++ {
		elbo += dirichletTerms(m.lambda.Row(r), w.elogPsi.Row(r), m.cfg.GammaPrior)
	}
	for t := 0; t < T; t++ {
		elbo += dirichletTerms(m.zeta.Row(t), w.elogPhi.Row(t), m.cfg.EtaPrior)
	}
	return elbo
}

// mixtureTerms returns Σ_rows Σ_k resp·(elogWeight_k − ln resp), the
// assignment cross-entropy plus responsibility entropy.
func mixtureTerms(resp *mat.Dense, elogWeight []float64) float64 {
	total := 0.0
	for r := 0; r < resp.Rows(); r++ {
		for j, v := range resp.Row(r) {
			if v < 1e-12 {
				continue
			}
			total += v * (elogWeight[j] - math.Log(v))
		}
	}
	return total
}

// stickTerms returns Σ_j E[ln p(v_j | 1, α)] − E[ln q(v_j)] for the
// truncated Beta stick posteriors.
func stickTerms(a, b []float64, alpha float64) float64 {
	total := 0.0
	for j := range a {
		sum := mathx.Digamma(a[j] + b[j])
		elogV := mathx.Digamma(a[j]) - sum
		elog1mV := mathx.Digamma(b[j]) - sum
		// E[ln p(v)] under Beta(1, alpha): ln α + (α−1)E[ln(1−v)].
		total += math.Log(alpha) + (alpha-1)*elog1mV
		// −E[ln q(v)] = Beta entropy.
		total += mathx.LogBeta(a[j], b[j]) - (a[j]-1)*elogV - (b[j]-1)*elog1mV
	}
	return total
}

// dirichletTerms returns E[ln p(θ)] − E[ln q(θ)] for one Dirichlet factor
// with symmetric prior concentration prior0, reusing the cached E[ln θ].
func dirichletTerms(alpha, elog []float64, prior0 float64) float64 {
	k := float64(len(alpha))
	// E[ln p(θ)] under Dir(prior0,...):
	total := mathx.LogGamma(prior0*k) - k*mathx.LogGamma(prior0)
	for _, e := range elog {
		total += (prior0 - 1) * e
	}
	// −E[ln q(θ)] = entropy of Dir(alpha):
	sum := mathx.Sum(alpha)
	total += -mathx.LogGamma(sum)
	for c, a := range alpha {
		total += mathx.LogGamma(a) - (a-1)*elog[c]
	}
	// Reconcile: entropy uses ψ(a)−ψ(sum) = elog, so the expression above
	// already matches −E[ln q].
	return total
}
