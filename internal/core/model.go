// Package core implements the paper's primary contribution: the CPA model
// (Generic Crowdsourcing Consensus with Partial Agreement) — a Bayesian
// nonparametric model for aggregating multi-label crowd answers — together
// with its three inference engines and its prediction procedure:
//
//   - batch variational inference (paper §3.3, Algorithm 1) — Fit;
//   - stochastic variational inference for online/streaming data (paper
//     §4.1, Algorithm 2) — FitStream / PartialFit;
//   - map-reduce style parallelisation of the local updates (paper §4.2,
//     Algorithm 3) — Config.Parallelism;
//   - greedy MAP label-set instantiation (paper §3.4) with an optional
//     exhaustive mode — Predict.
//
// Worker communities and item clusters are both modelled by truncated
// stick-breaking representations of Chinese Restaurant Processes, giving the
// nonparametric adaptivity of requirement R4: unused components decay to
// negligible stick mass, so the effective number of communities/clusters is
// learned from data.
//
// Two documented deviations from the paper's literal equations (DESIGN.md
// D1, D2) close gaps that make the literal model vacuous in the fully
// unsupervised setting used by every headline experiment; both can be
// switched off (Config.LiteralPhiUpdate, Config.GroundTruthOnly) to recover
// the literal equations for ablation.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"cpa/internal/answers"
	"cpa/internal/labelset"
	"cpa/internal/mat"
	"cpa/internal/mathx"
)

// ErrConfig reports an invalid model configuration.
var ErrConfig = errors.New("core: invalid config")

// ErrState reports a call that is invalid in the model's current state
// (e.g. Predict before Fit).
var ErrState = errors.New("core: invalid state")

// Config collects every tunable of the CPA model. The zero value is not
// valid; use DefaultConfig as a starting point.
type Config struct {
	// MaxCommunities is M, the stick-breaking truncation for worker
	// communities. The paper notes truncations "can safely be set to large
	// values"; the effective number of communities adapts below it.
	MaxCommunities int
	// MaxClusters is T, the truncation for item clusters.
	MaxClusters int

	// Alpha is the CRP concentration for worker communities (prior belief
	// on community fragmentation).
	Alpha float64
	// Epsilon is the CRP concentration for item clusters.
	Epsilon float64
	// GammaPrior is the symmetric Dirichlet pseudo-count for the community
	// confusion vectors ψ_tm.
	GammaPrior float64
	// EtaPrior is the symmetric Dirichlet pseudo-count for the cluster
	// label emissions φ_t.
	EtaPrior float64

	// MaxIter bounds batch VI iterations; Tol is the convergence threshold
	// on the maximum absolute parameter change between iterations (the
	// paper's criterion: "all model parameter differences ... below 1e-3").
	MaxIter int
	Tol     float64

	// Seed drives the deterministic random initialisation.
	Seed int64

	// Parallelism is the number of map shards P for the Algorithm 3
	// map-reduce of the model's own passes (Fit, PartialFit, Predict); 1
	// runs serially. Results are bit-identical for every P: reductions sum
	// per-block buffers whose layout depends only on the loop length, in
	// block order (mat.Sharded). A Publisher ignores it and publishes on
	// every core.
	Parallelism int

	// BatchSize is the number of answers per SVI mini-batch (Algorithm 2).
	BatchSize int
	// ForgettingRate is r in the learning rate ω_b = (1+b)^-r; the paper
	// finds r ∈ [0.85, 0.9] best and any r ∈ (0.5, 1] convergent.
	ForgettingRate float64

	// DisableCommunities is the No-Z ablation (§5.4): every worker becomes
	// a singleton community (κ pinned to the identity).
	DisableCommunities bool
	// DisableClusters is the No-L ablation (§5.4): every item becomes a
	// singleton cluster (ϕ pinned to the identity).
	DisableClusters bool

	// GroundTruthOnly disables the imputed-truth grounding (DESIGN.md D2):
	// the cluster emission update (Eq. 7) then uses revealed truth only,
	// exactly as printed in the paper.
	GroundTruthOnly bool
	// LiteralPhiUpdate disables the answer-evidence term in the item
	// cluster update (DESIGN.md D1), reverting to the literal Eq. 3.
	LiteralPhiUpdate bool

	// ExhaustivePrediction replaces the greedy search of §3.4 with an
	// exhaustive scan over label subsets of the candidate universe, as the
	// paper describes for the No-L discussion. The universe is capped at
	// ExhaustiveCap labels (top candidates by marginal score) to bound the
	// 2^C blow-up the paper itself calls intractable.
	ExhaustivePrediction bool
	ExhaustiveCap        int

	// AnswerWindow bounds the streaming model's answer storage (DESIGN.md
	// §12): when more than 2×AnswerWindow answers are retained, the chunked
	// answer lists, arrival index, and label-set interner are rebuilt from
	// the newest AnswerWindow answers, so a month-long job's memory is
	// O(window) instead of O(stream). The rebuild is a deterministic
	// function of the arrival stream (it mirrors the persistence reload
	// path, so interned ids stay bit-stable across save/load round-trips)
	// and SVI population scaling then measures the window, not the full
	// history. 0 (the default) retains everything. Streaming only; batch
	// Fit ignores it.
	AnswerWindow int
	// ReliabilityHalfLife exponentially discounts the worker-reliability
	// evidence (DESIGN.md §12): each PartialFit round multiplies the
	// per-worker two-coin counts (tp/fp numerators and denominators) by
	// 2^(-1/H) and floors the running community-statistic blend weight at
	// 1−2^(-1/H), so reliability estimates carry a half-life of H rounds.
	// A sleeper worker's stale clean history then decays and the consensus
	// tracks its drift instead of being shielded by it. 0 (the default)
	// never forgets — the exact pre-decay accumulators.
	ReliabilityHalfLife float64
}

// DefaultConfig returns the settings used by the evaluation harness.
func DefaultConfig() Config {
	return Config{
		MaxCommunities: 10,
		MaxClusters:    20,
		Alpha:          1,
		Epsilon:        1,
		GammaPrior:     0.1,
		EtaPrior:       0.1,
		MaxIter:        40,
		Tol:            1e-3,
		Parallelism:    1,
		BatchSize:      256,
		ForgettingRate: 0.875,
		ExhaustiveCap:  12,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.MaxCommunities == 0 {
		c.MaxCommunities = d.MaxCommunities
	}
	if c.MaxClusters == 0 {
		c.MaxClusters = d.MaxClusters
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.Epsilon == 0 {
		c.Epsilon = d.Epsilon
	}
	if c.GammaPrior == 0 {
		c.GammaPrior = d.GammaPrior
	}
	if c.EtaPrior == 0 {
		c.EtaPrior = d.EtaPrior
	}
	if c.MaxIter == 0 {
		c.MaxIter = d.MaxIter
	}
	if c.Tol == 0 {
		c.Tol = d.Tol
	}
	if c.Parallelism == 0 {
		c.Parallelism = d.Parallelism
	}
	if c.BatchSize == 0 {
		c.BatchSize = d.BatchSize
	}
	if c.ForgettingRate == 0 {
		c.ForgettingRate = d.ForgettingRate
	}
	if c.ExhaustiveCap == 0 {
		c.ExhaustiveCap = d.ExhaustiveCap
	}
}

func (c *Config) validate() error {
	switch {
	case c.MaxCommunities < 1 || c.MaxClusters < 1:
		return fmt.Errorf("%w: truncations M=%d T=%d", ErrConfig, c.MaxCommunities, c.MaxClusters)
	case c.Alpha <= 0 || c.Epsilon <= 0:
		return fmt.Errorf("%w: concentrations alpha=%v epsilon=%v", ErrConfig, c.Alpha, c.Epsilon)
	case c.GammaPrior <= 0 || c.EtaPrior <= 0:
		return fmt.Errorf("%w: Dirichlet priors gamma=%v eta=%v", ErrConfig, c.GammaPrior, c.EtaPrior)
	case c.MaxIter < 1:
		return fmt.Errorf("%w: MaxIter=%d", ErrConfig, c.MaxIter)
	case c.Tol <= 0:
		return fmt.Errorf("%w: Tol=%v", ErrConfig, c.Tol)
	case c.Parallelism < 1:
		return fmt.Errorf("%w: Parallelism=%d", ErrConfig, c.Parallelism)
	case c.BatchSize < 1:
		return fmt.Errorf("%w: BatchSize=%d", ErrConfig, c.BatchSize)
	case c.ForgettingRate <= 0.5 || c.ForgettingRate > 1:
		return fmt.Errorf("%w: ForgettingRate=%v outside (0.5,1]", ErrConfig, c.ForgettingRate)
	case c.ExhaustiveCap < 1 || c.ExhaustiveCap > 24:
		return fmt.Errorf("%w: ExhaustiveCap=%d outside [1,24]", ErrConfig, c.ExhaustiveCap)
	case c.AnswerWindow < 0:
		return fmt.Errorf("%w: AnswerWindow=%d", ErrConfig, c.AnswerWindow)
	case c.AnswerWindow > 0 && c.AnswerWindow < c.BatchSize:
		return fmt.Errorf("%w: AnswerWindow=%d below BatchSize=%d", ErrConfig, c.AnswerWindow, c.BatchSize)
	case c.ReliabilityHalfLife < 0:
		return fmt.Errorf("%w: ReliabilityHalfLife=%v", ErrConfig, c.ReliabilityHalfLife)
	}
	return nil
}

// ansRef is one answer in the model's dense internal form. The label set is
// carried as an id into the model's label-set interner rather than an owned
// slice: partial-agreement crowds reuse a small universe of answer sets, so
// interning halves the reference size and gives every kernel O(1) access to
// both the canonical sorted member slice (intern.Canon) and the bitset
// membership test (intern.Contains), and lets the score-panel cache key
// per-set work by id (panels.go).
type ansRef struct {
	other int   // the item (in perWorker) or the worker (in perItem)
	set   int32 // interned label-set id of x_iu
}

// arrivalRef locates one ingested answer by arrival order: perItem[item][idx].
type arrivalRef struct {
	item, idx int
}

// Model holds the variational posterior of a CPA instance. Create with
// NewModel, train with Fit (batch) or FitStream/PartialFit (online), then
// call Predict.
type Model struct {
	cfg Config

	numItems, numWorkers, numLabels int
	// M, T are the effective truncations after ablation flags (No-Z pins
	// M to numWorkers, No-L pins T to numItems).
	M, T int

	rng *rand.Rand

	// intern is the label-set table every ansRef's set id points into.
	// Append-only: ids are stable, canonical slices immutable, so clones
	// share the table contents (Interner.Clone copies only the id map).
	intern *labelset.Interner
	// expGen counts expectation refreshes; the score-panel cache
	// (panels.go) is valid only for panels built at the current generation.
	expGen uint64
	// panels is the per-set T×M score-panel cache over elogPsi. A pointer:
	// a Publisher's finalize clone shares the live model's cache, together
	// with its elogPsi and expGen (publish.go); Clone gives a private one.
	panels *panelCache

	// Observed data in dense form (populated by Fit or accumulated by
	// PartialFit), stored as append-only chunked lists so clones share the
	// immutable prefix structurally (see chunks.go).
	perWorker []ansList
	perItem   []ansList
	// arrival records global ingestion order as (item, index-in-perItem)
	// pairs. Persistence flattens answers in this order so a restored
	// model rebuilds perWorker/perItem with identical element order —
	// float reductions over those lists, and therefore continued
	// PartialFit rounds, stay bit-for-bit reproducible after a reload.
	// Append-only: clones share it by capacity-clamped header copy.
	arrival []arrivalRef
	numAns  int
	// totalAns counts every answer ever ingested, monotone across the
	// AnswerWindow compactions that shrink numAns (the retained count).
	// Serving uses it for flow accounting: a checkpoint covers the first
	// totalAns answer lines of the journal regardless of what storage still
	// retains.
	totalAns int
	// dirtyFlags/dirtyItems track items touched by PartialFit since the
	// last snapshot publication (consumed by Publisher.takeDirtySorted).
	dirtyFlags []bool
	dirtyItems []int
	// seenWorkers/seenItems count workers/items with at least one ingested
	// answer (the SVI population-scaling denominators), maintained
	// incrementally by ingest.
	seenWorkers, seenItems int
	// revealedTruth[i] is nil unless item i's truth is visible to the
	// model (test questions).
	revealedTruth [][]int

	// Variational parameters: dense row-major matrices on the internal/mat
	// flat-buffer layer. Stick posteriors are plain vectors.
	kappa  *mat.Dense // U×M responsibilities q(z_u)
	phi    *mat.Dense // I×T responsibilities q(l_i)
	lambda *mat.Dense // (T·M)×C Dirichlet params of q(ψ_tm); row t*M+m
	zeta   *mat.Dense // T×C Dirichlet params of q(φ_t)
	rho1   []float64  // M-1 Beta params of community sticks
	rho2   []float64
	ups1   []float64 // T-1 Beta params of cluster sticks
	ups2   []float64

	// Cached expectations, refreshed from the parameters above at the start
	// of each iteration.
	elogPi  []float64  // M
	elogTau []float64  // T
	elogPsi *mat.Dense // (T·M)×C: ψ(λ_tmc) − ψ(Σ_c λ_tmc)
	elogPhi *mat.Dense // T×C

	// Imputed truth expectations ŷ (DESIGN.md D2) and the community-level
	// two-coin worker model that calibrates them.
	votedList  [][]int // per item: sorted union of voted labels
	yhatVals   [][]float64
	relm       []float64 // M community reliabilities in [0,1] (agreement)
	workerRelW []float64 // U: Σ_m κ_um rel_m
	// Per-community binary rates marginalised from ψ against the hardened
	// consensus: true-positive rate and false-positive rate, plus their
	// per-worker log-odds contributions.
	tprM, fprM []float64 // M
	// Per-worker raw two-coin counts; worker rates are these counts shrunk
	// toward the worker's community rates (hierarchical pooling: the
	// community is the prior, the worker's own record the evidence).
	tpNumU, tpDenU, fpNumU, fpDenU []float64 // U
	voteLW                         []float64 // U: ln(TPR_u/FPR_u)
	missLW                         []float64 // U: ln((1−TPR_u)/(1−FPR_u))
	haveRates                      bool
	streamFitted                   bool
	// labelPrev[c] is the empirical per-label prevalence: among items where
	// c was voted, the mean imputed probability that c is true — the class
	// prior of the calibrated imputation.
	labelPrev []float64
	// Running SVI worker-model accumulators (batch counts blended by ω).
	runTP, runTPD, runFP, runFPD, runAgree, runAgreeD []float64
	runPrevN, runPrevD                                []float64
	// expertCooc is the optional external co-occurrence prior (§6 extension);
	// see SetExpertCooccurrence.
	expertCooc *mat.Dense // C×C, nil when no expert knowledge is installed

	// SVI state.
	batchIndex     int
	lastBatchDelta float64
	fitted         bool

	// temp is the deterministic-annealing temperature applied to the local
	// softmax updates (1 = exact mean-field; >1 keeps responsibilities soft
	// during the first batch-VI iterations so assignments can refine before
	// they harden).
	temp float64

	// Sharded reduction accumulators (Algorithm 3), one per suffstat size
	// class so steady-state iterations reuse their buffers.
	accLambda mat.Sharded
	accZeta   mat.Sharded
	accCoin   mat.Sharded
	accAgree  mat.Sharded
	accLogLik mat.Sharded
	// ws holds the per-iteration working buffers reused across iterations.
	ws workScratch
}

// workScratch bundles the reusable working buffers of the inference loops
// so steady-state iterations allocate nothing. None of it is model state:
// every buffer is recomputed before use. Buffers only training reads are
// allocated on first use (trainScratch, Fit, dataLogLik).
type workScratch struct {
	lambdaSuff []float64      // (T·M·C) Eq. 6 sufficient statistics
	zetaSuff   []float64      // (T·C) Eq. 7 sufficient statistics
	colSumM    []float64      // M responsibility column sums
	colSumT    []float64      // T
	agreeStats []float64      // 2M community agreement accumulators
	coinStats  []float64      // coin-stat layout, see coinLen
	psiMean    *mat.Dense     // (T·M)×C posterior-mean confusion (dataLogLik)
	phiMean    *mat.Dense     // T×C posterior-mean emissions (imputeTruth)
	nbar       []float64      // T expected cluster truth-set sizes
	imputeTab  []float64      // C×T clamp(n̄_t·φ̄_tc, 0.02, 0.90) (imputePrep)
	prevClamp  []float64      // C: clamp(labelPrev_c, 0.05, 0.90) (imputePrep)
	prevLogOdd []float64      // C: ln prevClamp_c − ln(1 − prevClamp_c)
	phiMAP     []float64      // T×C emission modes (Predict)
	prior      []float64      // C×T capped cluster priors (clusterPriorsInto)
	sigLen     []int          // per item: hardened-signature size
	sigSet     []labelset.Set // per item: the signature as a bitset (lazily allocated)
	prevKappa  *mat.Dense     // convergence snapshots (Fit)
	prevPhi    *mat.Dense

	// prod holds the call-scoped product panels (dataLogLik, Predict).
	prod prodCache

	// PartialFit round scratch: the per-round grouping, blending, and merge
	// buffers that used to be allocated fresh every round (maps, per-shard
	// slices). All are rebuilt from scratch each round; none is model state.
	batchAns    []batchAns
	groupCount  []int32 // max(U, I) counting array, zero outside a group call
	gWorkers    batchGroups
	gItems      batchGroups
	shardDeltas []float64
	freshK      *mat.Dense // Parallelism × M blend rows (one per shard)
	oldK        *mat.Dense
	freshT      *mat.Dense // Parallelism × T
	oldT        *mat.Dense
	mergeA      []int // extendVoted sorted-union double buffers
	mergeB      []int
}

// NewModel allocates a CPA model for the given problem dimensions.
func NewModel(cfg Config, numItems, numWorkers, numLabels int) (*Model, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if numItems <= 0 || numWorkers <= 0 || numLabels <= 0 {
		return nil, fmt.Errorf("%w: dimensions %d/%d/%d", ErrConfig, numItems, numWorkers, numLabels)
	}
	m := &Model{
		cfg:        cfg,
		numItems:   numItems,
		numWorkers: numWorkers,
		numLabels:  numLabels,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		temp:       1,
		intern:     labelset.NewInterner(),
	}
	m.M = cfg.MaxCommunities
	if cfg.DisableCommunities {
		m.M = numWorkers
	}
	m.T = cfg.MaxClusters
	if cfg.DisableClusters {
		m.T = numItems
	}
	if m.M > numWorkers {
		m.M = numWorkers
	}
	if m.T > numItems {
		m.T = numItems
	}
	m.allocate()
	m.initialize()
	return m, nil
}

// Dims returns (items, workers, labels).
func (m *Model) Dims() (int, int, int) { return m.numItems, m.numWorkers, m.numLabels }

// Truncations returns the effective (M, T) truncation levels.
func (m *Model) Truncations() (int, int) { return m.M, m.T }

// allocate sizes a full model: the global parameters, their expectations
// and the score-panel cache, then everything allocateLocal sizes.
func (m *Model) allocate() {
	C, M, T := m.numLabels, m.M, m.T
	m.dirtyFlags = make([]bool, m.numItems)
	m.lambda = mat.New(T*M, C)
	m.zeta = mat.New(T, C)
	if M > 1 {
		m.rho1 = make([]float64, M-1)
		m.rho2 = make([]float64, M-1)
	}
	if T > 1 {
		m.ups1 = make([]float64, T-1)
		m.ups2 = make([]float64, T-1)
	}
	m.elogPi = make([]float64, M)
	m.elogTau = make([]float64, T)
	m.elogPsi = mat.New(T*M, C)
	m.elogPhi = mat.New(T, C)
	m.panels = &panelCache{}
	m.allocateLocal()
}

// allocateLocal sizes the state a finalize pass writes — κ, ϕ, ŷ, the
// worker model — plus the answer-index headers and the finalize scratch.
// A Publisher's clone allocates only this and shares the rest (publish.go).
func (m *Model) allocateLocal() {
	U, I, C, M, T := m.numWorkers, m.numItems, m.numLabels, m.M, m.T
	m.perWorker = make([]ansList, U)
	m.perItem = make([]ansList, I)
	m.revealedTruth = make([][]int, I)
	m.kappa = mat.New(U, M)
	m.phi = mat.New(I, T)
	m.ws = m.newWorkScratch()
	m.votedList = make([][]int, I)
	m.yhatVals = make([][]float64, I)
	m.relm = make([]float64, M)
	m.workerRelW = make([]float64, U)
	m.tprM = make([]float64, M)
	m.fprM = make([]float64, M)
	m.tpNumU = make([]float64, U)
	m.tpDenU = make([]float64, U)
	m.fpNumU = make([]float64, U)
	m.fpDenU = make([]float64, U)
	m.voteLW = make([]float64, U)
	m.missLW = make([]float64, U)
	m.labelPrev = make([]float64, C)
	mathx.Fill(m.labelPrev, 0.25)
}

// initialize seeds the responsibilities with jittered-uniform assignments
// (identity for the ablated factors) and the global parameters at their
// priors. Batch fitting replaces the jitter with data-driven seeding
// (DESIGN.md D6) before the first iteration.
func (m *Model) initialize() {
	U, I := m.numWorkers, m.numItems
	for u := 0; u < U; u++ {
		row := m.kappa.Row(u)
		if m.cfg.DisableCommunities {
			mathx.Fill(row, 0)
			row[u] = 1
			continue
		}
		for mm := range row {
			row[mm] = 0.75 + 0.5*m.rng.Float64()
		}
		mathx.NormalizeInPlace(row)
	}
	for i := 0; i < I; i++ {
		row := m.phi.Row(i)
		if m.cfg.DisableClusters {
			mathx.Fill(row, 0)
			row[i] = 1
			continue
		}
		for t := range row {
			row[t] = 0.75 + 0.5*m.rng.Float64()
		}
		mathx.NormalizeInPlace(row)
	}
	m.lambda.Fill(m.cfg.GammaPrior)
	m.zeta.Fill(m.cfg.EtaPrior)
	mathx.Fill(m.rho1, 1)
	mathx.Fill(m.rho2, m.cfg.Alpha)
	mathx.Fill(m.ups1, 1)
	mathx.Fill(m.ups2, m.cfg.Epsilon)
	mathx.Fill(m.relm, 1)
	mathx.Fill(m.workerRelW, 1)
	m.refreshExpectations()
}

// seedFromData replaces the jittered-uniform responsibilities with
// data-driven ones (DESIGN.md D6). Requires imputeTruth to have produced
// vote fractions first. Item clusters: each item is softly assigned to the
// seed item (T spread-out representatives) whose majority-voted label
// signature is most Jaccard-similar. Worker communities: workers are ranked
// by mean agreement of their answers with the majority signature and split
// into M quantile buckets.
func (m *Model) seedFromData() {
	M, T := m.M, m.T
	const soft = 0.2 // mass spread across non-home components

	// Majority signatures per item: voted labels with ŷ > 0.5 (falling back
	// to the top-ŷ label).
	signatures := make([][]int, m.numItems)
	for i := 0; i < m.numItems; i++ {
		voted := m.votedList[i]
		vals := m.yhatVals[i]
		var sig []int
		bestK, bestV := -1, 0.0
		for k, c := range voted {
			if vals[k] > 0.5 {
				sig = append(sig, c)
			}
			if vals[k] > bestV {
				bestK, bestV = k, vals[k]
			}
		}
		if len(sig) == 0 && bestK >= 0 {
			sig = []int{voted[bestK]}
		}
		signatures[i] = sig
	}

	if !m.cfg.DisableClusters {
		seeds := m.rng.Perm(m.numItems)
		if len(seeds) > T {
			seeds = seeds[:T]
		}
		member := make(map[int]bool)
		for i := 0; i < m.numItems; i++ {
			for k := range member {
				delete(member, k)
			}
			for _, c := range signatures[i] {
				member[c] = true
			}
			bestT, bestSim := 0, -1.0
			for t, seed := range seeds {
				inter := 0
				for _, c := range signatures[seed] {
					if member[c] {
						inter++
					}
				}
				union := len(signatures[i]) + len(signatures[seed]) - inter
				sim := 1.0
				if union > 0 {
					sim = float64(inter) / float64(union)
				}
				if sim > bestSim {
					bestT, bestSim = t, sim
				}
			}
			row := m.phi.Row(i)
			mathx.Fill(row, soft/float64(T))
			row[bestT] += 1 - soft
		}
	}

	if !m.cfg.DisableCommunities {
		type wa struct {
			u     int
			agree float64
		}
		order := make([]wa, m.numWorkers)
		member := make(map[int]bool)
		for u := 0; u < m.numWorkers; u++ {
			agree, n := 0.0, 0
			m.perWorker[u].each(func(ar ansRef) {
				for k := range member {
					delete(member, k)
				}
				for _, c := range signatures[ar.other] {
					member[c] = true
				}
				labels := m.intern.Canon(ar.set)
				inter := 0
				for _, c := range labels {
					if member[c] {
						inter++
					}
				}
				union := len(labels) + len(member) - inter
				if union > 0 {
					agree += float64(inter) / float64(union)
				} else {
					agree++
				}
				n++
			})
			score := 0.5
			if n > 0 {
				score = agree / float64(n)
			}
			order[u] = wa{u, score + 1e-9*float64(u%97)}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].agree < order[b].agree })
		for rank, w := range order {
			home := rank * M / len(order)
			row := m.kappa.Row(w.u)
			mathx.Fill(row, soft/float64(M))
			row[home] += 1 - soft
		}
	}
}

// loadDataset ingests a dataset into the dense internal form, replacing any
// previously loaded data.
func (m *Model) loadDataset(ds *answers.Dataset) error {
	if ds.NumItems != m.numItems || ds.NumWorkers != m.numWorkers || ds.NumLabels != m.numLabels {
		return fmt.Errorf("%w: dataset dims %d/%d/%d do not match model %d/%d/%d", ErrConfig,
			ds.NumItems, ds.NumWorkers, ds.NumLabels, m.numItems, m.numWorkers, m.numLabels)
	}
	for u := range m.perWorker {
		m.perWorker[u].reset()
	}
	for i := range m.perItem {
		m.perItem[i].reset()
	}
	// Rebind rather than truncate: clones share the old backing array.
	m.arrival = nil
	m.numAns = 0
	m.totalAns = 0
	m.seenWorkers, m.seenItems = 0, 0
	for _, a := range ds.Answers() {
		m.ingest(a)
	}
	for i := 0; i < m.numItems; i++ {
		if truth, ok := ds.Revealed(i); ok {
			m.revealedTruth[i] = truth.Slice()
		} else {
			m.revealedTruth[i] = nil
		}
	}
	m.rebuildVoted()
	return nil
}

// ingest adds one answer to the dense views, interning its label set and
// maintaining the seen-worker and seen-item counts the SVI scaling depends
// on. It returns the interned set id.
func (m *Model) ingest(a answers.Answer) int32 {
	id := m.intern.Intern(a.Labels)
	if m.perWorker[a.Worker].empty() {
		m.seenWorkers++
	}
	if m.perItem[a.Item].empty() {
		m.seenItems++
	}
	m.perWorker[a.Worker].append(ansRef{other: a.Item, set: id})
	m.perItem[a.Item].append(ansRef{other: a.Worker, set: id})
	m.arrival = append(m.arrival, arrivalRef{item: a.Item, idx: m.perItem[a.Item].Len() - 1})
	m.numAns++
	m.totalAns++
	return id
}

// maybeCompactWindow enforces Config.AnswerWindow: once the retained stream
// exceeds twice the window, every answer-addressed structure — the chunked
// per-worker/per-item lists, the arrival index, the label-set interner, the
// seen-population counts, and the score-panel cache — is rebuilt from the
// newest AnswerWindow answers, re-ingested in arrival order. That is exactly
// the persistence reload path (persist.go re-ingests the flattened arrival
// stream), so a live-compacted model and its save/load round-trip assign
// identical interned ids and iterate answers in identical order: compaction
// never perturbs bit-exact recovery or replay. Amortised O(1) per answer
// (one rebuild per window of arrivals). Voted-label lists and imputations
// are model state, not storage, and survive untouched.
func (m *Model) maybeCompactWindow() {
	w := m.cfg.AnswerWindow
	if w <= 0 || m.numAns <= 2*w {
		return
	}
	keep := m.arrival[len(m.arrival)-w:]
	items := make([]int, len(keep))
	workers := make([]int, len(keep))
	labels := make([][]int, len(keep))
	for k, at := range keep {
		ref := m.perItem[at.item].at(at.idx)
		items[k] = at.item
		workers[k] = ref.other
		labels[k] = m.intern.Canon(ref.set)
	}
	// Rebind, never truncate in place: publisher clones and snapshots may
	// still hold shared views of the old chunks, arrival array, and interner.
	for u := range m.perWorker {
		m.perWorker[u].reset()
	}
	for i := range m.perItem {
		m.perItem[i].reset()
	}
	m.arrival = nil
	m.numAns = 0
	m.seenWorkers, m.seenItems = 0, 0
	m.intern = labelset.NewInterner()
	// Reset in place: a publisher clone holding the same cache re-points at
	// it, and at the new interner, on its next sync.
	*m.panels = panelCache{disabled: m.panels.disabled}
	// The scratch product-panel cache is keyed by interned set id too; its
	// slot map would index past the rebuilt interner. Keep only the float
	// buffer for reuse.
	m.ws.prod = prodCache{buf: m.ws.prod.buf}
	for k, item := range items {
		id := m.intern.InternSlice(labels[k])
		worker := workers[k]
		if m.perItem[item].empty() {
			m.seenItems++
		}
		if m.perWorker[worker].empty() {
			m.seenWorkers++
		}
		m.perItem[item].append(ansRef{other: worker, set: id})
		m.perWorker[worker].append(ansRef{other: item, set: id})
		m.arrival = append(m.arrival, arrivalRef{item: item, idx: m.perItem[item].Len() - 1})
		m.numAns++
	}
}

// rebuildVoted recomputes, per item, the sorted union of voted labels and
// resets the imputed-truth storage aligned with it.
func (m *Model) rebuildVoted() {
	for i := 0; i < m.numItems; i++ {
		var s labelset.Set
		m.perItem[i].each(func(ar ansRef) {
			for _, c := range m.intern.Canon(ar.set) {
				s.Add(c)
			}
		})
		for _, c := range m.revealedTruth[i] {
			s.Add(c)
		}
		m.votedList[i] = s.Slice()
		m.yhatVals[i] = make([]float64, len(m.votedList[i]))
	}
}

// refreshExpectations recomputes every cached digamma expectation from the
// current variational parameters. The T×M×C λ cube walk runs on the
// Algorithm 3 shards (rows are independent, so results are identical for
// every Parallelism). Bumping expGen invalidates the score-panel cache:
// panels built against the previous expectations are never served again
// (panels.go).
func (m *Model) refreshExpectations() {
	M, T := m.M, m.T
	// Stick expectations E[ln π_m], E[ln τ_t].
	if M > 1 {
		stickELog(m.rho1, m.rho2, m.elogPi)
	} else {
		m.elogPi[0] = 0
	}
	if T > 1 {
		stickELog(m.ups1, m.ups2, m.elogTau)
	} else {
		m.elogTau[0] = 0
	}
	// Dirichlet expectations for ψ and φ.
	m.parallelFor(T*M, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			dirELog(m.lambda.Row(r), m.elogPsi.Row(r))
		}
	})
	for t := 0; t < T; t++ {
		dirELog(m.zeta.Row(t), m.elogPhi.Row(t))
	}
	m.expGen++
}

// stickELog fills dst (length len(a)+1) with E[ln π_k] for the truncated
// stick-breaking posterior given Beta parameters (a, b).
func stickELog(a, b, dst []float64) {
	acc := 0.0
	for j := range a {
		sum := mathx.Digamma(a[j] + b[j])
		dst[j] = acc + mathx.Digamma(a[j]) - sum
		acc += mathx.Digamma(b[j]) - sum
	}
	dst[len(a)] = acc
}

// dirELog fills dst with ψ(α_c) − ψ(Σα) for the Dirichlet parameters alpha,
// through the vectorised digamma walk (bit-identical to the scalar loop).
func dirELog(alpha, dst []float64) {
	mathx.DigammaRow(alpha, dst)
	total := mathx.Digamma(mathx.Sum(alpha))
	for c := range dst {
		dst[c] -= total
	}
}

// CommunityWeights returns the posterior expected community proportions
// E[π], derived from the stick posteriors.
func (m *Model) CommunityWeights() []float64 {
	return stickMeanWeights(m.rho1, m.rho2, m.M)
}

// ClusterWeights returns the posterior expected cluster proportions E[τ].
func (m *Model) ClusterWeights() []float64 {
	return stickMeanWeights(m.ups1, m.ups2, m.T)
}

func stickMeanWeights(a, b []float64, k int) []float64 {
	out := make([]float64, k)
	remaining := 1.0
	for j := 0; j < k-1; j++ {
		v := a[j] / (a[j] + b[j])
		out[j] = v * remaining
		remaining *= 1 - v
	}
	out[k-1] = remaining
	return out
}

// EffectiveCommunities counts communities whose expected proportion exceeds
// threshold — the adaptivity diagnostic of requirement R4. Allocation-free:
// Stats() runs once per published snapshot, so this is on the serving hot
// path.
func (m *Model) EffectiveCommunities(threshold float64) int {
	return stickEffectiveCount(m.rho1, m.rho2, m.M, threshold)
}

// EffectiveClusters counts clusters whose expected proportion exceeds
// threshold.
func (m *Model) EffectiveClusters(threshold float64) int {
	return stickEffectiveCount(m.ups1, m.ups2, m.T, threshold)
}

// stickEffectiveCount counts stick weights above threshold directly from
// the Beta posteriors — the same weights stickMeanWeights materialises,
// without the two allocations.
func stickEffectiveCount(a, b []float64, k int, threshold float64) int {
	n := 0
	remaining := 1.0
	for j := 0; j < k-1; j++ {
		v := a[j] / (a[j] + b[j])
		if v*remaining > threshold {
			n++
		}
		remaining *= 1 - v
	}
	if remaining > threshold {
		n++
	}
	return n
}

// WorkerCommunity returns the MAP community of worker u.
func (m *Model) WorkerCommunity(u int) int {
	if u < 0 || u >= m.numWorkers {
		return -1
	}
	return mathx.ArgMax(m.kappa.Row(u))
}

// ItemCluster returns the MAP cluster of item i.
func (m *Model) ItemCluster(i int) int {
	if i < 0 || i >= m.numItems {
		return -1
	}
	return mathx.ArgMax(m.phi.Row(i))
}

// WorkerReliability returns the model's reliability weight for worker u:
// Σ_m κ_um · rel_m, in [0, 1]. Available after fitting.
func (m *Model) WorkerReliability(u int) float64 {
	if u < 0 || u >= m.numWorkers {
		return 0
	}
	return m.workerRelW[u]
}

// WorkerVoteWeight returns the two-coin log-odds vote weight ln(TPR_u/FPR_u)
// for worker u — the per-worker trust signal the calibrated consensus vote
// uses. Unlike WorkerReliability (a community-level blend), it reflects the
// worker's own shrunk coin counts, so it is the observable through which
// Config.ReliabilityHalfLife acts: under decay, a worker whose behavior
// turns sees this weight track the recent record rather than the lifetime
// average. Zero before the first worker-model pass.
func (m *Model) WorkerVoteWeight(u int) float64 {
	if u < 0 || u >= m.numWorkers || !m.haveRates {
		return 0
	}
	return m.voteLW[u]
}

// CommunityReliability returns rel_m for community m.
func (m *Model) CommunityReliability(mm int) float64 {
	if mm < 0 || mm >= m.M {
		return 0
	}
	return m.relm[mm]
}

// Fitted reports whether the model has been trained.
func (m *Model) Fitted() bool { return m.fitted }

// Clone returns an independent copy of the model: the serving layer
// snapshots online-learning trajectories on clones. Variational parameters
// and per-item mutable state are deep-copied; the ingestion index
// (perWorker/perItem/arrival) is shared structurally with the source under
// the append-only discipline of chunks.go, so cloning costs O(items +
// workers + parameters) — independent of how many answers have streamed in.
func (m *Model) Clone() *Model {
	c := *m
	c.rng = rand.New(rand.NewSource(m.cfg.Seed + int64(m.batchIndex) + 1))
	// The interner's id table is shared history; the clone gets its own id
	// map so both sides can intern new sets independently. The panel cache
	// is private per model (it aliases the model's own elogPsi): start empty.
	c.intern = m.intern.Clone()
	c.panels = &panelCache{disabled: m.panels.disabled}
	cpF := func(v []float64) []float64 { return append([]float64(nil), v...) }
	c.kappa = m.kappa.Clone()
	c.phi = m.phi.Clone()
	c.lambda = m.lambda.Clone()
	c.zeta = m.zeta.Clone()
	c.rho1, c.rho2 = cpF(m.rho1), cpF(m.rho2)
	c.ups1, c.ups2 = cpF(m.ups1), cpF(m.ups2)
	c.elogPi, c.elogTau = cpF(m.elogPi), cpF(m.elogTau)
	c.elogPsi, c.elogPhi = m.elogPsi.Clone(), m.elogPhi.Clone()
	c.relm, c.workerRelW = cpF(m.relm), cpF(m.workerRelW)
	c.tprM, c.fprM = cpF(m.tprM), cpF(m.fprM)
	c.tpNumU, c.tpDenU = cpF(m.tpNumU), cpF(m.tpDenU)
	c.fpNumU, c.fpDenU = cpF(m.fpNumU), cpF(m.fpDenU)
	c.voteLW, c.missLW = cpF(m.voteLW), cpF(m.missLW)
	c.labelPrev = cpF(m.labelPrev)
	if m.runTP != nil {
		c.runTP, c.runTPD = cpF(m.runTP), cpF(m.runTPD)
		c.runFP, c.runFPD = cpF(m.runFP), cpF(m.runFPD)
		c.runAgree, c.runAgreeD = cpF(m.runAgree), cpF(m.runAgreeD)
		c.runPrevN, c.runPrevD = cpF(m.runPrevN), cpF(m.runPrevD)
	}
	// Shared-prefix views of the append-only ingestion index: O(lists), not
	// O(answers). Capacity-clamped headers keep both sides' future appends
	// out of each other's storage.
	c.perWorker = make([]ansList, len(m.perWorker))
	for u := range m.perWorker {
		c.perWorker[u] = m.perWorker[u].shareClone()
	}
	c.perItem = make([]ansList, len(m.perItem))
	for i := range m.perItem {
		c.perItem[i] = m.perItem[i].shareClone()
	}
	c.arrival = m.arrival[:len(m.arrival):len(m.arrival)]
	// Inner slices are rebind-only (never mutated in place): share them.
	c.revealedTruth = append([][]int(nil), m.revealedTruth...)
	c.votedList = append([][]int(nil), m.votedList...)
	// yhatVals entries ARE mutated in place by imputeTruth: deep-copy.
	c.yhatVals = make([][]float64, len(m.yhatVals))
	for i := range m.yhatVals {
		c.yhatVals[i] = append([]float64(nil), m.yhatVals[i]...)
	}
	c.dirtyFlags = append([]bool(nil), m.dirtyFlags...)
	c.dirtyItems = append([]int(nil), m.dirtyItems...)
	// Reduction accumulators and working buffers must not be shared between
	// models; reallocate the clone's privately.
	c.accLambda, c.accZeta, c.accCoin, c.accAgree, c.accLogLik =
		mat.Sharded{}, mat.Sharded{}, mat.Sharded{}, mat.Sharded{}, mat.Sharded{}
	c.ws = m.newWorkScratch()
	return &c
}

// newWorkScratch allocates a fresh set of the working buffers every model
// reads (finalize and prediction), sized to the model's dimensions.
// Training-only buffers come later, from trainScratch.
func (m *Model) newWorkScratch() workScratch {
	I, C, M, T := m.numItems, m.numLabels, m.M, m.T
	return workScratch{
		agreeStats: make([]float64, 2*M),
		coinStats:  make([]float64, m.coinLen()),
		phiMean:    mat.New(T, C),
		nbar:       make([]float64, T),
		imputeTab:  make([]float64, C*T),
		prevClamp:  make([]float64, C),
		prevLogOdd: make([]float64, C),
		sigLen:     make([]int, I),
	}
}

// trainScratch allocates, on first use, the buffers only training reads:
// the Eq. 4–7 sufficient statistics and PartialFit's grouping and blend
// rows. A model that only finalizes and predicts — a Publisher's clone —
// never holds them.
func (m *Model) trainScratch() *workScratch {
	ws := &m.ws
	if ws.lambdaSuff == nil {
		C, M, T, P := m.numLabels, m.M, m.T, m.cfg.Parallelism
		ws.lambdaSuff = make([]float64, T*M*C)
		ws.zetaSuff = make([]float64, T*C)
		ws.colSumM, ws.colSumT = make([]float64, M), make([]float64, T)
		ws.groupCount = make([]int32, max(m.numWorkers, m.numItems))
		ws.freshK, ws.oldK = mat.New(P, M), mat.New(P, M)
		ws.freshT, ws.oldT = mat.New(P, T), mat.New(P, T)
	}
	return ws
}

// answerScore computes Σ_{c∈xs} elogPsi[t][m][c] for a given (t, m), the
// data term E[ln p(x_iu | ψ_tm)] up to the count-factorial constant that
// cancels in all softmax normalisations. xs must be the canonical sorted
// member slice: the score-panel cache (panels.go) sums in the same order,
// which is what makes cached panels bit-identical to this function.
func (m *Model) answerScore(t, mm int, xs []int) float64 {
	psi := m.elogPsi.Data()
	base := (t*m.M + mm) * m.numLabels
	s := 0.0
	for _, c := range xs {
		s += psi[base+c]
	}
	return s
}

// NumAnswers returns the number of answers the model currently retains in
// storage — the full ingested stream unless Config.AnswerWindow trims it.
func (m *Model) NumAnswers() int { return m.numAns }

// TotalIngested returns the number of answers ever ingested, monotone across
// AnswerWindow compactions. This is the stream-position coordinate the
// serving layer's journal accounting uses: a checkpoint of this model covers
// the first TotalIngested answer lines.
func (m *Model) TotalIngested() int { return m.totalAns }
