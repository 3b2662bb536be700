package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"cpa/internal/labelset"
)

// modelState is the gob wire form of a trained model: configuration,
// dimensions, the variational posterior, and the ingested answers (which
// prediction's cluster-weight likelihoods and later PartialFit scaling
// depend on). A restored model predicts identically to the original and can
// continue streaming.
type modelState struct {
	Version    int
	Cfg        Config
	Items      int
	Workers    int
	Labels     int
	M, T       int
	Kappa      []float64
	Phi        []float64
	Lambda     []float64
	Zeta       []float64
	Rho1, Rho2 []float64
	Ups1, Ups2 []float64
	VotedList  [][]int
	YhatVals   [][]float64
	Relm       []float64
	WorkerRelW []float64
	TprM, FprM []float64
	VoteLW     []float64
	MissLW     []float64
	LabelPrev  []float64
	HaveRates  bool
	BatchIndex int
	Fitted     bool
	// Per-worker two-coin count accumulators and the ω-blended running SVI
	// worker-model statistics. Both accumulate across PartialFit rounds, so
	// omitting them would make a restored model's subsequent rounds diverge
	// from the original's. Run* slices are nil until the first SVI round.
	TpNumU, TpDenU, FpNumU, FpDenU                    []float64
	RunTP, RunTPD, RunFP, RunFPD, RunAgree, RunAgreeD []float64
	RunPrevN, RunPrevD                                []float64
	// Revealed test-question truths (nil per item when unrevealed): the
	// imputation pins these during every later round, so a mid-stream
	// checkpoint without them would stop honouring test questions.
	Revealed [][]int
	// Ingested answers, flattened in arrival order: Load re-ingests them in
	// sequence, so the restored per-item/per-worker reference lists keep the
	// exact element order of the live model and continued PartialFit rounds
	// reduce floats in the same order (bit-for-bit recovery).
	AnsItems   []int
	AnsWorkers []int
	AnsLabels  [][]int
	// TotalAns is the monotone total-ingested count; with an AnswerWindow it
	// exceeds the retained answer count above. Absent (0) in older files,
	// where the retained count is the total.
	TotalAns int
}

const persistVersion = 1

// Save serialises the trained posterior to w (encoding/gob). See modelState
// for what is and is not persisted. The wire form stores each matrix as its
// flat row-major backing slice, so the format is unchanged by the
// internal/mat storage layer.
func (m *Model) Save(w io.Writer) error {
	st := modelState{
		Version: persistVersion,
		Cfg:     m.cfg,
		Items:   m.numItems, Workers: m.numWorkers, Labels: m.numLabels,
		M: m.M, T: m.T,
		Kappa: m.kappa.Data(), Phi: m.phi.Data(), Lambda: m.lambda.Data(), Zeta: m.zeta.Data(),
		Rho1: m.rho1, Rho2: m.rho2, Ups1: m.ups1, Ups2: m.ups2,
		YhatVals: m.yhatVals, Relm: m.relm, WorkerRelW: m.workerRelW,
		TprM: m.tprM, FprM: m.fprM, VoteLW: m.voteLW, MissLW: m.missLW,
		LabelPrev: m.labelPrev, HaveRates: m.haveRates,
		BatchIndex: m.batchIndex, Fitted: m.fitted,
		TpNumU: m.tpNumU, TpDenU: m.tpDenU, FpNumU: m.fpNumU, FpDenU: m.fpDenU,
		RunTP: m.runTP, RunTPD: m.runTPD, RunFP: m.runFP, RunFPD: m.runFPD,
		RunAgree: m.runAgree, RunAgreeD: m.runAgreeD,
		RunPrevN: m.runPrevN, RunPrevD: m.runPrevD,
		Revealed: m.revealedTruth,
		TotalAns: m.totalAns,
	}
	// The voted sets as the sorted lists the format holds: windows of one
	// flat buffer, sized from ŷ (aligned with the sets).
	nVoted := 0
	for _, vals := range m.yhatVals {
		nVoted += len(vals)
	}
	voted := make([]int, 0, nVoted)
	st.VotedList = make([][]int, m.numItems)
	for i, s := range m.votedSets {
		lo := len(voted)
		voted = s.AppendTo(voted)
		st.VotedList[i] = voted[lo:len(voted):len(voted)]
	}
	// Every interned set's members, expanded once in id order into one
	// flat buffer: each answer's labels are a window of it, so the encoding
	// holds the same sorted member lists with no allocation per answer.
	ends := make([]int, m.intern.Len()+1)
	var flat []int
	for id := range m.intern.Len() {
		flat = m.intern.AppendCanon(flat, int32(id))
		ends[id+1] = len(flat)
	}
	// The arrival index holds item ids: the k-th occurrence of an item is
	// the k-th answer of its list.
	n := len(m.arrival)
	st.AnsItems, st.AnsWorkers, st.AnsLabels = make([]int, 0, n), make([]int, 0, n), make([][]int, 0, n)
	next := make([]int32, m.numItems)
	for _, item := range m.arrival {
		ref := m.perItem[item].at(int(next[item]))
		next[item]++
		st.AnsItems = append(st.AnsItems, int(item))
		st.AnsWorkers = append(st.AnsWorkers, int(ref.other))
		lo, hi := ends[ref.set], ends[ref.set+1]
		st.AnsLabels = append(st.AnsLabels, flat[lo:hi:hi])
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// checkDims compares the header's dimensions with the saved slices that
// carry them, and its truncations with those the saved config gives, before
// NewModel allocates Items×T, Workers×M and T·M×C state from the header
// alone: decoded slices are bounded by the input, so a header that
// disagrees with them is refused without allocating for it.
func (st *modelState) checkDims() error {
	if st.Items <= 0 || st.Workers <= 0 || st.Labels <= 0 || st.M <= 0 || st.T <= 0 {
		return fmt.Errorf("%w: saved dimensions %d/%d/%d, truncations %d/%d", ErrConfig, st.Items, st.Workers, st.Labels, st.M, st.T)
	}
	cfg := st.Cfg
	cfg.fillDefaults()
	if M, T := cfg.truncations(st.Items, st.Workers); M != st.M || T != st.T {
		return fmt.Errorf("%w: truncation mismatch in saved state", ErrConfig)
	}
	for _, c := range []struct {
		n, rows, cols int
		what          string
	}{
		{len(st.Kappa), st.Workers, st.M, "kappa"},
		{len(st.Phi), st.Items, st.T, "phi"},
		{len(st.Lambda), st.T * st.M, st.Labels, "lambda"},
		{len(st.Zeta), st.T, st.Labels, "zeta"},
		{len(st.WorkerRelW), st.Workers, 1, "workerRelW"},
		{len(st.LabelPrev), st.Labels, 1, "labelPrev"},
		{len(st.VotedList), st.Items, 1, "voted lists"},
		{len(st.YhatVals), st.Items, 1, "yhat"},
	} {
		// n == rows·cols, tested by division so no product of header
		// values can overflow; T·M is bounded by the kappa and phi rows.
		if c.n%c.cols != 0 || c.n/c.cols != c.rows {
			return fmt.Errorf("%w: saved %s has %d entries for %d×%d", ErrConfig, c.what, c.n, c.rows, c.cols)
		}
	}
	return nil
}

// Load restores a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	if st.Version != persistVersion {
		return nil, fmt.Errorf("%w: model state version %d (want %d)", ErrConfig, st.Version, persistVersion)
	}
	if err := st.checkDims(); err != nil {
		return nil, err
	}
	m, err := NewModel(st.Cfg, st.Items, st.Workers, st.Labels)
	if err != nil {
		return nil, err
	}
	copyInto := func(dst, src []float64, what string) error {
		if len(dst) != len(src) {
			return fmt.Errorf("%w: saved %s has %d entries, want %d", ErrConfig, what, len(src), len(dst))
		}
		copy(dst, src)
		return nil
	}
	for _, c := range []struct {
		dst, src []float64
		what     string
	}{
		{m.kappa.Data(), st.Kappa, "kappa"}, {m.phi.Data(), st.Phi, "phi"},
		{m.lambda.Data(), st.Lambda, "lambda"}, {m.zeta.Data(), st.Zeta, "zeta"},
		{m.rho1, st.Rho1, "rho1"}, {m.rho2, st.Rho2, "rho2"},
		{m.ups1, st.Ups1, "ups1"}, {m.ups2, st.Ups2, "ups2"},
		{m.relm, st.Relm, "relm"}, {m.workerRelW, st.WorkerRelW, "workerRelW"},
		{m.tprM, st.TprM, "tprM"}, {m.fprM, st.FprM, "fprM"},
		{m.voteLW, st.VoteLW, "voteLW"}, {m.missLW, st.MissLW, "missLW"},
		{m.labelPrev, st.LabelPrev, "labelPrev"},
	} {
		if err := copyInto(c.dst, c.src, c.what); err != nil {
			return nil, err
		}
	}
	// Optional accumulators (absent in pre-serving save files, where they
	// decode as nil): restore when present, leave zero/nil otherwise.
	for _, c := range []struct {
		dst, src []float64
		what     string
	}{
		{m.tpNumU, st.TpNumU, "tpNumU"}, {m.tpDenU, st.TpDenU, "tpDenU"},
		{m.fpNumU, st.FpNumU, "fpNumU"}, {m.fpDenU, st.FpDenU, "fpDenU"},
	} {
		if c.src == nil {
			continue
		}
		if err := copyInto(c.dst, c.src, c.what); err != nil {
			return nil, err
		}
	}
	if st.RunTP != nil {
		for _, s := range [][]float64{st.RunTP, st.RunTPD, st.RunFP, st.RunFPD, st.RunAgree, st.RunAgreeD} {
			if len(s) != m.M {
				return nil, fmt.Errorf("%w: saved running accumulators have wrong length", ErrConfig)
			}
		}
		for _, s := range [][]float64{st.RunPrevN, st.RunPrevD} {
			if len(s) != m.numLabels {
				return nil, fmt.Errorf("%w: saved running prevalences have wrong length", ErrConfig)
			}
		}
		cpF := func(v []float64) []float64 { return append([]float64(nil), v...) }
		m.runTP, m.runTPD = cpF(st.RunTP), cpF(st.RunTPD)
		m.runFP, m.runFPD = cpF(st.RunFP), cpF(st.RunFPD)
		m.runAgree, m.runAgreeD = cpF(st.RunAgree), cpF(st.RunAgreeD)
		m.runPrevN, m.runPrevD = cpF(st.RunPrevN), cpF(st.RunPrevD)
	}
	if st.Revealed != nil {
		if len(st.Revealed) != m.numItems {
			return nil, fmt.Errorf("%w: saved revealed truths have wrong length", ErrConfig)
		}
		for i, truth := range st.Revealed {
			// Keep unrevealed items nil: gob does not distinguish nil from
			// empty, and the kernels treat non-nil as "truth revealed".
			if len(truth) == 0 {
				continue
			}
			for _, c := range truth {
				if c < 0 || c >= m.numLabels {
					return nil, fmt.Errorf("%w: saved revealed label %d out of range", ErrConfig, c)
				}
			}
			m.revealedTruth[i] = truth
		}
	}
	if len(st.VotedList) != m.numItems || len(st.YhatVals) != m.numItems {
		return nil, fmt.Errorf("%w: saved per-item state has wrong length", ErrConfig)
	}
	for i, voted := range st.VotedList {
		// ŷ is aligned with the set's members in ascending order, so the
		// list must be strictly ascending labels to convert.
		for k, c := range voted {
			if c < 0 || c >= m.numLabels || (k > 0 && c <= voted[k-1]) {
				return nil, fmt.Errorf("%w: item %d voted list %v is not strictly ascending labels in [0, %d)", ErrConfig, i, voted, m.numLabels)
			}
		}
		if len(voted) != len(st.YhatVals[i]) {
			return nil, fmt.Errorf("%w: item %d voted/yhat length mismatch", ErrConfig, i)
		}
		m.votedSets[i] = labelset.FromSlice(voted)
		m.yhatVals[i] = st.YhatVals[i]
	}
	if len(st.AnsItems) != len(st.AnsWorkers) || len(st.AnsItems) != len(st.AnsLabels) {
		return nil, fmt.Errorf("%w: saved answers malformed", ErrConfig)
	}
	for k, item := range st.AnsItems {
		worker := st.AnsWorkers[k]
		if item < 0 || item >= m.numItems || worker < 0 || worker >= m.numWorkers {
			return nil, fmt.Errorf("%w: saved answer (%d,%d) out of range", ErrConfig, item, worker)
		}
		for _, c := range st.AnsLabels[k] {
			if c < 0 || c >= m.numLabels {
				return nil, fmt.Errorf("%w: saved answer label %d out of range", ErrConfig, c)
			}
		}
		// Re-intern the persisted canonical slice: the restored refs carry
		// the same set ids in the same order as a model that ingested the
		// stream live (ids are assigned first-seen, and the wire form
		// preserves arrival order), so every id-keyed read — panels,
		// membership tests — behaves bit-identically after a reload.
		m.store(item, worker, m.intern.InternSlice(st.AnsLabels[k]))
	}
	// Restore the monotone stream total; older files without the field fall
	// back to the retained count, which was the total before windowing.
	m.totalAns = st.TotalAns
	if m.totalAns < m.numAns {
		m.totalAns = m.numAns
	}
	m.haveRates = st.HaveRates
	m.batchIndex = st.BatchIndex
	m.fitted = st.Fitted
	m.streamFitted = st.BatchIndex > 0
	// Reseed the RNG deterministically past the saved progress. The
	// expectations are not state: each call computes its own.
	m.rng = rand.New(rand.NewSource(st.Cfg.Seed + int64(st.BatchIndex) + 1))
	// Sanity: parameters must be positive.
	for _, v := range m.lambda.Data() {
		if v <= 0 {
			return nil, fmt.Errorf("%w: non-positive lambda in saved state", ErrConfig)
		}
	}
	return m, nil
}
