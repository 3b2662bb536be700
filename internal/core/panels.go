package core

import (
	"slices"
	"sync"

	"cpa/internal/mathx"
)

// Label-set score panels.
//
// Every score kernel's data term depends on an answer only through its
// label set: E[ln p(x_iu | ψ_tm)] = Σ_{c∈x_iu} E[ln ψ_tmc]. Interning label
// sets (labelset.Interner) therefore lets the model cache, per distinct
// set, the full T×M panel S[t·M+m] = Σ_{c∈set} elogPsi[t][m][c] — after
// which the inference inner loops stop gathering |set| strided entries per
// (answer, t, m) and become contiguous row AXPYs / dots over the panel.
//
// Two cache families exist:
//
//   - The sum-panel cache over elogPsi (panelCache, behind a Model
//     pointer). Panels are valid per expectation generation:
//     refreshExpectations bumps Model.expGen, and scorePanel refuses to
//     serve a slot whose build generation differs — a stale panel can never
//     be read, even if a caller forgets the ensure step. Builds happen at
//     serial sync points, demand-driven: the batch engine brings every
//     admitted set current before a full pass (ensureScorePanels), while the
//     SVI engine brings only the round's label sets current
//     (ensureScorePanelsFor) — a PartialFit round scores just its
//     mini-batch, so rebuilding the whole universe each round would cost
//     O(distinct sets), not O(batch). The panels are per-call working
//     memory: they live, with the transposed cube and the expectations
//     they are filled from, in the call's callWork, which the call
//     (PartialFit, Fit, FinalizeOnline, ELBO) gives back with every slot
//     marked unbuilt. Only the slot bookkeeping — which sets are admitted,
//     where, at which generation — is job state. A serving job holds one
//     cache: the Publisher's clone shares the live model's (DESIGN.md §9).
//
//   - Product panels over a posterior-mean or MAP cube (prodCache, in
//     workScratch): P[m·T+t] = Π_{c∈set} max(cube[t][m][c], 1e-12), used by
//     the data-log-lik diagnostic and the §3.4 prediction weights. The cube
//     changes per call, so these are rebuilt by buildProductPanels at each
//     call site and valid only until the next build.
//
// Bit-exactness: panels accumulate over the set's members in canonical
// (ascending) order — exactly answerScore's (and the legacy product loops')
// float-operation order — so a kernel reading a panel produces the same
// bits as the scalar fallback it replaces. Cache admission is therefore
// value-transparent: any set without a panel (below the reuse threshold,
// over the memory budget, or cache disabled) takes the scalar path and
// yields identical results, just slower. The panelsDisabled test hook
// exploits this to pin enabled ≡ disabled equivalence.
const (
	// panelBudgetFloats bounds each cache's backing array (64 MB of
	// float64s). Sets beyond the budget fall back to the scalar path.
	panelBudgetFloats = (64 << 20) / 8
	// sumPanelMinCount gates sum-panel admission by reuse, on both engines:
	// a cached slot is rebuilt every expectation generation whether or not
	// its answers are rescored that often, so it must amortise against
	// several fallback walks. Low-reuse sets don't get slots — but they no
	// longer pay the scalar gather price either: the score kernels run the
	// fused gather-sum kernels straight off the transposed cube
	// (scratchOffs), identical bits, no persistent memory. Measured across
	// the bench profiles, admitting singletons (threshold 1) loses to the
	// fused path: the per-generation rebuild of thousands of one-shot
	// slots plus the cache-thrash of a panels working set outweighs the
	// build it saves.
	sumPanelMinCount = 3
	// prodPanelMinCount keeps the reuse gate for product panels: unlike sum
	// panels (read by two score kernels per occurrence), a product panel is
	// read once per occurrence, so a count-1 set's build (|set|·T·M
	// multiplies via mathx.MulFloor) costs exactly the fallback walk
	// it would replace and saves nothing.
	prodPanelMinCount = 2
)

// panelCache is the generation-guarded sum-panel cache over elogPsi. Its
// slot bookkeeping (a few int32 per set) is job state; the panel contents
// and the transposed cube they are filled from live in the call's work
// (callWork.buf, callWork.psiT), so no panel outlives its call.
type panelCache struct {
	slot     []int32  // set id → slot index, -1 when not admitted
	ids      []int32  // slot → set id
	gens     []uint64 // slot → expGen its contents were built from
	slots    int
	scratch  []int32 // stale-slot worklist reused across builds
	disabled bool    // test hook: force every kernel onto the scalar path
}

// panelScratchPool recycles the score kernels' per-call gather-offset
// scratch (scratchOffs/poolOffs) across goroutines, sweeps, and models —
// the buffers carry no model state, so one package pool serves all. Kept
// out of panelCache so one pool serves every cache.
var panelScratchPool sync.Pool

// shapePool lends the working memory one call fully rewrites — a
// publication's finalize clone, the call work — across every model in the
// process (DESIGN.md §8, §9): one sync.Pool per key, which holds every
// dimension that sizes the buffer (the call work's panel buffer and blend
// rows are the exceptions: each borrower extends them as needed).
// One borrower holds a buffer at a time and gives it back with no
// reference to its model's state, so jobs of one shape share working
// memory and an idle job's goes to the GC.
type shapePool[K comparable, T any] struct {
	mu    sync.Mutex
	pools map[K]*sync.Pool
}

var (
	clonePool shapePool[shapeKey, Model]
	workPool  shapePool[shapeKey, callWork]
)

// shapeKey holds the dimensions that size a clone or a callWork.
type shapeKey struct{ items, workers, labels, m, t int }

// poolPutHook, when set, sees every buffer as it goes back to its pool. It
// is a test seam (pool hygiene) and must be set while no model is in use.
var poolPutHook func(x any)

func (s *shapePool[K, T]) pool(k K) *sync.Pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pools == nil {
		s.pools = map[K]*sync.Pool{}
	}
	if s.pools[k] == nil {
		s.pools[k] = new(sync.Pool)
	}
	return s.pools[k]
}

// get returns a free buffer of shape k, or nil when there is none.
func (s *shapePool[K, T]) get(k K) *T {
	x, _ := s.pool(k).Get().(*T)
	return x
}

// put gives x back; the caller keeps no reference to it.
func (s *shapePool[K, T]) put(k K, x *T) {
	if poolPutHook != nil {
		poolPutHook(x)
	}
	s.pool(k).Put(x)
}

// admit assigns a slot to set id if it has none and the budget allows.
func (p *panelCache) admit(id int32, maxSlots int) {
	for int(id) >= len(p.slot) {
		p.slot = append(p.slot, -1)
	}
	if p.slot[id] >= 0 || p.slots >= maxSlots {
		return
	}
	p.slot[id] = int32(p.slots)
	p.ids = append(p.ids, id)
	p.gens = append(p.gens, 0) // generation 0 is never current (expGen ≥ 1)
	p.slots++
}

// ensureScorePanels brings every admitted (and admissible) set's panel up
// to date with the current expectations — the batch-engine sync point,
// called before a full pass over the stored answers. Admission is gated by
// reuse (sumPanelMinCount). Must run serially; afterwards scorePanel is
// safe for concurrent readers. Fills shard per slot — disjoint writes, so
// results are identical for every Parallelism.
func (m *Model) ensureScorePanels() {
	p := m.panels
	if p.disabled {
		return
	}
	maxSlots := panelBudgetFloats / (m.T * m.M)
	n := m.intern.Len()
	for id := 0; id < n && p.slots < maxSlots; id++ {
		if m.intern.Count(int32(id)) >= sumPanelMinCount {
			p.admit(int32(id), maxSlots)
		}
	}
	m.buildStalePanels()
}

// ensureScorePanelsFor is the SVI sync point: it admits and refreshes
// panels only for the given round's answers, keeping per-round panel work
// O(batch) regardless of how many distinct sets the stream has seen.
// Panels of sets outside the round stay at their old generation and simply
// fall back to the scalar path if read before their next refresh.
func (m *Model) ensureScorePanelsFor(tuples []batchAns) {
	p := m.panels
	if p.disabled {
		return
	}
	maxSlots := panelBudgetFloats / (m.T * m.M)
	stale := p.scratch[:0]
	for _, ba := range tuples {
		// Same reuse gate as the batch path: a panel built this round is
		// stale by the next (expectations refresh every round), so it must
		// amortise within the round — across repeats of the set in this
		// batch and the two local passes.
		if m.intern.Count(ba.set) >= sumPanelMinCount {
			p.admit(ba.set, maxSlots)
		}
		if int(ba.set) >= len(p.slot) {
			continue
		}
		if s := p.slot[ba.set]; s >= 0 && p.gens[s] != m.expGen {
			stale = append(stale, s)
			p.gens[s] = m.expGen // also dedupes repeats within the round
		}
	}
	p.scratch = stale
	m.buildPanelSlots(stale)
}

// buildStalePanels refills every admitted slot whose build generation is
// behind the current expectations — the batch-engine worklist, where the
// following pass reads every stored answer.
func (m *Model) buildStalePanels() {
	p := m.panels
	stale := p.scratch[:0]
	for s := 0; s < p.slots; s++ {
		if p.gens[s] != m.expGen {
			stale = append(stale, int32(s))
			p.gens[s] = m.expGen
		}
	}
	p.scratch = stale
	m.buildPanelSlots(stale)
}

// buildPanelSlots fills the listed slots from the current expectations, in
// parallel (disjoint writes — identical results for every Parallelism).
// Callers have already stamped the slots' generations.
func (m *Model) buildPanelSlots(slots []int32) {
	m.ensurePsiT()
	if len(slots) == 0 {
		return
	}
	w := m.work
	if n := m.panels.slots * m.T * m.M; n > len(w.buf) {
		// A borrowed buffer may be longer than this model needs (another
		// job's, or one from before a compaction): only extend.
		w.buf = slices.Grow(w.buf, n-len(w.buf))[:n]
	}
	m.parallelFor(len(slots), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			m.fillScorePanel(int(slots[k]))
		}
	})
}

// ensurePsiT brings the transposed cube current with the call's
// expectations (refreshExpectations has run). Called from the serial
// ensure* sync points (directly and via buildPanelSlots), so the parallel
// panel fills and the score kernels' gather-sum fallbacks always read a
// current psiT; scratchOffs still checks the generation to stay safe
// outside that window.
func (m *Model) ensurePsiT() {
	w := m.work
	if m.panels.disabled || w.psiTGen == m.expGen {
		return
	}
	if w.psiT == nil {
		w.psiT = make([]float64, m.T*m.M*m.numLabels)
		w.psiTm = make([]float64, m.T*m.M*m.numLabels)
	}
	m.transposePsi()
	w.psiTGen = m.expGen
}

// transposePsi refreshes the column-major elogPsi copies the panel fills
// and the gather kernels read: psiT cluster-major, psiTm community-major.
// Serial (called from the serial sync points before the parallel fill);
// values are copied verbatim, so downstream sums see exactly the cube's
// bits.
func (m *Model) transposePsi() {
	TM := m.T * m.M
	C := m.numLabels
	psi := m.work.elogPsi.Data()
	psiT := m.work.psiT
	for r := 0; r < TM; r++ {
		for c, v := range psi[r*C : (r+1)*C] {
			psiT[c*TM+r] = v
		}
	}
	m.communityMajor(psi, m.work.psiTm)
}

// communityMajor copies a (T·M)×C row-major cube into dst label-major and
// community-major — dst[c·TM + m·T + t] = cube[(t·M+m)·C + c] — so one
// community's T entries of a label are one contiguous run. Values are
// copied verbatim.
func (m *Model) communityMajor(cube, dst []float64) {
	T, M, C := m.T, m.M, m.numLabels
	TM := T * M
	for t := 0; t < T; t++ {
		for mm := 0; mm < M; mm++ {
			r := t*M + mm
			for c, v := range cube[r*C : (r+1)*C] {
				dst[c*TM+mm*T+t] = v
			}
		}
	}
}

// fillScorePanel computes slot s's panel: for every row r of the elogPsi
// cube, the sum over the set's members in canonical (ascending) order —
// the answerScore order, the bit-exactness contract. The fill reads the
// transposed cube (psiT, refreshed by buildPanelSlots): one contiguous
// vector-add pass per member, so dst[r] accumulates the members in exactly
// the canonical order answerScore uses — the loop interchange moves zero
// bits, it only turns the inner loop into a full-width kernel.
func (m *Model) fillScorePanel(s int) {
	TM := m.T * m.M
	dst := m.work.buf[s*TM : (s+1)*TM]
	psiT := m.work.psiT
	mathx.Fill(dst, 0)
	m.intern.At(m.panels.ids[s]).Range(func(c int) bool {
		mathx.AddStrided(dst, psiT[c*TM:(c+1)*TM], 1)
		return true
	})
}

// scorePanel returns the set's T×M sum panel, or nil when the set has no
// current-generation panel (not admitted, over budget, stale generation,
// no call work held, or cache disabled) — the caller then takes the
// fallback path, which produces identical bits.
func (m *Model) scorePanel(id int32) []float64 {
	p := m.panels
	if p.disabled || m.work == nil || int(id) >= len(p.slot) {
		return nil
	}
	s := p.slot[id]
	if s < 0 || p.gens[s] != m.expGen {
		return nil
	}
	TM := m.T * m.M
	return m.work.buf[int(s)*TM : (int(s)+1)*TM]
}

// scratchOffs hands the score kernels a pool-recycled n-length offset
// slice for the fused gather-sum kernels (mathx.AxpyGatherSum /
// FlooredDotGatherSumGroups) when the transposed cube is current. Sets
// without a cached slot (below the reuse threshold or over budget) then
// still run full-width vector kernels: the gather kernel reads the set's |offs|
// contiguous psiT runs directly — one fused pass, no intermediate panel
// row — in the canonical member order, so the bits match both the cached
// panel and the scalar fallback. Returns nil when the cache is disabled
// (the truly-scalar test hook) or psiT is stale (kernel call outside the
// ensure window); the caller then takes the scalar path.
func (m *Model) scratchOffs(scratch **panelScratch, n int) []int {
	if m.panels.disabled || m.work == nil || m.work.psiTGen != m.expGen {
		return nil
	}
	return m.poolOffs(scratch, n)
}

// poolOffs is scratchOffs without the generation/disabled gate, for callers
// that gather from their own call-scoped transposed cube (dataLogLik's
// psiMeanT) rather than the panels' elogPsi transpose — those reads are
// always current by construction, so no gate applies.
func (m *Model) poolOffs(scratch **panelScratch, n int) []int {
	s := borrowScratch(scratch)
	if cap(s.offs) < n {
		s.offs = make([]int, n)
	}
	return s.offs[:n]
}

// canonScratch expands set id's members, in canonical order, into the
// scratch's member buffer (borrowing the scratch first if needed) and
// returns them; they stay valid until the next canonScratch on the same
// scratch.
func (m *Model) canonScratch(scratch **panelScratch, id int32) []int {
	s := borrowScratch(scratch)
	s.canon = m.intern.AppendCanon(s.canon[:0], id)
	return s.canon
}

// borrowScratch returns *scratch, taking one from panelScratchPool first
// if the caller holds none.
func borrowScratch(scratch **panelScratch) *panelScratch {
	if *scratch == nil {
		s, _ := panelScratchPool.Get().(*panelScratch)
		if s == nil {
			s = new(panelScratch)
		}
		*scratch = s
	}
	return *scratch
}

// panelScratch is the pool unit for scratchOffs: pooling the container
// (not the slice) keeps Get/Put allocation-free in steady state. groups is
// the companion survivor-group worklist (mathx.FloorGroups) scorePhiRefs
// computes once per answer and reuses across all T cluster reductions;
// canon holds one answer's expanded members (canonScratch).
type panelScratch struct {
	offs   []int
	groups []int32
	canon  []int
	row    []float64 // one answer's T cluster reductions (scorePhiRefs)
}

// tRow returns the scratch's T-length row, zeroed.
func (s *panelScratch) tRow(T int) []float64 {
	if cap(s.row) < T {
		s.row = make([]float64, T)
	}
	s.row = s.row[:T]
	clear(s.row)
	return s.row
}

// putScratchPanel returns a scratch panel to the pool; nil-safe so callers
// can release unconditionally.
func (m *Model) putScratchPanel(scratch *panelScratch) {
	if scratch != nil {
		panelScratchPool.Put(scratch)
	}
}

// prodCache caches per-set product panels against a caller-supplied cube.
// It lives in workScratch: per model, single-writer, rebuilt per call site.
type prodCache struct {
	slot  []int32
	ids   []int32
	buf   []float64
	slots int
}

// reset drops every slot, keeping the storage for the next build. Slots
// are keyed by interned set id, so they must go whenever the interner the
// cache was built against is replaced (a window compaction, or a finalize
// clone moving to another job).
func (pc *prodCache) reset() {
	*pc = prodCache{slot: pc.slot[:0], ids: pc.ids[:0], buf: pc.buf}
}

// panel returns the set's product panel from the latest build, or nil.
func (pc *prodCache) panel(id int32, TM int) []float64 {
	if int(id) >= len(pc.slot) {
		return nil
	}
	s := pc.slot[id]
	if s < 0 {
		return nil
	}
	return pc.buf[int(s)*TM : (int(s)+1)*TM]
}

// transposeCube copies a (T·M)×C row-major cube (ψ^MAP, or the posterior
// mean ψ̄) into the call work's cubeT, label-major and community-major
// (communityMajor), and returns it. A serial sync point.
func (m *Model) transposeCube(cube []float64) []float64 {
	w := m.borrowWork()
	if w.cubeT == nil {
		w.cubeT = make([]float64, m.T*m.M*m.numLabels)
	}
	m.communityMajor(cube, w.cubeT)
	return w.cubeT
}

// buildProductPanels fills the scratch product-panel cache against a
// transposed cube (transposeCube of ψ̄ for the log-lik diagnostic, of
// ψ^MAP for prediction). Panels are m-major: panel[m·T+t] = Π_{c∈set}
// max(cube[(t·M+m)·C+c], 1e-12), multiplied in canonical order — the
// legacy per-answer product order — so each community's T likelihoods are
// one contiguous run, which prediction adds across clusters in one
// mathx.Axpy. Returns nil when the cache is disabled. Must be called from
// a serial sync point; the returned cache is read-only until the next
// build.
func (m *Model) buildProductPanels(cubeT []float64) *prodCache {
	if m.panels.disabled {
		return nil
	}
	pc := &m.ws.prod
	TM := m.T * m.M
	maxSlots := panelBudgetFloats / TM
	n := m.intern.Len()
	for len(pc.slot) < n {
		pc.slot = append(pc.slot, -1)
	}
	for id := 0; id < n && pc.slots < maxSlots; id++ {
		if pc.slot[id] >= 0 || m.intern.Count(int32(id)) < prodPanelMinCount {
			continue
		}
		pc.slot[id] = int32(pc.slots)
		pc.ids = append(pc.ids, int32(id))
		pc.slots++
	}
	// The cube differs between calls, so every slot refills every build:
	// growth copies nothing, and a quarter of headroom bounds the slack.
	if n := pc.slots * TM; cap(pc.buf) < n {
		pc.buf = make([]float64, n, n+n/4)
	}
	pc.buf = pc.buf[:pc.slots*TM]
	// Each dst entry multiplies the floored members in canonical order,
	// one contiguous kernel pass over the member's T·M run per member —
	// bit-identical to the legacy per-row product loop.
	m.parallelFor(pc.slots, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			dst := pc.buf[s*TM : (s+1)*TM]
			mathx.Fill(dst, 1)
			m.intern.At(pc.ids[s]).Range(func(c int) bool {
				mathx.MulFloor(dst, cubeT[c*TM:(c+1)*TM], 1e-12)
				return true
			})
		}
	})
	return pc
}
