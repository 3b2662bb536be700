package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/datasets"
)

// streamInBatches drives PartialFit over the dataset's answers with the
// model's batch size and publishes a snapshot after every round, returning
// the final incremental view (the serving-shaped loop).
func streamInBatches(t *testing.T, m *Model, pub *Publisher, ans []answers.Answer) *ConsensusView {
	t.Helper()
	size := m.Config().BatchSize
	var view *ConsensusView
	for start := 0; start < len(ans); start += size {
		end := start + size
		if end > len(ans) {
			end = len(ans)
		}
		if err := m.PartialFit(ans[start:end]); err != nil {
			t.Fatal(err)
		}
		v, _, err := pub.Publish(false)
		if err != nil {
			t.Fatal(err)
		}
		view = v
	}
	return view
}

func sameMatrix(t *testing.T, what string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d has %d vs %d entries", what, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: entry (%d,%d) differs: %v vs %v (must be bit-identical)", what, i, j, a[i][j], b[i][j])
			}
		}
	}
}

func sameViews(t *testing.T, what string, a, b *ConsensusView) {
	t.Helper()
	if len(a.Items) != len(b.Items) {
		t.Fatalf("%s: %d vs %d items", what, len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if !reflect.DeepEqual(a.Items[i].Labels, b.Items[i].Labels) {
			t.Fatalf("%s: item %d labels %v vs %v", what, i, a.Items[i].Labels, b.Items[i].Labels)
		}
		al, av := splitCandidates(a.Items[i].Candidates)
		bl, bv := splitCandidates(b.Items[i].Candidates)
		if !reflect.DeepEqual(al, bl) {
			t.Fatalf("%s: item %d candidates differ", what, i)
		}
		if len(av) != len(bv) {
			t.Fatalf("%s: item %d confidence lengths differ", what, i)
		}
		for k := range av {
			if av[k] != bv[k] {
				t.Fatalf("%s: item %d confidence[%d] %v vs %v (must be bit-identical)", what, i, k, av[k], bv[k])
			}
		}
	}
}

// TestPanelCacheEquivalence is the tentpole pin: inference with the
// label-set score-panel cache force-disabled must be bit-identical to the
// cached path — same κ/ϕ, same imputed ŷ, same published snapshots — on
// identical shuffled streams, across Parallelism 1/4/8, on both engines.
// The movie profile has a small label vocabulary, so its streams reuse
// label sets heavily and genuinely exercise the cached fast path.
func TestPanelCacheEquivalence(t *testing.T) {
	base, _, err := datasets.Load("movie", 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds := base.Shuffled(rand.New(rand.NewSource(41)))
	for _, par := range []int{1, 4, 8} {
		newModel := func(disabled bool) *Model {
			m, err := NewModel(Config{Seed: 9, Parallelism: par, BatchSize: 96, MaxIter: 8},
				ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			m.panels.disabled = disabled
			return m
		}

		// Streaming engine, serving-shaped: PartialFit + per-round publish
		// (incremental snapshots), then a final full publication.
		mOn, mOff := newModel(false), newModel(true)
		pubOn, pubOff := NewPublisher(mOn), NewPublisher(mOff)
		viewOn := streamInBatches(t, mOn, pubOn, ds.Answers())
		viewOff := streamInBatches(t, mOff, pubOff, ds.Answers())
		if mOn.panels.slots == 0 {
			t.Fatal("panel cache never admitted a set: the equivalence test is vacuous")
		}
		sameMatrix(t, "stream kappa", [][]float64{mOn.kappa.Data()}, [][]float64{mOff.kappa.Data()})
		sameMatrix(t, "stream phi", [][]float64{mOn.phi.Data()}, [][]float64{mOff.phi.Data()})
		sameMatrix(t, "stream yhat", mOn.yhatVals, mOff.yhatVals)
		sameViews(t, "incremental snapshot", viewOn, viewOff)
		fullOn, _, err := pubOn.Publish(true)
		if err != nil {
			t.Fatal(err)
		}
		fullOff, _, err := pubOff.Publish(true)
		if err != nil {
			t.Fatal(err)
		}
		sameViews(t, "full snapshot", fullOn, fullOff)

		// Batch engine.
		bOn, bOff := newModel(false), newModel(true)
		if _, err := bOn.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if _, err := bOff.Fit(ds); err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, "fit kappa", [][]float64{bOn.kappa.Data()}, [][]float64{bOff.kappa.Data()})
		sameMatrix(t, "fit phi", [][]float64{bOn.phi.Data()}, [][]float64{bOff.phi.Data()})
		sameMatrix(t, "fit lambda", [][]float64{bOn.lambda.Data()}, [][]float64{bOff.lambda.Data()})
		sameMatrix(t, "fit yhat", bOn.yhatVals, bOff.yhatVals)
		predOn, err := bOn.Predict()
		if err != nil {
			t.Fatal(err)
		}
		predOff, err := bOff.Predict()
		if err != nil {
			t.Fatal(err)
		}
		for i := range predOn {
			if !predOn[i].Equal(predOff[i]) {
				t.Fatalf("P=%d: item %d predicted %v with panels, %v without", par, i, predOn[i], predOff[i])
			}
		}
	}
}

// TestScorePanelMatchesAnswerScore pins the bit-exactness contract at the
// unit level: an admitted panel's entries equal answerScore on the set's
// expanded canonical members, bit for bit.
func TestScorePanelMatchesAnswerScore(t *testing.T) {
	ds, _, err := datasets.Load("movie", 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Config{Seed: 2, BatchSize: 64}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitStream(ds); err != nil {
		t.Fatal(err)
	}
	m.refreshExpectations()
	m.ensureScorePanels()
	checked := 0
	for id := int32(0); int(id) < m.intern.Len(); id++ {
		panel := m.scorePanel(id)
		if panel == nil {
			continue
		}
		canon := m.intern.AppendCanon(nil, id)
		for tt := 0; tt < m.T; tt++ {
			for mm := 0; mm < m.M; mm++ {
				if got, want := panel[tt*m.M+mm], m.answerScore(tt, mm, canon); got != want {
					t.Fatalf("panel[set %d][%d,%d] = %v, answerScore = %v (must be bit-identical)", id, tt, mm, got, want)
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no panels admitted: test is vacuous")
	}
}

// TestScorePanelStaleGenerationNeverServed pins the invalidation protocol:
// after refreshExpectations, a panel built against the previous
// expectations must not be readable until the next ensure pass rebuilds it.
func TestScorePanelStaleGenerationNeverServed(t *testing.T) {
	ds, _, err := datasets.Load("movie", 0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Config{Seed: 4, BatchSize: 64}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitStream(ds); err != nil {
		t.Fatal(err)
	}
	m.refreshExpectations()
	m.ensureScorePanels()
	var admitted int32 = -1
	for id := int32(0); int(id) < m.intern.Len(); id++ {
		if m.scorePanel(id) != nil {
			admitted = id
			break
		}
	}
	if admitted < 0 {
		t.Fatal("no panels admitted")
	}
	// Move the parameters and refresh: the old panel content is stale.
	m.lambda.Set(0, 0, m.lambda.At(0, 0)*1.5)
	m.refreshExpectations()
	if m.scorePanel(admitted) != nil {
		t.Fatal("stale-generation panel served after refreshExpectations")
	}
	// The ensure pass rebuilds against the new expectations.
	m.ensureScorePanels()
	panel := m.scorePanel(admitted)
	if panel == nil {
		t.Fatal("panel not rebuilt by ensureScorePanels")
	}
	canon := m.intern.AppendCanon(nil, admitted)
	if got, want := panel[0], m.answerScore(0, 0, canon); got != want {
		t.Fatalf("rebuilt panel[0] = %v, want fresh answerScore %v", got, want)
	}
}

// TestModelAtRestHoldsNoPanelBuffer pins the call work — the expectations
// E[ln π], E[ln τ], E[ln ψ], E[ln φ], the panel work, the finalize scratch
// and the training buffers — as per-call working memory: after PartialFit
// (window compactions included), a full and an incremental publication,
// FinalizeOnline, batch Fit, ELBO and Load, the model holds no callWork
// and reaches no buffer of one that went back to its pool, every unit it
// borrowed went back with no transposed cube marked current, no finalize
// clone went back holding one, every slot reads unbuilt, and scorePanel
// serves nothing even at the generation the panels were built at. It also
// holds a steady PartialFit round to 40 allocations: the pool unit is
// pointer-held, so borrowing and returning it allocate nothing.
func TestModelAtRestHoldsNoPanelBuffer(t *testing.T) {
	returned := 0
	units := map[*callWork]bool{}
	prevPut := poolPutHook
	poolPutHook = func(x any) {
		if w, ok := x.(*callWork); ok {
			returned++
			units[w] = true
			if w.psiTGen != 0 {
				t.Errorf("a unit went back with its transposed cube marked current (generation %d)", w.psiTGen)
			}
		}
		if c, ok := x.(*Model); ok && c.work != nil {
			t.Error("a finalize clone went back to its pool holding call work")
		}
		if prevPut != nil {
			prevPut(x)
		}
	}
	t.Cleanup(func() { poolPutHook = prevPut })
	atRest := func(what string, m *Model, borrowed bool) {
		t.Helper()
		if m.work != nil {
			t.Fatalf("%s: the model holds its call work at rest", what)
		}
		if borrowed && returned == 0 {
			t.Fatalf("%s: no call work went back to its pool", what)
		}
		returned = 0
		held := storageOf(m)
		for w := range units {
			for addr := range storageOf(w) {
				if held[addr] {
					t.Fatalf("%s: the model still reaches a pooled call-work buffer at %#x", what, addr)
				}
			}
		}
		p := m.panels
		for s, g := range p.gens {
			if g != 0 {
				t.Fatalf("%s: slot %d still reads built at generation %d", what, s, g)
			}
		}
		for s, id := range p.ids {
			if m.scorePanel(id) != nil {
				t.Fatalf("%s: slot %d served a panel with no call work held", what, s)
			}
		}
	}

	ds := loadShuffled(t, "image", 0.08, 11)
	cfg := Config{Seed: 11, BatchSize: 64, AnswerWindow: 256}
	m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	atRest("NewModel", m, false)
	pub := NewPublisher(m)
	compactions, maxSlots := 0, 0
	for round, b := range ds.Batches(cfg.BatchSize) {
		intern := m.intern
		if err := m.PartialFit(b.Answers); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("round %d PartialFit", round)
		if m.intern != intern {
			compactions++
			what += " (window compaction)"
		}
		maxSlots = max(maxSlots, m.panels.slots)
		atRest(what, m, true)
		full := round%2 == 0
		if _, _, err := pub.Publish(full); err != nil {
			t.Fatal(err)
		}
		// A full publication's clone builds every admitted panel in the
		// shared cache and gives its work back; an incremental one borrows
		// the live model's work for the cluster priors.
		atRest(fmt.Sprintf("round %d Publish(%v)", round, full), m, true)
	}
	if compactions < 2 {
		t.Fatalf("AnswerWindow compacted %d times, want at least 2", compactions)
	}
	if maxSlots == 0 {
		t.Fatal("no panels admitted: the cache went unexercised")
	}
	m.ELBO()
	atRest("streamed ELBO", m, true)
	m.FinalizeOnline()
	atRest("FinalizeOnline", m, true)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	atRest("Load", loaded, false)
	if _, _, err := NewPublisher(loaded).Publish(true); err != nil {
		t.Fatal(err)
	}
	atRest("reloaded Publish(true)", loaded, true)

	fit, err := NewModel(Config{Seed: 11, MaxIter: 5}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fit.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if fit.panels.slots == 0 {
		t.Fatal("batch Fit admitted no panels")
	}
	atRest("batch Fit", fit, true)
	fit.ELBO()
	atRest("batch ELBO", fit, true)
	if len(units) == 0 {
		t.Fatal("no call work went through the pool")
	}

	if raceEnabled {
		return // sync.Pool drops Puts at random under -race
	}
	if allocs := steadyPartialFitAllocs(t); allocs > 40 {
		t.Errorf("steady-state PartialFit allocates %.1f times per round, want <= 40", allocs)
	}
}
