package core

import (
	"math"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/labelset"
	"cpa/internal/mathx"
)

// TestUpdateSticksHandComputed checks Eqs. (4)–(5) against a hand-computed
// two-community example.
func TestUpdateSticksHandComputed(t *testing.T) {
	m, err := NewModel(Config{Seed: 1, MaxCommunities: 3, MaxClusters: 2, Alpha: 2, Epsilon: 1.5}, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pin κ and ϕ to known values (3 workers × 3 communities, 2 items × 2
	// clusters).
	copy(m.kappa.Data(), []float64{
		0.7, 0.2, 0.1,
		0.1, 0.8, 0.1,
		0.3, 0.3, 0.4,
	})
	copy(m.phi.Data(), []float64{
		0.6, 0.4,
		0.2, 0.8,
	})
	m.updateSticks()
	// Column sums: [1.1, 1.3, 0.6].
	// ρ_11 = 1 + 1.1; ρ_12 = α + (1.3+0.6).
	if math.Abs(m.rho1[0]-2.1) > 1e-12 || math.Abs(m.rho2[0]-(2+1.9)) > 1e-12 {
		t.Errorf("rho[0] = (%v,%v), want (2.1,3.9)", m.rho1[0], m.rho2[0])
	}
	// ρ_21 = 1 + 1.3; ρ_22 = α + 0.6.
	if math.Abs(m.rho1[1]-2.3) > 1e-12 || math.Abs(m.rho2[1]-2.6) > 1e-12 {
		t.Errorf("rho[1] = (%v,%v), want (2.3,2.6)", m.rho1[1], m.rho2[1])
	}
	// Cluster sums: [0.8, 1.2]; υ_11 = 1.8, υ_12 = ε + 1.2.
	if math.Abs(m.ups1[0]-1.8) > 1e-12 || math.Abs(m.ups2[0]-2.7) > 1e-12 {
		t.Errorf("ups[0] = (%v,%v), want (1.8,2.7)", m.ups1[0], m.ups2[0])
	}
}

// TestUpdateLambdaHandComputed checks Eq. (6) on a single answer.
func TestUpdateLambdaHandComputed(t *testing.T) {
	m, err := NewModel(Config{Seed: 1, MaxCommunities: 2, MaxClusters: 2, GammaPrior: 0.5}, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// M and T clamp to the data dimensions (1 worker, 1 item).
	M, T := m.Truncations()
	if M != 1 || T != 1 {
		t.Fatalf("expected clamped truncations (1,1), got (%d,%d)", M, T)
	}
	ds, _ := answers.NewDataset("one", 1, 1, 3)
	if err := ds.Add(0, 0, labelset.Of(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.loadDataset(ds); err != nil {
		t.Fatal(err)
	}
	m.kappa.Set(0, 0, 1)
	m.phi.Set(0, 0, 1)
	m.updateLambda()
	// λ_000 = γ + 1, λ_001 = γ, λ_002 = γ + 1.
	want := []float64{1.5, 0.5, 1.5}
	for c, w := range want {
		if math.Abs(m.lambda.Data()[c]-w) > 1e-12 {
			t.Errorf("lambda[%d] = %v, want %v", c, m.lambda.Data()[c], w)
		}
	}
}

// TestBootstrapImputationIsVoteShare verifies the pre-calibration imputation
// equals the plain vote frequency under uniform reliabilities.
func TestBootstrapImputationIsVoteShare(t *testing.T) {
	m, err := NewModel(Config{Seed: 1}, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := answers.NewDataset("v", 1, 4, 3)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ds.Add(0, 0, labelset.Of(0)))
	must(ds.Add(0, 1, labelset.Of(0, 1)))
	must(ds.Add(0, 2, labelset.Of(0)))
	must(ds.Add(0, 3, labelset.Of(2)))
	must(m.loadDataset(ds))
	m.imputeTruth(nil) // haveRates is false: bootstrap path
	// Votes: label0 3/4, label1 1/4, label2 1/4.
	want := []float64{0.75, 0.25, 0.25}
	for k, w := range want {
		if math.Abs(m.yhatVals[0][k]-w) > 1e-12 {
			t.Errorf("yhat[%d] = %v, want %v", k, m.yhatVals[0][k], w)
		}
	}
}

// TestRevealedTruthPinsImputation verifies revealed items carry exact
// expectations regardless of votes.
func TestRevealedTruthPinsImputation(t *testing.T) {
	m, err := NewModel(Config{Seed: 1}, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := answers.NewDataset("r", 1, 2, 3)
	if err := ds.Add(0, 0, labelset.Of(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Add(0, 1, labelset.Of(2)); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetTruth(0, labelset.Of(0)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Reveal(0); err != nil {
		t.Fatal(err)
	}
	if err := m.loadDataset(ds); err != nil {
		t.Fatal(err)
	}
	m.imputeTruth(nil)
	// Voted list is {0(truth),1,2}; only the true label carries weight 1.
	for k, c := range m.votedSets[0].Slice() {
		want := 0.0
		if c == 0 {
			want = 1
		}
		if m.yhatVals[0][k] != want {
			t.Errorf("yhat for label %d = %v, want %v", c, m.yhatVals[0][k], want)
		}
	}
}

// TestStickELogMatchesDistHelper cross-checks the model's stick expectation
// against an independent computation.
func TestStickELogMatchesDistHelper(t *testing.T) {
	a := []float64{2, 3, 1.5}
	b := []float64{4, 1, 2.5}
	dst := make([]float64, 4)
	stickELog(a, b, dst)
	// Independent computation.
	acc := 0.0
	for j := range a {
		sum := mathx.Digamma(a[j] + b[j])
		want := acc + mathx.Digamma(a[j]) - sum
		if math.Abs(dst[j]-want) > 1e-12 {
			t.Errorf("stick %d = %v, want %v", j, dst[j], want)
		}
		acc += mathx.Digamma(b[j]) - sum
	}
	if math.Abs(dst[3]-acc) > 1e-12 {
		t.Errorf("last stick = %v, want %v", dst[3], acc)
	}
	// All weights must be log-probabilities of a sub-normalised mixture:
	// exp sums to <= 1 plus truncation slack.
	total := 0.0
	for _, v := range dst {
		total += math.Exp(v)
	}
	if total > 1.2 {
		t.Errorf("exp(E[ln pi]) sums to %v — expectations inconsistent", total)
	}
}

// TestApplyDirichletBlending checks the shared Dirichlet kernel: ω = 1 is
// the exact coordinate-ascent assignment, ω < 1 the convex SVI blend.
func TestApplyDirichletBlending(t *testing.T) {
	suff := []float64{2, 0, 4}
	dst := []float64{1, 1, 1}
	applyDirichlet(dst, suff, 0.5, 1, 1)
	for k, w := range []float64{2.5, 0.5, 4.5} {
		if math.Abs(dst[k]-w) > 1e-12 {
			t.Errorf("batch dst[%d] = %v, want %v", k, dst[k], w)
		}
	}
	// SVI step: target with scale 3, blended at ω = 0.25.
	applyDirichlet(dst, suff, 0.5, 3, 0.25)
	// target = [6.5, 0.5, 12.5]; dst = 0.75*prev + 0.25*target.
	for k, w := range []float64{0.75*2.5 + 0.25*6.5, 0.5, 0.75*4.5 + 0.25*12.5} {
		if math.Abs(dst[k]-w) > 1e-12 {
			t.Errorf("svi dst[%d] = %v, want %v", k, dst[k], w)
		}
	}
}

// TestApplySticksBlending checks the shared stick kernel against the
// hand-computed Eqs. (4)-(5) targets and their SVI blend.
func TestApplySticksBlending(t *testing.T) {
	colSum := []float64{1.1, 1.3, 0.6}
	a := make([]float64, 2)
	b := make([]float64, 2)
	applySticks(a, b, colSum, 2, 1, 1)
	if math.Abs(a[0]-2.1) > 1e-12 || math.Abs(b[0]-3.9) > 1e-12 {
		t.Errorf("stick 0 = (%v,%v), want (2.1,3.9)", a[0], b[0])
	}
	if math.Abs(a[1]-2.3) > 1e-12 || math.Abs(b[1]-2.6) > 1e-12 {
		t.Errorf("stick 1 = (%v,%v), want (2.3,2.6)", a[1], b[1])
	}
	// ω = 0.5 halfway toward a doubled-scale target.
	a0, b0 := a[0], b[0]
	applySticks(a, b, colSum, 2, 2, 0.5)
	wantA := 0.5*a0 + 0.5*(1+2*1.1)
	wantB := 0.5*b0 + 0.5*(2+2*1.9)
	if math.Abs(a[0]-wantA) > 1e-12 || math.Abs(b[0]-wantB) > 1e-12 {
		t.Errorf("blended stick 0 = (%v,%v), want (%v,%v)", a[0], b[0], wantA, wantB)
	}
}
