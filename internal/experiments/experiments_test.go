package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func tiny() Settings { return Settings{DataScale: 0.05, Runs: 1, Seed: 1} }

func TestIDsAndGet(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("IDs = %v", ids)
	}
	for _, id := range ids {
		if _, err := Get(id); err != nil {
			t.Errorf("Get(%q): %v", id, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestPresets(t *testing.T) {
	if q := Quick(); q.DataScale <= 0 || q.Runs < 1 {
		t.Errorf("Quick = %+v", q)
	}
	if p := Paper(); p.DataScale != 1 || p.Runs != 10 {
		t.Errorf("Paper = %+v", p)
	}
	if s := Standard(); s.DataScale <= 0 || s.DataScale > 1 {
		t.Errorf("Standard = %+v", s)
	}
}

func TestRunTable1(t *testing.T) {
	r, err := RunTable1Motivating(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table1" || len(r.Rows) != 5 {
		t.Fatalf("result = %+v", r)
	}
	// The MV column must reproduce the paper's published majority answers.
	wantMV := []string{"{3,4}", "{3}", "{3}", "{1}"}
	for i, want := range wantMV {
		if r.Rows[i][2] != want {
			t.Errorf("row %d MV = %s, want %s", i, r.Rows[i][2], want)
		}
	}
	ascii := r.RenderASCII()
	if !strings.Contains(ascii, "majority") || !strings.Contains(ascii, "CPA") {
		t.Error("ASCII render missing headers")
	}
	md := r.RenderMarkdown()
	if !strings.Contains(md, "### table1") || !strings.Contains(md, "| item |") {
		t.Error("Markdown render malformed")
	}
}

func TestRunTable3(t *testing.T) {
	r, err := RunTable3DatasetStats(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// 8 paper rows plus the distinct-answer-sets reuse diagnostic.
	if len(r.Rows) != 9 || len(r.Headers) != 6 {
		t.Fatalf("table3 shape: %d rows, %d headers", len(r.Rows), len(r.Headers))
	}
	// Labels row must carry the paper's vocabulary sizes regardless of scale.
	labelsRow := r.Rows[1]
	want := []string{"81", "49", "262", "1450", "22"}
	for i, w := range want {
		if labelsRow[i+1] != w {
			t.Errorf("labels[%s] = %s, want %s", r.Headers[i+1], labelsRow[i+1], w)
		}
	}
}

func TestRunTable4QualityOrdering(t *testing.T) {
	r, err := RunTable4OverallAccuracy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("table4 rows = %d", len(r.Rows))
	}
	// Across the five datasets CPA's F1 (computed from the table cells) must
	// beat MV's on the majority of datasets.
	wins := 0
	for _, row := range r.Rows {
		mvP, _ := strconv.ParseFloat(row[1], 64)
		cpaP, _ := strconv.ParseFloat(row[4], 64)
		mvR, _ := strconv.ParseFloat(row[5], 64)
		cpaR, _ := strconv.ParseFloat(row[8], 64)
		if f1(cpaP, cpaR) > f1(mvP, mvR) {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("CPA beats MV on only %d/5 datasets:\n%s", wins, r.RenderASCII())
	}
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func TestRunFig3SparsityShape(t *testing.T) {
	r, err := RunFig3Sparsity(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 8 {
		t.Fatalf("fig3 rows = %d", len(r.Rows))
	}
	// Quality at sparsity 0 must exceed quality at sparsity 90 for CPA.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	p0, _ := strconv.ParseFloat(first[4], 64)
	r0, _ := strconv.ParseFloat(first[8], 64)
	p9, _ := strconv.ParseFloat(last[4], 64)
	r9, _ := strconv.ParseFloat(last[8], 64)
	if f1(p9, r9) >= f1(p0, r0) {
		t.Errorf("CPA F1 should degrade with sparsity: %.3f -> %.3f", f1(p0, r0), f1(p9, r9))
	}
}

func TestRunFig6Shape(t *testing.T) {
	r, err := RunFig6DataArrival(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("fig6 rows = %d, want 10 arrival steps", len(r.Rows))
	}
	if r.Rows[0][0] != "10" || r.Rows[9][0] != "100" {
		t.Errorf("arrival steps malformed: %v ... %v", r.Rows[0], r.Rows[9])
	}
}

func TestRunFig8AndFig10(t *testing.T) {
	r8, err := RunFig8Ablation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r8.Rows) != 5 {
		t.Fatalf("fig8 rows = %d", len(r8.Rows))
	}
	r10, err := RunFig10WorkerTypes(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r10.Rows) < 3 {
		t.Fatalf("fig10 rows = %d", len(r10.Rows))
	}
	if r10.Extra == "" {
		t.Error("fig10 should include a scatter rendering")
	}
	// Reliable workers must dominate spammers in measured sensitivity.
	var relSens, spamSens float64
	for _, row := range r10.Rows {
		switch row[0] {
		case "reliable":
			relSens, _ = strconv.ParseFloat(row[2], 64)
		case "random-spammer":
			spamSens, _ = strconv.ParseFloat(row[2], 64)
		}
	}
	if relSens != 0 && spamSens != 0 && relSens <= spamSens {
		t.Errorf("reliable sensitivity %.3f should exceed random spammer %.3f", relSens, spamSens)
	}
}

func TestRunFig9Communities(t *testing.T) {
	r, err := RunFig9Communities(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("fig9 rows = %d, want 2 datasets × 2 labels", len(r.Rows))
	}
	for _, row := range r.Rows {
		k, _ := strconv.Atoi(row[3])
		if k < 2 || k > 5 {
			t.Errorf("detected communities %s outside sweep", row[3])
		}
	}
}

// TestTable5OnlineTracksOffline pins the paper's Table 5 claim at Quick()
// scale: single-pass online inference over shuffled arrivals reaches close
// to the offline batch fit. For every profile, online precision and recall
// must each lie within 0.10 of offline.
func TestTable5OnlineTracksOffline(t *testing.T) {
	r, err := RunTable5OnlineAccuracy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("table5 rows = %d", len(r.Rows))
	}
	// Online cells read "mean ±std", offline cells the bare mean.
	cell := func(row []string, k int) float64 {
		t.Helper()
		f := strings.Fields(row[k])
		if len(f) == 0 {
			t.Fatalf("%s: empty %s cell", row[0], r.Headers[k])
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatalf("%s: %s cell %q: %v", row[0], r.Headers[k], row[k], err)
		}
		return v
	}
	const margin = 0.10
	for _, row := range r.Rows {
		for _, k := range []int{1, 3} { // online P vs offline P, online R vs offline R
			on, off := cell(row, k), cell(row, k+1)
			if math.Abs(on-off) > margin {
				t.Errorf("%s: %s %.3f vs %s %.3f, gap above %.2f", row[0], r.Headers[k], on, r.Headers[k+1], off, margin)
			}
		}
	}
	t.Logf("\n%s", r.RenderASCII())
}
