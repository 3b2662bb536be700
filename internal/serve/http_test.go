package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
)

// httpHarness starts an httptest server over a fresh registry.
func httpHarness(t *testing.T, cfg Config) (*Registry, *httptest.Server) {
	t.Helper()
	reg := mustOpen(t, cfg)
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(func() { ts.Close(); reg.Close() })
	return reg, ts
}

// decodeError decodes the {"error": "..."} body every non-2xx handler
// response carries.
func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error response is not the JSON error shape: %v", err)
	}
	if body["error"] == "" {
		t.Fatal("error response carries no error message")
	}
	return body["error"]
}

// TestHandlerBackpressure429 exercises the HTTP 429 path end to end: an
// NDJSON batch that does not fit the queue must be rejected atomically with
// a JSON error body, without journaling or queueing any of its answers, and
// a batch that fits must still be accepted afterwards.
func TestHandlerBackpressure429(t *testing.T) {
	reg, ts := httpHarness(t, Config{QueueLimit: 8, BatchWait: time.Hour})
	if _, err := reg.Create(JobSpec{
		ID: "bp", Items: 64, Workers: 8, Labels: 4,
		Model: core.Config{Seed: 1, BatchSize: 1 << 20},
	}); err != nil {
		t.Fatal(err)
	}

	ndjson := func(n, base int) *bytes.Buffer {
		var body bytes.Buffer
		for i := 0; i < n; i++ {
			line, _ := answers.MarshalAnswerJSON(answers.Answer{
				Item: base + i, Worker: (base + i) % 8, Labels: labelset.Of((base + i) % 4),
			})
			body.Write(line)
			body.WriteByte('\n')
		}
		return &body
	}
	url := ts.URL + "/v1/jobs/bp/answers"

	resp, err := ts.Client().Post(url, "application/x-ndjson", ndjson(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: status %d, want 429", resp.StatusCode)
	}
	if msg := decodeError(t, resp); !strings.Contains(msg, "queue") {
		t.Errorf("429 body %q does not mention the queue", msg)
	}
	job, _ := reg.Get("bp")
	if st := job.Stats(); st.IngestedAnswers != 0 || st.QueueDepth != 0 {
		t.Fatalf("rejected batch left state behind: %+v", st)
	}

	resp, err = ts.Client().Post(url, "application/x-ndjson", ndjson(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting batch after a 429: status %d, want 202", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 8 || ir.QueueDepth != 8 {
		t.Fatalf("accept response %+v, want 8 accepted at depth 8", ir)
	}

	// The queue is now exactly full: one more answer must 429 again.
	resp, err = ts.Client().Post(url, "application/x-ndjson", ndjson(1, 32))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHandlerMalformedNDJSON pins the malformed-line contract: decoding
// stops at the first bad line with a 400, and the whole request is rejected
// atomically — valid lines preceding the bad one must not be ingested.
func TestHandlerMalformedNDJSON(t *testing.T) {
	reg, ts := httpHarness(t, Config{})
	if _, err := reg.Create(JobSpec{ID: "nd", Items: 10, Workers: 4, Labels: 3, Model: core.Config{Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/nd/answers"
	valid, _ := answers.MarshalAnswerJSON(answers.Answer{Item: 0, Worker: 1, Labels: labelset.Of(2)})

	cases := []struct {
		name, body string
	}{
		{"bare garbage", "not json at all\n"},
		{"truncated object", `{"i":0,"u":1,"x":[`},
		{"valid then invalid", string(valid) + "\n{broken\n"},
		{"valid then invalid labels", string(valid) + "\n" + `{"i":0,"u":2,"x":"nope"}` + "\n"},
		{"negative label", `{"i":0,"u":1,"x":[-1]}` + "\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := ts.Client().Post(url, "application/x-ndjson", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			decodeError(t, resp)
			job, _ := reg.Get("nd")
			if st := job.Stats(); st.IngestedAnswers != 0 {
				t.Fatalf("partially ingested a malformed request: %+v", st)
			}
		})
	}

	// Blank lines are skipped, not errors; an all-blank body accepts zero.
	resp, err := ts.Client().Post(url, "application/x-ndjson", strings.NewReader("\n\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blank-line body: status %d, want 202", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 0 {
		t.Fatalf("blank-line body accepted %d answers", ir.Accepted)
	}
}

// TestHandlerUnknownJob404 sweeps every {id} route with a job that does not
// exist; each must answer 404 with the JSON error shape naming the job.
func TestHandlerUnknownJob404(t *testing.T) {
	_, ts := httpHarness(t, Config{})
	client := ts.Client()

	requests := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/jobs/ghost", ""},
		{http.MethodGet, "/v1/jobs/ghost/consensus", ""},
		{http.MethodGet, "/v1/jobs/ghost/items/0", ""},
		{http.MethodPost, "/v1/jobs/ghost/answers", `{"answers":[{"i":0,"u":0,"x":[0]}]}`},
		{http.MethodDelete, "/v1/jobs/ghost", ""},
	}
	for _, rq := range requests {
		t.Run(rq.method+" "+rq.path, func(t *testing.T) {
			req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(rq.body))
			if err != nil {
				t.Fatal(err)
			}
			if rq.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("status %d, want 404", resp.StatusCode)
			}
			if msg := decodeError(t, resp); !strings.Contains(msg, "ghost") {
				t.Errorf("404 body %q does not name the missing job", msg)
			}
		})
	}
}

// TestHandlerItemPathValidation pins the /items/{item} parameter handling:
// non-numeric and out-of-range items are 404s, valid items answer 200 even
// before any fit round.
func TestHandlerItemPathValidation(t *testing.T) {
	reg, ts := httpHarness(t, Config{})
	if _, err := reg.Create(JobSpec{ID: "it", Items: 5, Workers: 2, Labels: 2, Model: core.Config{Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"x", "-1", "5", "2.5", ""} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/it/items/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("item %q: status %d, want 404", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/it/items/4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid unfitted item: status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Round int          `json:"round"`
		Item  ItemSnapshot `json:"item"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Round != 0 || out.Item.Item != 4 || len(out.Item.Labels) != 0 {
		t.Fatalf("unfitted item response %+v, want empty round-0 consensus for item 4", out)
	}
}

// TestHandlerCreateValidation covers the create-job error surface at the
// HTTP layer, including the 409 for ids with retained on-disk state.
func TestHandlerCreateValidation(t *testing.T) {
	dir := t.TempDir()
	_, ts := httpHarness(t, Config{Dir: dir, BatchWait: 5 * time.Millisecond})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(`{"id":"keep","items":10,"workers":4,"labels":3}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	for _, c := range []struct {
		body string
		want int
	}{
		{`{"id":"keep","items":10,"workers":4,"labels":3}`, http.StatusConflict},
		{`{"id":"bad/slash","items":10,"workers":4,"labels":3}`, http.StatusBadRequest},
		{`{"id":"` + strings.Repeat("x", 129) + `","items":10,"workers":4,"labels":3}`, http.StatusBadRequest},
		{`{"id":"neg","items":-1,"workers":4,"labels":3}`, http.StatusBadRequest},
		{`{"id":"huge","items":2147483648,"workers":4,"labels":3}`, http.StatusBadRequest},
		{`{"id":"badmodel","items":10,"workers":4,"labels":3,"model":{"ForgettingRate":2}}`, http.StatusBadRequest},
		{`{"id":"typo","items":10,"workers":4,"labels":3,"modle":{}}`, http.StatusBadRequest},
		{`{broken`, http.StatusBadRequest},
	} {
		resp := post(c.body)
		if resp.StatusCode != c.want {
			t.Fatalf("create %q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
		decodeError(t, resp)
	}

	// Delete retains on-disk state; recreating over it must 409 through the
	// HTTP layer too.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/keep", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp = post(`{"id":"keep","items":10,"workers":4,"labels":3}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("recreate over retained state: status %d, want 409", resp.StatusCode)
	}
	if msg := decodeError(t, resp); !strings.Contains(msg, "retained") {
		t.Errorf("409 body %q does not explain the retained state", msg)
	}
}

// TestHandlerContentTypeDispatch pins that the answers endpoint selects the
// codec by Content-Type: a JSON-array body posted as NDJSON is a 400 (it is
// not one answer per line), and NDJSON lines posted as JSON are a 400 too.
func TestHandlerContentTypeDispatch(t *testing.T) {
	reg, ts := httpHarness(t, Config{})
	if _, err := reg.Create(JobSpec{ID: "ct", Items: 4, Workers: 2, Labels: 2, Model: core.Config{Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/ct/answers"
	jsonBody := `{"answers":[{"i":0,"u":0,"x":[0]}]}`
	ndjsonBody := `{"i":0,"u":0,"x":[0]}` + "\n" + `{"i":1,"u":1,"x":[1]}` + "\n"

	for _, c := range []struct {
		ct, body string
		want     int
	}{
		{"application/json", jsonBody, http.StatusAccepted},
		{"application/x-ndjson", ndjsonBody, http.StatusAccepted},
		{"application/jsonl", ndjsonBody, http.StatusAccepted},
		{"application/x-ndjson", jsonBody, http.StatusBadRequest},
		{"application/json", ndjsonBody, http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(url, c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Fatalf("%s body as %s: status %d, want %d", c.body[:12], c.ct, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}
}

// TestHandlerBodyTooLarge pins the request-body caps: one oversized POST
// must be rejected with 413 before it can balloon memory, for both the
// ingest and create endpoints, and must leave no partial state behind.
func TestHandlerBodyTooLarge(t *testing.T) {
	reg, ts := httpHarness(t, Config{})
	if _, err := reg.Create(JobSpec{ID: "big", Items: 4, Workers: 2, Labels: 2, Model: core.Config{Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	// Newline filler: every byte passes the NDJSON blank-line filter, so
	// the only thing that can stop the read is the MaxBytesReader cap.
	huge := bytes.Repeat([]byte{'\n'}, maxIngestBytes+2)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/big/answers", "application/x-ndjson", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()
	job, _ := reg.Get("big")
	if st := job.Stats(); st.IngestedAnswers != 0 {
		t.Fatalf("oversized request ingested answers: %+v", st)
	}

	bigCreate := []byte(`{"id":"pad","items":1,"workers":1,"labels":1,"model":{}` + strings.Repeat(" ", maxCreateBytes) + `}`)
	resp, err = ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(bigCreate))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d, want 413", resp.StatusCode)
	}
}

// TestHandlerStatszShape smoke-checks the observability endpoints' JSON.
func TestHandlerStatszShape(t *testing.T) {
	reg, ts := httpHarness(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := reg.Create(JobSpec{
			ID: fmt.Sprintf("job%d", i), Items: 4, Workers: 2, Labels: 2, Model: core.Config{Seed: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumJobs != 3 || len(stats.Jobs) != 3 {
		t.Fatalf("statsz %+v, want 3 jobs", stats)
	}
	for i, js := range stats.Jobs {
		if want := fmt.Sprintf("job%d", i); js.ID != want {
			t.Errorf("statsz job %d is %q, want %q (ordered by id)", i, js.ID, want)
		}
	}
}
