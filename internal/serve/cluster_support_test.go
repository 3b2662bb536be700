package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"cpa/internal/core"
)

// TestJournalOffsetsInStats pins the satellite contract: Job.Stats exposes
// the durable journal (byte, record) position, and both match the on-disk
// file exactly — offsets are the replication coordinates, so "durable"
// must mean "bytes any reader of the file can already see".
func TestJournalOffsetsInStats(t *testing.T) {
	dir := t.TempDir()
	ds := testStream(t, 0.02, 7)
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	defer reg.Close()
	job, err := reg.Create(JobSpec{
		ID: "off", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 7, BatchSize: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	ingestAll(t, job, all, 32)
	waitSnapshot(t, job, len(all))

	st := job.Stats()
	if st.JournalBytes == 0 || st.JournalRecords == 0 {
		t.Fatalf("expected nonzero journal offsets, got bytes=%d recs=%d", st.JournalBytes, st.JournalRecords)
	}
	raw, err := os.ReadFile(JournalPath(dir, "off"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != st.JournalBytes {
		t.Fatalf("stats journal_bytes=%d, file has %d", st.JournalBytes, len(raw))
	}
	if lines := int64(bytes.Count(raw, []byte("\n"))); lines != st.JournalRecords {
		t.Fatalf("stats journal_records=%d, file has %d lines", st.JournalRecords, lines)
	}
	// Record count = answers + fit markers (no restart: never recovered).
	if want := int64(len(all)) + st.FitRounds; st.JournalRecords != want {
		t.Fatalf("journal_records=%d, want answers+rounds=%d", st.JournalRecords, want)
	}
}

// TestEpochFencing covers the ownership-epoch state machine: a deposed job
// rejects all ingestion (stamped or not) with ErrFenced, mismatched stamps
// are fenced even on a live primary, epochs never regress, and the fence
// survives crash recovery — a deposed primary that restarts stays deposed.
func TestEpochFencing(t *testing.T) {
	dir := t.TempDir()
	ds := testStream(t, 0.02, 3)
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	job, err := reg.Create(JobSpec{
		ID: "ep", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 3, BatchSize: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	if err := job.IngestAt(all[:8], 0); err != nil {
		t.Fatalf("stamped ingest at current epoch: %v", err)
	}
	if err := job.IngestAt(all[8:16], 3); !errors.Is(err, ErrFenced) {
		t.Fatalf("mismatched stamp: got %v, want ErrFenced", err)
	}
	if err := job.Fence(2); err != nil {
		t.Fatal(err)
	}
	if err := job.Ingest(all[8:16]); !errors.Is(err, ErrFenced) {
		t.Fatalf("unstamped ingest on deposed job: got %v, want ErrFenced", err)
	}
	if err := job.IngestAt(all[8:16], 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("stamped ingest on deposed job: got %v, want ErrFenced", err)
	}
	if err := job.Promote(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("epoch regression: got %v, want ErrFenced", err)
	}
	if err := job.Promote(2); err != nil {
		t.Fatal(err)
	}
	if err := job.IngestAt(all[8:16], 2); err != nil {
		t.Fatalf("ingest after promote: %v", err)
	}
	waitFitted(t, job, 16)

	// Depose again and crash: the fence must be durable.
	if err := job.Fence(5); err != nil {
		t.Fatal(err)
	}
	reg.CrashAll()
	reg2 := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	defer reg2.Close()
	job2, ok := reg2.Get("ep")
	if !ok {
		t.Fatal("job not recovered")
	}
	if !job2.Deposed() || job2.Epoch() != 5 {
		t.Fatalf("recovered epoch state = (%d, deposed=%v), want (5, true)", job2.Epoch(), job2.Deposed())
	}
	if err := job2.Ingest(all[16:24]); !errors.Is(err, ErrFenced) {
		t.Fatalf("recovered deposed job accepted ingest: %v", err)
	}
	if st := job2.Stats(); st.Epoch != 5 || !st.Deposed {
		t.Fatalf("stats epoch=(%d,%v), want (5,true)", st.Epoch, st.Deposed)
	}
}

// TestHTTPEpochFencing drives the fence through the HTTP surface: fence and
// promote endpoints, the X-CPA-Epoch ingest stamp, and the 409 mapping a
// deposed primary must answer with.
func TestHTTPEpochFencing(t *testing.T) {
	dir := t.TempDir()
	ds := testStream(t, 0.02, 9)
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()
	client := ts.Client()
	createJobHTTP(t, client, ts.URL, CreateJobRequest{
		ID: "hep", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 9, BatchSize: 32},
	})
	all := ds.Answers()
	postNDJSON(t, client, ts.URL+"/v1/jobs/hep/answers", all[:8])

	postEpoch := func(action string, epoch int64, wantStatus int) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/jobs/hep/"+action, "application/json",
			bytes.NewReader([]byte(fmt.Sprintf(`{"epoch":%d}`, epoch))))
		if err != nil {
			t.Fatalf("POST %s: %v", action, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s epoch=%d: status %d, want %d", action, epoch, resp.StatusCode, wantStatus)
		}
	}
	postEpoch("fence", 2, http.StatusOK)

	// Deposed: plain ingestion 409s.
	var body bytes.Buffer
	body.WriteString(`{"answers":[{"i":0,"u":0,"x":[0]}]}`)
	resp, err := client.Post(ts.URL+"/v1/jobs/hep/answers", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ingest on deposed job: status %d, want 409", resp.StatusCode)
	}

	postEpoch("promote", 1, http.StatusConflict) // regression refused
	postEpoch("promote", 2, http.StatusOK)

	// Stale epoch stamp 409s even on the live primary.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/hep/answers",
		bytes.NewReader([]byte(`{"answers":[{"i":0,"u":0,"x":[0]}]}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-CPA-Epoch", "1")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch ingest: status %d, want 409", resp.StatusCode)
	}

	// Matching stamp lands, and the ack carries the durable journal length.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/hep/answers",
		bytes.NewReader([]byte(`{"answers":[{"i":0,"u":0,"x":[0]}]}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-CPA-Epoch", "2")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stamped ingest: status %d, want 202", resp.StatusCode)
	}
	var ack IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.JournalBytes == 0 {
		t.Fatal("ingest ack missing journal_bytes")
	}
}

// TestJournalTailEndpoint exercises the shipping endpoint: a full fetch is
// byte-identical to the on-disk journal, offsets page through chunks, a
// request at the tail long-polls until new bytes land, and a from beyond
// the durable length is rejected.
func TestJournalTailEndpoint(t *testing.T) {
	dir := t.TempDir()
	ds := testStream(t, 0.02, 11)
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()
	client := ts.Client()
	createJobHTTP(t, client, ts.URL, CreateJobRequest{
		ID: "tail", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 11, BatchSize: 32},
	})
	all := ds.Answers()
	postNDJSON(t, client, ts.URL+"/v1/jobs/tail/answers", all[:64])
	job, _ := reg.Get("tail")
	waitFitted(t, job, 64)
	waitSnapshot(t, job, 64)
	durable, _ := job.JournalOffsets()

	fetch := func(from int64, waitMS int) ([]byte, int64, int64) {
		t.Helper()
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/tail/journal?from=%d&wait_ms=%d", ts.URL, from, waitMS))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tail from=%d: status %d", from, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		off, _ := strconv.ParseInt(resp.Header.Get("X-CPA-Journal-Off"), 10, 64)
		dur, _ := strconv.ParseInt(resp.Header.Get("X-CPA-Journal-Durable"), 10, 64)
		return body, off, dur
	}

	body, off, dur := fetch(0, 0)
	if off != durable || dur < durable {
		t.Fatalf("tail headers off=%d dur=%d, want off=%d", off, dur, durable)
	}
	raw, err := os.ReadFile(JournalPath(dir, "tail"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, raw[:durable]) {
		t.Fatalf("shipped bytes differ from journal file (%d vs %d bytes)", len(body), durable)
	}
	// Paging: a fetch from a mid-file offset returns exactly the suffix, so
	// chunked shipping reassembles the identical byte stream.
	half := durable / 2
	p2, _, _ := fetch(half, 0)
	if !bytes.Equal(p2, body[half:]) {
		t.Fatal("paged fetch does not reassemble the journal")
	}

	// Beyond-durable is a client error.
	resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/tail/journal?from=%d", ts.URL, durable+999))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from beyond durable: status %d, want 400", resp.StatusCode)
	}

	// Long-poll: a request parked at the tail returns once new bytes land.
	type tailResult struct {
		body []byte
		off  int64
	}
	got := make(chan tailResult, 1)
	go func() {
		b, o, _ := fetch(durable, 5000)
		got <- tailResult{b, o}
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	postNDJSON(t, client, ts.URL+"/v1/jobs/tail/answers", all[64:96])
	select {
	case res := <-got:
		if len(res.body) == 0 || res.off <= durable {
			t.Fatalf("long-poll returned %d bytes, off %d (was %d)", len(res.body), res.off, durable)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned after new ingestion")
	}
}

// TestTornTailEveryByteBoundary is the satellite test for follower-side
// torn tails: a shipped journal stream can end at ANY byte of the final
// record when the primary dies mid-send. For every truncation boundary
// inside the final record, recovery over the truncated file must succeed,
// treat the partial record as never-written, truncate the file back to the
// durable prefix, and converge to exactly the state a clean recovery over
// the durable prefix reaches.
func TestTornTailEveryByteBoundary(t *testing.T) {
	srcDir := t.TempDir()
	ds := testStream(t, 0.02, 13)
	reg := mustOpen(t, Config{Dir: srcDir, SaveEvery: 1 << 30, BatchWait: time.Millisecond})
	spec := JobSpec{
		ID: "torn", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 13, BatchSize: 64},
	}
	if _, err := reg.Create(spec); err != nil {
		t.Fatal(err)
	}
	job, _ := reg.Get("torn")
	all := ds.Answers()
	ingestAll(t, job, all[:128], 64)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(JournalPath(srcDir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	specRaw, err := os.ReadFile(filepath.Join(srcDir, "jobs", "torn", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(raw)-1] != '\n' {
		t.Fatal("journal does not end in a complete line")
	}
	lastStart := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1 // 0 if single line
	durable := int64(lastStart)

	// stage builds a journal-only job dir truncated at cut and recovers it,
	// returning the quiesced snapshot.
	stage := func(t *testing.T, cut int64) *Snapshot {
		t.Helper()
		dir := t.TempDir()
		jobDir := filepath.Join(dir, "jobs", "torn")
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jobDir, specFile), specRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jobDir, journalFile), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, Config{Dir: dir, SaveEvery: 1 << 30, BatchWait: time.Millisecond})
		defer r.Close()
		j, ok := r.Get("torn")
		if !ok {
			t.Fatalf("cut=%d: job not recovered", cut)
		}
		// Quiesce: a cut fit marker leaves its answers pending; the
		// recovered fitter refits them (deterministically — they fit as one
		// mini-batch) before the state is comparable.
		waitFitted(t, j, j.ingested.Load())
		snap := waitSnapshot(t, j, int(j.ingested.Load()))
		// The torn fragment must be physically gone: recovery truncates to
		// the durable offset before reopening for append, then appends its
		// restart re-anchor — so the bytes at the durable offset must be
		// that fresh marker, never the partial record it would otherwise
		// have concatenated onto.
		after, err := os.ReadFile(filepath.Join(jobDir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after[:durable], raw[:durable]) {
			t.Fatalf("cut=%d: durable prefix modified by recovery", cut)
		}
		if !bytes.HasPrefix(after[durable:], []byte(`{"op":"restart"}`)) {
			t.Fatalf("cut=%d: torn tail not truncated; journal continues %q", cut, after[durable:min(durable+40, int64(len(after)))])
		}
		return snap
	}

	want := stage(t, durable) // clean recovery over the durable prefix
	for cut := durable; cut < int64(len(raw)); cut++ {
		sameConsensus(t, want, stage(t, cut))
	}
}

// TestApplierMatchesPrimary pins the replication acceptance criterion at
// the unit level: feeding a primary's journal through a serve.Applier —
// exactly what a cluster follower does — reproduces the primary's
// published snapshot bit for bit at quiesce.
func TestApplierMatchesPrimary(t *testing.T) {
	dir := t.TempDir()
	ds := testStream(t, 0.04, 17)
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	defer reg.Close()
	spec := JobSpec{
		ID: "appl", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 17, BatchSize: 64},
	}
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	ingestAll(t, job, all, 48) // 48-chunks force interim (incremental) rounds
	primary := waitSnapshot(t, job, len(all))

	ap, err := NewApplier(job.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadJournal(JournalPath(dir, "appl"), ap.Apply); err != nil {
		t.Fatal(err)
	}
	sameConsensus(t, primary, ap.Snapshot())
	ingested, fitted, _ := ap.Counters()
	if ingested != int64(len(all)) || fitted != int64(len(all)) {
		t.Fatalf("applier counters ingested=%d fitted=%d, want %d", ingested, fitted, len(all))
	}
}

// TestJournalTailOfCrashedJob: a crashed job's journal endpoint answers 503,
// not 400. Followers restage from scratch on a 400 ("from beyond durable"),
// so a tail request landing between a primary's crash and its listener
// closing must not look like one, or the follower drops every answer the
// cluster acked before failing over to it.
func TestJournalTailOfCrashedJob(t *testing.T) {
	dir := t.TempDir()
	ds := testStream(t, 0.02, 12)
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()
	client := ts.Client()
	createJobHTTP(t, client, ts.URL, CreateJobRequest{
		ID: "dead", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 12, BatchSize: 32},
	})
	postNDJSON(t, client, ts.URL+"/v1/jobs/dead/answers", ds.Answers()[:32])
	job, _ := reg.Get("dead")
	durable, _ := job.JournalOffsets()
	reg.CrashAll()

	for _, waitMS := range []int{0, 50} {
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/dead/journal?from=%d&wait_ms=%d", ts.URL, durable, waitMS))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("tail of a crashed job (wait_ms=%d): status %d, want 503", waitMS, resp.StatusCode)
		}
	}
}
