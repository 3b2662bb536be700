package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
)

// TestJournalByteIdentityWithStdlib pins the new writer to the old one: a
// stream of answers, fit markers, a restart re-anchor and a tune annotation
// appended through the group-commit pipeline must leave on disk exactly the
// json.Marshal-composed bytes the pre-group-commit writer produced, with
// offsets matching the file.
func TestJournalByteIdentityWithStdlib(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, err := openJournal(path, true, 0, JournalBase{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := []answers.Answer{
		{Item: 0, Worker: 3, Labels: labelset.Of(1, 4, 5)},
		{Item: 9, Worker: 0, Labels: labelset.Of(0)},
		{Item: 511, Worker: 63, Labels: labelset.Of(2, 64, 1000)},
	}

	var want []byte
	appendStd := func(line journalLine) {
		raw, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw...)
		want = append(want, '\n')
	}

	req := getCommitReq()
	req.buf = EncodeAnswerLines(req.buf[:0], batch)
	req.nrecs = int64(len(batch))
	if err := jr.reserve(req); err != nil {
		t.Fatal(err)
	}
	if err := jr.await(req); err != nil {
		t.Fatal(err)
	}
	for _, a := range batch {
		ja := answers.ToJSON(a)
		appendStd(journalLine{Op: opAnswer, Ans: &ja})
	}

	for _, line := range []journalLine{
		fitLine(2, true),
		fitLine(1, false),
		{Op: opTune, Par: 2, Batch: 64},
	} {
		r, err := jr.reserveLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := jr.await(r); err != nil {
			t.Fatal(err)
		}
		appendStd(line)
	}
	if err := jr.appendRestart(); err != nil {
		t.Fatal(err)
	}
	appendStd(journalLine{Op: opRestart})

	off, recs := jr.offsets()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes diverge from the stdlib writer:\n got: %q\nwant: %q", got, want)
	}
	if off != int64(len(got)) {
		t.Fatalf("durable offset %d, file has %d bytes", off, len(got))
	}
	if wantRecs := int64(len(batch) + 4); recs != wantRecs {
		t.Fatalf("durable records %d, want %d", recs, wantRecs)
	}
}

// TestGroupCommitCoalesces drives the cohort mechanics deterministically: a
// group reserved while no leader runs is committed together with everything
// else sequenced before the first await — one flush, one cohort observation,
// file bytes in reservation order.
func TestGroupCommitCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, err := openJournal(path, false, 0, JournalBase{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hist ingestHist
	jr.stats = &hist

	var reqs []*commitReq
	var want []byte
	for i := 0; i < 3; i++ {
		batch := []answers.Answer{
			{Item: i, Worker: 2 * i, Labels: labelset.Of(i)},
			{Item: i + 10, Worker: 2*i + 1, Labels: labelset.Of(i, i+1)},
		}
		req := getCommitReq()
		req.buf = EncodeAnswerLines(req.buf[:0], batch)
		req.nrecs = int64(len(batch))
		want = append(want, req.buf...)
		if err := jr.reserve(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	// First await becomes the commit leader and drains all three groups as
	// one cohort; the remaining awaits find their buffered results.
	for _, req := range reqs {
		if err := jr.await(req); err != nil {
			t.Fatal(err)
		}
	}
	st := hist.summary()
	if st.Cohorts != 1 {
		t.Fatalf("expected one coalesced cohort, got %d", st.Cohorts)
	}
	if st.CohortRecords != 6 || st.MaxCohortRecords != 6 {
		t.Fatalf("cohort carried %d records (max %d), want 6", st.CohortRecords, st.MaxCohortRecords)
	}
	if st.Appends.Count != 3 {
		t.Fatalf("append latency histogram saw %d groups, want 3", st.Appends.Count)
	}
	// Bucket 3 covers (4, 8] records — a 6-record cohort.
	if st.CohortLog2Buckets[3] != 1 {
		t.Fatalf("cohort size histogram: %v, want one entry in bucket 3", st.CohortLog2Buckets)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cohort bytes out of reservation order:\n got: %q\nwant: %q", got, want)
	}
}

// TestJournalFailedAppendAfterClose pins the single-durable-path contract:
// Close drains and closes once, and a late append fails loudly instead of
// writing to a closed descriptor.
func TestJournalFailedAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, err := openJournal(path, false, 0, JournalBase{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := jr.reserveLine(journalLine{Op: opRestart})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.await(r); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := jr.reserveLine(journalLine{Op: opRestart}); err == nil {
		t.Fatal("append after Close did not fail")
	}
}

// TestConcurrentIngestJournalConsistent hammers one persistent job from
// many goroutines and checks the group-committed journal is exactly the
// accepted stream: every line parses, the answer count matches, the durable
// offset equals the file size, and the ingest histograms account for every
// record.
func TestConcurrentIngestJournalConsistent(t *testing.T) {
	dir := t.TempDir()
	reg := mustOpen(t, Config{Dir: dir, BatchWait: time.Millisecond})
	spec := JobSpec{
		ID: "conc", Items: 256, Workers: 64, Labels: 16,
		Model: core.Config{Seed: 1, BatchSize: 64, Parallelism: 1},
	}
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		batches = 40
		perB    = 5
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]answers.Answer, perB)
				for i := range batch {
					batch[i] = answers.Answer{
						Item:   (w*batches*perB + b*perB + i) % spec.Items,
						Worker: w * writers,
						Labels: labelset.Of((b + i) % spec.Labels),
					}
				}
				if err := job.Ingest(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(writers * batches * perB)
	if got := job.ingested.Load(); got != total {
		t.Fatalf("ingested %d answers, want %d", got, total)
	}
	waitFitted(t, job, total)
	st := job.Stats()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acked answer must be durable, and the journal must be nothing
	// but complete well-formed lines adding up to the durable offset.
	var ans, fits int64
	err = ReadJournal(JournalPath(dir, "conc"), func(e JournalEntry) error {
		switch {
		case e.Answer != nil:
			ans++
		case e.FitN > 0:
			fits += int64(e.FitN)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans != total {
		t.Fatalf("journal holds %d answers, want %d", ans, total)
	}
	if fits != total {
		t.Fatalf("fit markers cover %d answers, want %d", fits, total)
	}
	fi, err := os.Stat(JournalPath(dir, "conc"))
	if err != nil {
		t.Fatal(err)
	}
	if st.JournalBytes != fi.Size() {
		t.Fatalf("durable offset %d, file %d bytes", st.JournalBytes, fi.Size())
	}
	if st.Ingest.Appends.Count == 0 || st.Ingest.Cohorts == 0 {
		t.Fatalf("ingest histograms empty: %+v", st.Ingest)
	}
	// Cohort records count answers and control lines alike; at minimum every
	// answer rode some cohort.
	if st.Ingest.CohortRecords < total {
		t.Fatalf("cohorts carried %d records, want >= %d", st.Ingest.CohortRecords, total)
	}
	var sum int64
	for _, c := range st.Ingest.CohortLog2Buckets {
		sum += c
	}
	if sum != st.Ingest.Cohorts {
		t.Fatalf("cohort buckets sum to %d, want %d", sum, st.Ingest.Cohorts)
	}
}

// TestGroupCommitTruncationRecoversBitExact is the retention-smoke half of
// the group-commit contract: concurrent ingest over a truncating journal,
// then a hard kill — recovery must reproduce the bit-identical consensus
// from the base checkpoint plus the retained suffix, exactly as with the
// serial writer.
func TestGroupCommitTruncationRecoversBitExact(t *testing.T) {
	dir := t.TempDir()
	ds := shuffledStream(t, 0.08, 21)
	spec := JobSpec{
		ID: "gctrunc", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 21, BatchSize: 64, Parallelism: 2},
	}
	reg := mustOpen(t, truncCfg(dir))
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 16; i < len(all); i += writers * 16 {
				end := i + 16
				if end > len(all) {
					end = len(all)
				}
				for {
					err := job.Ingest(all[i:end])
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()
	waitFitted(t, job, int64(len(all)))
	stats := job.Stats()
	reg.CrashAll()
	before := job.Snapshot()

	if stats.JournalFileBytes >= stats.JournalBytes {
		t.Fatalf("journal never truncated under group commit: file %d of %d global bytes",
			stats.JournalFileBytes, stats.JournalBytes)
	}

	reg2 := mustOpen(t, truncCfg(dir))
	defer reg2.Close()
	job2, ok := reg2.Get("gctrunc")
	if !ok {
		t.Fatal("job not recovered")
	}
	sameConsensus(t, before, job2.Snapshot())
}

// TestGroupCommitQueueMatchesJournalOrder pins the replay invariant the
// release chain exists for: with many writers racing through a chain of
// commit leaders, the fitter queue must receive batches in exactly journal
// order — a single leader handoff that released a later cohort first would
// let recovery rebuild a different model than the live one.
func TestGroupCommitQueueMatchesJournalOrder(t *testing.T) {
	dir := t.TempDir()
	// A parked fitter (huge mini-batch, hour-long wait) keeps every admitted
	// answer in the queue so its order can be read back verbatim.
	reg := mustOpen(t, Config{Dir: dir, QueueLimit: 1 << 20, BatchWait: time.Hour})
	defer reg.Close()
	spec := JobSpec{
		ID: "order", Items: 4096, Workers: 64, Labels: 8,
		Model: core.Config{Seed: 1, BatchSize: 1 << 19, Parallelism: 1},
	}
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		batches = 50
		perB    = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]answers.Answer, perB)
				for i := range batch {
					// The item index is a globally unique id: the journal and
					// the queue must list them in the same sequence.
					id := w*batches*perB + b*perB + i
					batch[i] = answers.Answer{Item: id, Worker: id % 64, Labels: labelset.Of(id % 8)}
				}
				if err := job.Ingest(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Every cohort was flushed before its ack, so the on-disk journal is
	// complete the moment the last Ingest returns.
	var jorder []int
	err = ReadJournal(JournalPath(dir, "order"), func(e JournalEntry) error {
		if e.Answer != nil {
			jorder = append(jorder, e.Answer.Item)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	job.mu.Lock()
	qorder := make([]int, 0, len(job.queue)-job.head)
	for _, a := range job.queue[job.head:] {
		qorder = append(qorder, a.Item)
	}
	job.mu.Unlock()

	if len(jorder) != writers*batches*perB || len(qorder) != len(jorder) {
		t.Fatalf("journal holds %d answers, queue %d, want %d", len(jorder), len(qorder), writers*batches*perB)
	}
	for i := range jorder {
		if jorder[i] != qorder[i] {
			t.Fatalf("queue diverges from journal at position %d: journal item %d, queue item %d",
				i, jorder[i], qorder[i])
		}
	}
}

// TestTruncateDuringGroupCommitDoesNotDeadlock hammers journal truncation
// (which holds the job mutex and drains the commit pipeline) against a
// saturated group-commit pipeline. The old leader released cohorts inline
// while still owning the pipeline; its commitDurable call then blocked on
// the job mutex the draining truncate held, wedging the job permanently.
// The release chain keeps commitDurable off the write path, so the drain
// always completes; the watchdog is the assertion.
func TestTruncateDuringGroupCommitDoesNotDeadlock(t *testing.T) {
	dir := t.TempDir()
	reg := mustOpen(t, Config{Dir: dir, QueueLimit: 1 << 20, BatchWait: time.Hour})
	spec := JobSpec{
		ID: "dlock", Items: 512, Workers: 64, Labels: 8,
		Model: core.Config{Seed: 1, BatchSize: 1 << 19, Parallelism: 1},
	}
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := 0; ; b++ {
					select {
					case <-stop:
						return
					default:
					}
					batch := make([]answers.Answer, 4)
					for i := range batch {
						batch[i] = answers.Answer{Item: (w*1000 + b + i) % 512, Worker: w, Labels: labelset.Of(i)}
					}
					if err := job.Ingest(batch); err != nil {
						if !errors.Is(err, ErrQueueFull) {
							t.Errorf("writer %d: %v", w, err)
						}
						return
					}
				}
			}(w)
		}
		// Zero-coverage truncations drop nothing but exercise the full
		// drain-and-swap under the job mutex, exactly like the production
		// truncateJournal locking shape.
		for i := 0; i < 100; i++ {
			job.mu.Lock()
			_, terr := job.journal.truncate(JournalPath(dir, "dlock"), 0, 0, 0, func() error { return nil })
			job.mu.Unlock()
			if terr != nil {
				t.Errorf("truncate %d: %v", i, terr)
				break
			}
		}
		close(stop)
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// Deliberately leak the wedged registry: closing it would hang too.
		t.Fatal("truncate wedged against the group-commit pipeline")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestSteadyStateAllocs pins the zero-alloc claim end to end: a
// steady-state NDJSON POST through ServeHTTP — decode, admission, journal
// group commit, queue — must cost a small fixed number of allocations per
// request (harness, response encoding, the per-request label arena),
// amortised ~0 per record. The budget is fixed + records/8; the old
// stdlib-codec path cost ~6 allocations per record and fails this by 40×.
func TestIngestSteadyStateAllocs(t *testing.T) {
	dir := t.TempDir()
	// A huge mini-batch and a parked fitter keep the fit path out of the
	// measurement; the queue limit admits every record of the run.
	reg := mustOpen(t, Config{Dir: dir, QueueLimit: 1 << 20, BatchWait: time.Hour})
	defer reg.Close()
	spec := JobSpec{
		ID: "alloc", Items: 512, Workers: 64, Labels: 32,
		Model: core.Config{Seed: 1, BatchSize: 1 << 19, Parallelism: 1},
	}
	if _, err := reg.Create(spec); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)

	const records = 256
	var body bytes.Buffer
	for i := 0; i < records; i++ {
		fmt.Fprintf(&body, "{\"i\":%d,\"u\":%d,\"x\":[%d,%d]}\n", i%512, i%64, i%32, (i+7)%32)
	}
	payload := body.Bytes()
	run := func() {
		req := httptest.NewRequest("POST", "/v1/jobs/alloc/answers", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST status %d: %s", rec.Code, rec.Body.String())
		}
	}
	// Warm the pools (scratch buffers, commit requests, http internals).
	for i := 0; i < 4; i++ {
		run()
	}
	avg := testing.AllocsPerRun(50, run)
	budget := float64(96 + records/8)
	if avg > budget {
		t.Fatalf("ingest path allocates %.1f per request (%d records), budget %.0f", avg, records, budget)
	}
}
