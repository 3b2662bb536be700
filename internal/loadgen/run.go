package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
	"cpa/internal/metrics"
	"cpa/internal/obs"
	"cpa/internal/serve"
)

// stalenessBound is the fit-round gap between the fitter and the published
// snapshot beyond which a staleness sample counts as a violation. The
// publisher runs once per round, so the steady-state gap is 0–2; the bound
// is generous because a descheduled sampler can observe several rounds of
// lag without any server defect. staleStrikes consecutive violations fail
// the invariant — that shape catches the real bug class (a publisher that
// stops running, letting the gap grow with every round) without flaking on
// scheduler noise.
const (
	stalenessBound = 16
	staleStrikes   = 3
	sampleEvery    = 8 // staleness/read sample cadence, in ingest requests
)

// quiesceTimeout bounds every wait-for-drain; hitting it is a harness
// error, not an invariant failure.
const quiesceTimeout = 120 * time.Second

// Run executes one scenario against a server and returns its report.
// Invariant failures are data (Report.Invariants / Report.Failed()); an
// error return means the harness itself could not complete the run.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sc, err := GetScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if sc.ChaosKills > 0 && cfg.BaseURL != "" {
		return nil, fmt.Errorf("loadgen: scenario %q injects kill -9 chaos and requires the in-process target", sc.Name)
	}
	pl, err := buildPlan(sc, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:     cfg,
		sc:      sc,
		pl:      pl,
		traffic: newTrafficModel(sc, cfg.Seed+7919),
		client:  &http.Client{Timeout: 60 * time.Second},
		start:   time.Now(),
	}
	if err := r.openTarget(); err != nil {
		return nil, err
	}
	defer r.closeTarget()
	for _, tp := range pl.tenants {
		r.tenants = append(r.tenants, &tenantState{tenantPlan: tp, prevLabels: map[int]string{}})
	}

	r.report = &Report{
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		Scenario:     sc.Name,
		Description:  sc.Description,
		Scale:        cfg.Scale,
		Seed:         cfg.Seed,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Target:       r.targetName(),
		TotalAnswers: pl.total,
		DataDir:      r.dataDir,
	}

	r.startReaders()
	runErr := func() error {
		for pi := range sc.Phases {
			if err := r.runPhase(pi); err != nil {
				return fmt.Errorf("loadgen: phase %q: %w", sc.Phases[pi], err)
			}
		}
		return nil
	}()
	r.stopReaders()
	if runErr != nil {
		return nil, runErr
	}
	r.finalInvariants()

	r.report.Requests = r.requests.Load()
	r.report.Rejected429 = r.rejected429.Load()
	r.report.ReadErrors = r.readErrors.Load()
	r.report.DurationSec = time.Since(r.start).Seconds()
	r.report.FinalSnapshots = map[string]*serve.Snapshot{}
	for _, ts := range r.tenants {
		tr := TenantReport{
			ID: ts.id, Profile: ts.profile,
			Items: ts.ds.NumItems, Workers: ts.ds.NumWorkers, Labels: ts.ds.NumLabels,
			Answers: len(ts.stream), Deleted: ts.deleted,
			Spec: ts.spec, JournalPath: ts.journalPath(r),
		}
		r.report.Tenants = append(r.report.Tenants, tr)
		if ts.finalSnap != nil {
			r.report.FinalSnapshots[ts.id] = ts.finalSnap
		}
	}
	return r.report, nil
}

// tenantState is a tenant's runtime bookkeeping on top of its plan.
type tenantState struct {
	*tenantPlan
	created bool
	deleted bool
	// acked holds every answer the server acked, in ack order.
	acked []answers.Answer
	// sends counts ingestion requests (sampling cadence).
	sends int64
	// prevLabels is the drift baseline: item -> rendered label set at the
	// previous phase boundary.
	prevLabels map[int]string
	// staleness bookkeeping.
	maxStale     int
	staleStreak  int
	staleFailure string
	finalSnap    *serve.Snapshot
	lastJobError string
}

func (ts *tenantState) journalPath(r *runner) string {
	if r.dataDir == "" {
		return ""
	}
	return serve.JournalPath(r.dataDir, ts.id)
}

type runner struct {
	cfg     Config
	sc      Scenario
	pl      *plan
	tenants []*tenantState
	traffic *trafficModel
	client  *http.Client
	start   time.Time
	report  *Report

	// In-process target state; nil fields when targeting an external URL.
	dataDir    string
	ownDataDir bool
	reg        *serve.Registry
	srv        *httptest.Server
	baseURL    atomic.Value // string; swapped across chaos restarts

	ingest obs.Hist
	reads  obs.Hist
	// pubMark is the cumulative publish-latency baseline at the current
	// phase's start, summed over tenants (diffed at the phase boundary).
	pubMark pubTotals

	requests    atomic.Int64
	rejected429 atomic.Int64
	readErrors  atomic.Int64
	monoViol    atomic.Int64

	readersStop chan struct{}
	readersWG   sync.WaitGroup

	ackedTotal int
	killIdx    int
}

// ---------------------------------------------------------------------------
// Target lifecycle
// ---------------------------------------------------------------------------

func (r *runner) inProcess() bool { return r.cfg.BaseURL == "" }

func (r *runner) targetName() string {
	if r.inProcess() {
		return "in-process"
	}
	return r.cfg.BaseURL
}

func (r *runner) base() string { return r.baseURL.Load().(string) }

func (r *runner) serveConfig() serve.Config {
	return serve.Config{
		Dir:             r.dataDir,
		QueueLimit:      r.sc.QueueLimit,
		SaveEvery:       r.sc.saveEvery(),
		BatchWait:       r.sc.batchWait(),
		TruncateJournal: r.sc.TruncateJournal,
		TruncateMin:     r.sc.TruncateMin,
	}
}

func (r *runner) openTarget() error {
	if !r.inProcess() {
		r.baseURL.Store(strings.TrimRight(r.cfg.BaseURL, "/"))
		return nil
	}
	r.dataDir = r.cfg.DataDir
	if r.dataDir == "" {
		dir, err := os.MkdirTemp("", "cpaload-*")
		if err != nil {
			return err
		}
		r.dataDir, r.ownDataDir = dir, true
	}
	reg, err := serve.Open(r.serveConfig())
	if err != nil {
		return err
	}
	r.reg = reg
	r.srv = httptest.NewServer(serve.NewServer(reg))
	r.baseURL.Store(r.srv.URL)
	return nil
}

func (r *runner) closeTarget() {
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	if r.reg != nil {
		r.reg.Close()
		r.reg = nil
	}
	if r.ownDataDir && r.dataDir != "" {
		os.RemoveAll(r.dataDir)
	}
}

// crashRestart hard-kills the in-process server (kill -9 semantics),
// verifies the crash-recovery-exact invariant against the journals, and
// restarts a fresh registry over the same data directory.
func (r *runner) crashRestart(phase string) error {
	r.cfg.Logf("chaos: kill -9 at %d acked answers", r.ackedTotal)
	r.reg.CrashAll()
	r.srv.Close()

	// The pre-crash snapshots are still reachable through the dead
	// registry's job handles; each must be bit-for-bit reconstructible
	// from its journal alone.
	for _, ts := range r.tenants {
		if !ts.created || ts.deleted {
			continue
		}
		job, ok := r.reg.Get(ts.id)
		if !ok {
			return fmt.Errorf("job %q missing from crashed registry", ts.id)
		}
		pre := job.Snapshot()
		r.addInvariant("crash-recovery-exact", ts.id,
			CheckReplay(ts.journalPath(r), ts.spec, pre),
			fmt.Sprintf("kill at %d acked answers", r.ackedTotal))
	}

	reg, err := serve.Open(r.serveConfig())
	if err != nil {
		return fmt.Errorf("reopening after chaos kill: %w", err)
	}
	r.reg = reg
	r.srv = httptest.NewServer(serve.NewServer(reg))
	r.baseURL.Store(r.srv.URL)
	r.report.Kills = append(r.report.Kills, KillEvent{
		AtAnswers: r.ackedTotal, Phase: phase, RecoveredJobs: len(reg.Jobs()),
	})
	return nil
}

// ---------------------------------------------------------------------------
// Phase loop
// ---------------------------------------------------------------------------

func (r *runner) runPhase(pi int) error {
	phase := r.sc.Phases[pi]
	for _, ts := range r.tenants {
		if ts.createAt == pi && !ts.created {
			if err := r.createJob(ts); err != nil {
				return err
			}
		}
	}

	phaseStart := time.Now()
	reqBefore := r.requests.Load()
	r.pubMark = r.collectPublishTotals()
	sent := 0
	for {
		progressed := false
		for _, ts := range r.tenants {
			if !ts.created || ts.deleted || len(ts.acked) >= ts.cuts[pi] {
				continue
			}
			n := r.sc.chunk()
			if rem := ts.cuts[pi] - len(ts.acked); n > rem {
				n = rem
			}
			chunk := ts.stream[len(ts.acked) : len(ts.acked)+n]
			if err := r.sendChunk(ts, chunk); err != nil {
				return err
			}
			ts.acked = append(ts.acked, chunk...)
			r.ackedTotal += n
			sent += n
			progressed = true
			if err := r.maybeKill(phase); err != nil {
				return err
			}
			if ts.sends%sampleEvery == 0 {
				if err := r.sample(ts); err != nil {
					return err
				}
			}
			r.cfg.Clock.Sleep(r.traffic.gap())
			if r.sc.Arrival == ArrivalTrickle {
				// A trickle is slower than the fitter, on any clock: the
				// next chunk arrives once this one is fitted and served,
				// to an idle fitter and a queue below the minimum fill,
				// so its round starts on BatchWait.
				if err := r.quiesce(ts); err != nil {
					return err
				}
			}
		}
		if !progressed {
			break
		}
	}

	// Quiesce every active tenant and record its phase-boundary quality.
	ps := PhaseStats{Name: phase, Answers: sent}
	for _, ts := range r.tenants {
		if !ts.created || ts.deleted {
			continue
		}
		if err := r.quiesce(ts); err != nil {
			return err
		}
		pr, err := r.recordPR(ts)
		if err != nil {
			return err
		}
		ps.PR = append(ps.PR, pr)
	}
	ps.DurationSec = time.Since(phaseStart).Seconds()
	ps.Requests = r.requests.Load() - reqBefore
	if ps.DurationSec > 0 {
		ps.AnswersPerSec = float64(sent) / ps.DurationSec
	}
	ps.Ingest = summarize(r.ingest.Reset())
	ps.Reads = summarize(r.reads.Reset())
	ps.Publish = r.collectPublishTotals().since(r.pubMark)
	r.report.Phases = append(r.report.Phases, ps)
	r.cfg.Logf("phase %q: %d answers, %d requests, %.2fs", phase, sent, ps.Requests, ps.DurationSec)

	for _, ts := range r.tenants {
		if ts.deleteAt == pi && !ts.deleted {
			if err := r.deleteTenant(ts); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *runner) maybeKill(phase string) error {
	for r.killIdx < len(r.pl.kills) && r.ackedTotal >= r.pl.kills[r.killIdx] {
		r.killIdx++
		if err := r.crashRestart(phase); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

func (r *runner) createJob(ts *tenantState) error {
	body, err := json.Marshal(serve.CreateJobRequest{
		ID: ts.id, Items: ts.spec.Items, Workers: ts.spec.Workers, Labels: ts.spec.Labels,
		Model: ts.spec.Model,
	})
	if err != nil {
		return err
	}
	resp, err := r.client.Post(r.base()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("creating job %q: status %d: %s (stale data dir or id collision on an external target?)",
			ts.id, resp.StatusCode, msg)
	}
	ts.created = true
	r.cfg.Logf("created job %s (%d items, %d workers, %d labels, %d answers planned)",
		ts.id, ts.spec.Items, ts.spec.Workers, ts.spec.Labels, len(ts.stream))
	return nil
}

// sendChunk posts one NDJSON ingestion request, retrying 429 backpressure
// rejections until accepted. Only the accepted attempt acks the chunk.
func (r *runner) sendChunk(ts *tenantState, chunk []answers.Answer) error {
	var body bytes.Buffer
	for _, a := range chunk {
		line, err := answers.MarshalAnswerJSON(a)
		if err != nil {
			return err
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	payload := body.Bytes()
	url := r.base() + "/v1/jobs/" + ts.id + "/answers"
	deadline := time.Now().Add(quiesceTimeout)
	for {
		start := time.Now()
		resp, err := r.client.Post(url, "application/x-ndjson", bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("ingesting into %s: %w", ts.id, err)
		}
		lat := time.Since(start)
		status := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch status {
		case http.StatusAccepted:
			r.ingest.Observe(int64(lat))
			r.requests.Add(1)
			ts.sends++
			return nil
		case http.StatusTooManyRequests:
			r.rejected429.Add(1)
			if time.Now().After(deadline) {
				return fmt.Errorf("ingesting into %s: backpressured past the %s deadline", ts.id, quiesceTimeout)
			}
			// Real sleep regardless of the pacing clock: the fitter needs
			// wall time to drain before a retry can succeed.
			time.Sleep(time.Millisecond)
		default:
			return fmt.Errorf("ingesting into %s: status %d", ts.id, status)
		}
	}
}

func (r *runner) getJSON(url string, v any) (int, error) {
	resp, err := r.client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s: %w", url, err)
	}
	return resp.StatusCode, nil
}

// pubTotals is a cumulative publish-latency counter snapshot summed across
// tenants, in the serve layer's log₂ bucket family.
type pubTotals struct {
	counts []int64
	n      int64
	sumNs  int64
	maxNs  int64
}

// since summarises the publish latencies accumulated between an earlier
// snapshot and this one. Chaos restarts reset the server-side counters, so
// negative diffs clamp to zero; the max carries the later snapshot's value
// (cumulative, i.e. run-wide so far).
func (t pubTotals) since(start pubTotals) HistSummary {
	counts := make([]int64, len(t.counts))
	copy(counts, t.counts)
	for b := range start.counts {
		if b < len(counts) {
			counts[b] -= start.counts[b]
		}
	}
	n := t.n - start.n
	sum := t.sumNs - start.sumNs
	if n < 0 {
		n = t.n
	}
	if sum < 0 {
		sum = t.sumNs
	}
	return summaryFromCounts(counts, n, time.Duration(sum), time.Duration(t.maxNs))
}

// collectPublishTotals sums every active tenant's cumulative publish
// histogram (exported in JobStats). Collection errors degrade to an empty
// snapshot: publish latency is reporting, never a reason to fail a run.
func (r *runner) collectPublishTotals() pubTotals {
	var t pubTotals
	for _, ts := range r.tenants {
		if !ts.created || ts.deleted {
			continue
		}
		var stats serve.JobStats
		status, err := r.getJSON(r.base()+"/v1/jobs/"+ts.id, &stats)
		if err != nil || status != http.StatusOK {
			continue
		}
		p := stats.Publish
		if len(t.counts) < len(p.Log2Buckets) {
			grown := make([]int64, len(p.Log2Buckets))
			copy(grown, t.counts)
			t.counts = grown
		}
		for b, c := range p.Log2Buckets {
			t.counts[b] += c
		}
		t.n += p.Count
		t.sumNs += p.SumNs
		if p.MaxNs > t.maxNs {
			t.maxNs = p.MaxNs
		}
	}
	return t
}

// sample probes the staleness invariant (and hot-item reads) mid-stream.
func (r *runner) sample(ts *tenantState) error {
	var stats serve.JobStats
	status, err := r.getJSON(r.base()+"/v1/jobs/"+ts.id, &stats)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("sampling job %s: status %d", ts.id, status)
	}
	if stats.Error != "" {
		ts.lastJobError = stats.Error
	}
	gap := int(stats.FitRounds) - stats.SnapshotRound
	if gap > ts.maxStale {
		ts.maxStale = gap
	}
	if gap > stalenessBound {
		ts.staleStreak++
		if ts.staleStreak >= staleStrikes && ts.staleFailure == "" {
			ts.staleFailure = fmt.Sprintf("snapshot lagged the fitter by %d rounds for %d consecutive samples", gap, ts.staleStreak)
		}
	} else {
		ts.staleStreak = 0
	}

	if r.sc.HotReads && len(ts.hotItems) > 0 {
		item := ts.hotItems[int(ts.sends/sampleEvery)%len(ts.hotItems)]
		start := time.Now()
		var out map[string]any
		if status, err := r.getJSON(fmt.Sprintf("%s/v1/jobs/%s/items/%d", r.base(), ts.id, item), &out); err != nil {
			return err
		} else if status != http.StatusOK {
			return fmt.Errorf("hot read of item %d: status %d", item, status)
		}
		r.reads.Observe(int64(time.Since(start)))
	}
	return nil
}

// quiesce waits until the server has fitted and published everything acked
// for the tenant: fitted == ingested == acked and the snapshot round has
// caught the fit round exactly (the staleness invariant's equality point).
func (r *runner) quiesce(ts *tenantState) error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		var stats serve.JobStats
		status, err := r.getJSON(r.base()+"/v1/jobs/"+ts.id, &stats)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("quiescing job %s: status %d", ts.id, status)
		}
		if stats.Error != "" {
			ts.lastJobError = stats.Error
			return fmt.Errorf("job %s failed while quiescing: %s", ts.id, stats.Error)
		}
		if stats.IngestedAnswers == int64(len(ts.acked)) &&
			stats.FittedAnswers == int64(len(ts.acked)) &&
			stats.SnapshotRound == int(stats.FitRounds) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s did not quiesce: %d/%d fitted, snapshot round %d of %d",
				ts.id, stats.FittedAnswers, len(ts.acked), stats.SnapshotRound, stats.FitRounds)
		}
		time.Sleep(time.Millisecond)
	}
}

// recordPR fetches the served consensus and scores it against the
// simulator's ground truth, tracking per-item drift across phases.
func (r *runner) recordPR(ts *tenantState) (TenantPhasePR, error) {
	var snap serve.Snapshot
	status, err := r.getJSON(r.base()+"/v1/jobs/"+ts.id+"/consensus", &snap)
	if err != nil {
		return TenantPhasePR{}, err
	}
	if status != http.StatusOK {
		return TenantPhasePR{}, fmt.Errorf("reading consensus of %s: status %d", ts.id, status)
	}
	ts.finalSnap = &snap

	pred := make([]labelset.Set, ts.ds.NumItems)
	drift := 0
	for _, item := range snap.Consensus {
		if item.Item < 0 || item.Item >= ts.ds.NumItems {
			return TenantPhasePR{}, fmt.Errorf("consensus of %s names item %d outside [0,%d)", ts.id, item.Item, ts.ds.NumItems)
		}
		pred[item.Item] = labelset.FromSlice(item.Labels)
		key := fmt.Sprint(item.Labels)
		// Items never seen before baseline at the empty set, so the first
		// phase's drift counts items that gained labels, not every item.
		prev, seen := ts.prevLabels[item.Item]
		if !seen {
			prev = "[]"
		}
		if prev != key {
			drift++
		}
		ts.prevLabels[item.Item] = key
	}
	pr, err := metrics.Evaluate(ts.ds, pred)
	if err != nil {
		return TenantPhasePR{}, fmt.Errorf("evaluating %s: %w", ts.id, err)
	}
	return TenantPhasePR{
		Job: ts.id, Round: snap.Round, Answers: snap.Answers,
		Precision: pr.Precision, Recall: pr.Recall, F1: pr.F1(), DriftItems: drift,
	}, nil
}

// deleteTenant quiesces a tenant, pins its final snapshot, verifies the
// replay invariants on its (about to be retained) journal, and deletes the
// job over HTTP.
func (r *runner) deleteTenant(ts *tenantState) error {
	if err := r.quiesce(ts); err != nil {
		return err
	}
	if _, err := r.recordPR(ts); err != nil { // refresh finalSnap
		return err
	}
	r.replayInvariants(ts, "pre-delete")

	req, err := http.NewRequest(http.MethodDelete, r.base()+"/v1/jobs/"+ts.id, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("deleting job %s: status %d", ts.id, resp.StatusCode)
	}
	if status, _ := r.getJSON(r.base()+"/v1/jobs/"+ts.id, &serve.JobStats{}); status != http.StatusNotFound {
		return fmt.Errorf("deleted job %s still answers with status %d", ts.id, status)
	}
	ts.deleted = true
	r.cfg.Logf("deleted job %s after %d answers", ts.id, len(ts.acked))
	return nil
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

func (r *runner) addInvariant(name, job string, err error, passDetail string) {
	iv := InvariantResult{Name: name, Job: job, Status: StatusPass, Detail: passDetail}
	if err != nil {
		iv.Status = StatusFail
		iv.Detail = err.Error()
	}
	r.report.Invariants = append(r.report.Invariants, iv)
	if err != nil {
		r.cfg.Logf("INVARIANT FAIL %s[%s]: %v", name, job, err)
	}
}

func (r *runner) skipInvariant(name, job, why string) {
	r.report.Invariants = append(r.report.Invariants, InvariantResult{
		Name: name, Job: job, Status: StatusSkipped, Detail: why,
	})
}

// replayInvariants checks served-equals-replay and acked-answers-durable
// for one tenant against its journal (in-process targets only).
func (r *runner) replayInvariants(ts *tenantState, when string) {
	if !r.inProcess() {
		r.skipInvariant("served-equals-replay", ts.id, "external target: journal not reachable")
		r.skipInvariant("acked-answers-durable", ts.id, "external target: journal not reachable")
		return
	}
	path := ts.journalPath(r)
	r.addInvariant("served-equals-replay", ts.id,
		CheckReplay(path, ts.spec, ts.finalSnap),
		fmt.Sprintf("%s: %d rounds bit-for-bit", when, ts.finalSnap.Round))
	view, journaled, _, base, err := replayJournal(path, ts.spec)
	if err == nil {
		err = checkAckedDurable(journaled, ts.acked, base.Ans)
	}
	r.addInvariant("acked-answers-durable", ts.id, err,
		fmt.Sprintf("%s: %d acked answers durable in order (%d compacted behind the base)", when, len(ts.acked), base.Ans))
	r.retentionInvariants(ts, view, base, when)
}

// retentionInvariants checks the bounded-memory claims on scenarios that
// enable them: journal truncation must keep the on-disk file a strict
// fraction of the ever-growing global stream, and an answer window must
// keep the model's retained storage within its 2×window rebuild bound. The
// replayed view stands in for the server's model — served-equals-replay
// just proved them bit-identical.
func (r *runner) retentionInvariants(ts *tenantState, view *core.ConsensusView, base serve.JournalBase, when string) {
	if r.sc.TruncateJournal {
		var stats serve.JobStats
		status, err := r.getJSON(r.base()+"/v1/jobs/"+ts.id, &stats)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("job stats: status %d", status)
		}
		if err == nil {
			switch {
			case base.Bytes == 0:
				err = fmt.Errorf("journal was never truncated (%d global bytes, file %d)", stats.JournalBytes, stats.JournalFileBytes)
			case stats.JournalFileBytes > stats.JournalBytes/2:
				err = fmt.Errorf("journal file holds %d of %d global bytes — not bounded", stats.JournalFileBytes, stats.JournalBytes)
			}
		}
		r.addInvariant("journal-bytes-bounded", ts.id, err,
			fmt.Sprintf("%s: file %d of %d global journal bytes (base %d)",
				when, stats.JournalFileBytes, stats.JournalBytes, base.Bytes))
	}
	if w := ts.spec.Model.AnswerWindow; w > 0 && view != nil {
		var err error
		if view.Stats.Retained > 2*w {
			err = fmt.Errorf("model retains %d answers, window bound is %d", view.Stats.Retained, 2*w)
		} else if view.Stats.Answers <= 2*w {
			err = fmt.Errorf("stream too short to exercise the window (%d answers for window %d)", view.Stats.Answers, w)
		}
		r.addInvariant("retained-answers-bounded", ts.id, err,
			fmt.Sprintf("%s: %d of %d stream answers retained (window %d)", when, view.Stats.Retained, view.Stats.Answers, w))
	}
}

// waitRoundInvariant checks that a trickle tenant's fitter started at least
// one round on BatchWait: trickle arrivals stay below the minimum fill, so
// the partial-batch path the scenario exists for must have run.
func (r *runner) waitRoundInvariant(ts *tenantState) {
	var stats serve.JobStats
	status, err := r.getJSON(r.base()+"/v1/jobs/"+ts.id, &stats)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("job stats: status %d", status)
	}
	if err == nil && stats.RoundStarts.BatchWait == 0 {
		err = fmt.Errorf("no round started on BatchWait (round starts %+v)", stats.RoundStarts)
	}
	r.addInvariant("batchwait-rounds", ts.id, err,
		fmt.Sprintf("%d of %d rounds started on BatchWait", stats.RoundStarts.BatchWait, stats.FitRounds))
}

// finalInvariants evaluates the per-tenant and global invariants after the
// last phase.
func (r *runner) finalInvariants() {
	for _, ts := range r.tenants {
		if !ts.created {
			continue
		}
		if !ts.deleted {
			r.replayInvariants(ts, "final")
		}
		var jobErr error
		if ts.lastJobError != "" {
			jobErr = fmt.Errorf("job reported failure: %s", ts.lastJobError)
		}
		r.addInvariant("no-job-failure", ts.id, jobErr, "fitter never failed")
		if r.sc.Arrival == ArrivalTrickle && !ts.deleted {
			r.waitRoundInvariant(ts)
		}
		var staleErr error
		if ts.staleFailure != "" {
			staleErr = fmt.Errorf("%s", ts.staleFailure)
		}
		r.addInvariant("staleness-bounded", ts.id, staleErr,
			fmt.Sprintf("max observed lag %d rounds; exact catch-up at every quiesce", ts.maxStale))
		if ts.maxStale > r.report.MaxStaleness {
			r.report.MaxStaleness = ts.maxStale
		}
	}
	if r.cfg.Readers <= 0 {
		r.skipInvariant("snapshot-monotonic", r.tenants[0].id, "background readers disabled")
		return
	}
	var monoErr error
	if n := r.monoViol.Load(); n > 0 {
		monoErr = fmt.Errorf("readers observed %d snapshot regressions", n)
	}
	r.addInvariant("snapshot-monotonic", r.tenants[0].id, monoErr,
		"no reader ever saw round or answer count regress (restarts included)")
}

// ---------------------------------------------------------------------------
// Background readers
// ---------------------------------------------------------------------------

// startReaders launches goroutines that poll the primary tenant's consensus
// for the whole run: read-latency witnesses and monotonicity watchdogs.
// They tolerate connection errors (the chaos scenarios restart the server
// under them) but never tolerate a regressing snapshot.
func (r *runner) startReaders() {
	if r.cfg.Readers <= 0 {
		return
	}
	r.readersStop = make(chan struct{})
	primary := r.tenants[0].id
	for i := 0; i < r.cfg.Readers; i++ {
		r.readersWG.Add(1)
		go func() {
			defer r.readersWG.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			lastRound, lastAnswers := -1, -1
			for {
				select {
				case <-r.readersStop:
					return
				default:
				}
				start := time.Now()
				resp, err := client.Get(r.base() + "/v1/jobs/" + primary + "/consensus")
				if err != nil {
					r.readErrors.Add(1)
					time.Sleep(2 * time.Millisecond)
					continue
				}
				var head struct {
					Round   int `json:"round"`
					Answers int `json:"answers"`
				}
				decodeErr := json.NewDecoder(resp.Body).Decode(&head)
				status := resp.StatusCode
				resp.Body.Close()
				if status == http.StatusOK && decodeErr == nil {
					r.reads.Observe(int64(time.Since(start)))
					if head.Round < lastRound || head.Answers < lastAnswers {
						r.monoViol.Add(1)
					}
					lastRound, lastAnswers = head.Round, head.Answers
				} else if status != http.StatusNotFound {
					r.readErrors.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
}

func (r *runner) stopReaders() {
	if r.readersStop != nil {
		close(r.readersStop)
		r.readersWG.Wait()
		r.readersStop = nil
	}
}
