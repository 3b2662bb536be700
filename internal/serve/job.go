package serve

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/obs"
)

// Job is one tenant's consensus computation: a core.Model advanced by a
// dedicated background fitter goroutine, fed through a bounded queue, and
// read through atomically published snapshots. The model is owned by the
// fitter; nothing else may touch it while the job is running.
type Job struct {
	spec JobSpec
	dir  string // job directory, "" when the registry is ephemeral

	// Ingestion state, guarded by mu. Journal appends are *sequenced* under
	// mu (reserved into the commit pipeline, keeping on-disk order identical
	// to queue order) but awaited outside it, so concurrent ingesters
	// coalesce under a group-commit leader instead of serialising a flush
	// each behind the mutex. The queue is a head-indexed ring: dequeue
	// advances head (amortised O(1)) instead of memmoving the tail, which
	// would be O(depth) per mini-batch and quadratic under a deep backlog.
	mu    sync.Mutex
	queue []answers.Answer
	head  int
	// reserved counts answers sequenced into the commit pipeline but not yet
	// durable (they join queue in commitDurable). Backpressure counts them:
	// they are admitted load.
	reserved int
	// windowStart opens the BatchWait window (nextBatch): when the oldest
	// queued answer was admitted, stamped as the queue goes from empty to
	// non-empty, or the time of a full-size take that left a remainder.
	windowStart time.Time
	closed      bool
	crashed     bool // test hook: stop without draining or checkpointing
	journal     *journal
	// epoch is the cluster-ownership record (epoch.go). Zero value — primary
	// at epoch 0 — for single-node jobs that never see a Fence/Promote.
	epoch epochState

	wake chan struct{} // 1-buffered ingest/close signal to the fitter

	model *core.Model // fitter-owned while running
	// pub is the reusable snapshot engine (core.Publisher): caught-up
	// rounds publish the full finalize pipeline, backlogged rounds refresh
	// only the batch-dirty items (O(batch), not O(stream)). Fitter-owned.
	pub *core.Publisher

	snap     atomic.Pointer[Snapshot]
	snapTime atomic.Int64 // unixnano of the last publication
	pubHist  obs.Hist     // publish-latency histogram (log₂ buckets)
	// pubFullHist is pubHist restricted to full publications.
	pubFullHist obs.Hist
	// ingestHist aggregates group-commit observability (cohort sizes,
	// append→durable latency); the journal's commit leader feeds it.
	ingestHist *ingestHist
	// traj is the optional per-worker reliability trajectory sampler
	// (traj.go), fitter-fed.
	traj *workerTraj

	ingested atomic.Int64 // answers accepted (journaled + queued)
	fitted   atomic.Int64 // answers consumed by PartialFit
	rounds   atomic.Int64 // PartialFit calls
	failure  atomic.Pointer[string]

	queueLimit  int
	saveEvery   int
	batchWait   time.Duration
	truncate    bool
	truncateMin int64
	// sync is Config.SyncJournal: checkpoint and anchor renames are made
	// durable against power loss too.
	sync bool

	// replayed counts the fit rounds recovery replayed past the loaded
	// checkpoint. They seed the fitter's checkpoint cadence, so a job
	// killed again soon after a reopen replays fewer than SaveEvery rounds.
	replayed int

	wg sync.WaitGroup
}

// newJob wires a job around an existing model (fresh or recovered) without
// starting the fitter. The flow counters seed from the model's total
// ingested count (not the retained count, which an answer window trims).
func newJob(spec JobSpec, model *core.Model, dir string, cfg Config) *Job {
	j := &Job{
		spec:        spec,
		dir:         dir,
		model:       model,
		pub:         core.NewPublisher(model),
		wake:        make(chan struct{}, 1),
		ingestHist:  newIngestHist(),
		queueLimit:  cfg.QueueLimit,
		saveEvery:   cfg.SaveEvery,
		batchWait:   cfg.BatchWait,
		truncate:    cfg.TruncateJournal,
		truncateMin: cfg.TruncateMin,
		sync:        cfg.SyncJournal,
	}
	if spec.Workers <= trajMaxWorkers {
		j.traj = newWorkerTraj(spec.Workers)
	}
	j.snap.Store(emptySnapshot(spec, time.Now()))
	j.snapTime.Store(time.Now().UnixNano())
	j.ingested.Store(int64(model.TotalIngested()))
	j.fitted.Store(int64(model.TotalIngested()))
	j.rounds.Store(int64(model.BatchRounds()))
	return j
}

func (j *Job) start() {
	j.wg.Add(1)
	go j.run()
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.spec.ID }

// Spec returns the job's specification (with the effective model config).
func (j *Job) Spec() JobSpec { return j.spec }

// Snapshot returns the latest published consensus snapshot. It never
// blocks on fitting: the returned value is immutable and shared.
func (j *Job) Snapshot() *Snapshot { return j.snap.Load() }

// Ingest validates and accepts a batch of answers: journals them (when
// persistent) and queues them for the background fitter. It applies
// backpressure via ErrQueueFull and never blocks on fitting. The batch
// carries no ownership stamp: it is rejected only if the job is deposed.
func (j *Job) Ingest(batch []answers.Answer) error {
	return j.IngestAt(batch, -1)
}

// IngestAt is Ingest with a cluster-ownership stamp: the write is rejected
// with ErrFenced unless epoch matches the job's current ownership epoch
// (epoch < 0 skips the equality check but still rejects a deposed job).
// The router stamps every proxied write so a deposed primary can never ack
// an answer behind a newer owner's back.
func (j *Job) IngestAt(batch []answers.Answer, epoch int64) error {
	if len(batch) == 0 {
		return nil
	}
	for _, a := range batch {
		if err := j.spec.validateAnswer(a); err != nil {
			return err
		}
	}
	// Encode the journal lines before taking the mutex: the bytes are a pure
	// function of the batch, and the mutex hold should cover only admission
	// and sequencing. Persistent jobs always have a journal; j.dir is an
	// immutable proxy for that, readable without the lock.
	var req *commitReq
	if j.dir != "" {
		req = getCommitReq()
		req.buf = EncodeAnswerLines(req.buf[:0], batch)
		req.nrecs = int64(len(batch))
	}
	j.mu.Lock()
	if err := j.admitLocked(epoch, len(batch)); err != nil {
		j.mu.Unlock()
		if req != nil {
			putCommitReq(req)
		}
		return err
	}
	jr := j.journal
	if jr == nil {
		// Ephemeral job: no durability to wait for, queue directly.
		j.enqueueLocked(batch)
		j.mu.Unlock()
		if req != nil {
			putCommitReq(req)
		}
		j.ingested.Add(int64(len(batch)))
		j.signal()
		return nil
	}
	req.job, req.batch = j, batch
	if err := jr.reserve(req); err != nil {
		j.mu.Unlock()
		req.job, req.batch = nil, nil
		putCommitReq(req)
		return fmt.Errorf("serve: journaling batch: %w", err)
	}
	j.reserved += len(batch)
	j.mu.Unlock()
	// Wait for durability outside the mutex; the release chain has already
	// queued the batch (commitDurable) by the time the wait returns.
	if err := jr.await(req); err != nil {
		return fmt.Errorf("serve: journaling batch: %w", err)
	}
	j.ingested.Add(int64(len(batch)))
	return nil
}

// admitLocked runs the ingest admission checks under j.mu: ownership epoch,
// liveness, and queue backpressure (counting pipeline-reserved answers as
// admitted load).
func (j *Job) admitLocked(epoch int64, n int) error {
	if err := j.checkEpochLocked(epoch); err != nil {
		return err
	}
	if j.closed {
		return ErrClosed
	}
	if msg := j.failure.Load(); msg != nil {
		return fmt.Errorf("%w: job failed: %s", ErrClosed, *msg)
	}
	if depth := len(j.queue) - j.head + j.reserved; depth+n > j.queueLimit {
		return fmt.Errorf("%w: %d queued + %d incoming > limit %d",
			ErrQueueFull, depth, n, j.queueLimit)
	}
	return nil
}

// queueFull returns admission's ErrQueueFull when queued + reserved
// answers already reach the queue limit, so any non-empty batch would be
// refused; otherwise nil. Every other refusal (epoch, closed, failed) is
// left to IngestAt's admission.
func (j *Job) queueFull(epoch int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.admitLocked(epoch, 1); errors.Is(err, ErrQueueFull) {
		return err
	}
	return nil
}

// commitDurable is the group-commit release chain's post-durability hook,
// called once per reserved batch in pipeline (= journal) order before the
// waiter is released. On success the batch moves from reserved to queued, so queue
// order stays identical to journal order — the invariant fit-marker replay
// depends on. On failure the reservation is released and the batch never
// queued, preserving the old failed-append-is-never-fitted semantics.
func (j *Job) commitDurable(batch []answers.Answer, err error) {
	j.mu.Lock()
	j.reserved -= len(batch)
	if err == nil {
		j.enqueueLocked(batch)
	}
	j.mu.Unlock()
	if err == nil {
		j.signal()
	}
}

// validateAnswer checks one answer against the spec's dimensions. Shared by
// the live ingest path and the journal replay engine.
func (s JobSpec) validateAnswer(a answers.Answer) error {
	if a.Item < 0 || a.Item >= s.Items {
		return fmt.Errorf("%w: item %d out of range [0,%d)", ErrInvalid, a.Item, s.Items)
	}
	if a.Worker < 0 || a.Worker >= s.Workers {
		return fmt.Errorf("%w: worker %d out of range [0,%d)", ErrInvalid, a.Worker, s.Workers)
	}
	if a.Labels.IsEmpty() {
		return fmt.Errorf("%w: empty answer for item %d worker %d", ErrInvalid, a.Item, a.Worker)
	}
	if mx := a.Labels.Max(); mx >= s.Labels {
		return fmt.Errorf("%w: label %d out of range [0,%d)", ErrInvalid, mx, s.Labels)
	}
	return nil
}

// enqueueRecovered requeues journal answers that had not been fitted before
// a crash. They are already in the journal and must not be re-journaled.
func (j *Job) enqueueRecovered(pending []answers.Answer) {
	if len(pending) == 0 {
		return
	}
	j.mu.Lock()
	j.enqueueLocked(pending)
	j.mu.Unlock()
	j.signal()
}

// enqueueLocked appends admitted answers to the fitter queue under j.mu,
// opening the batch window when the queue was empty.
func (j *Job) enqueueLocked(batch []answers.Answer) {
	if len(j.queue) == j.head {
		j.windowStart = time.Now()
	}
	j.queue = append(j.queue, batch...)
}

func (j *Job) signal() {
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// Stats summarises the job's live serving state. The adaptivity diagnostics
// (effective communities/clusters) are read from the published snapshot —
// they were computed once at publication; a /statsz hit must not touch the
// model or recompute anything per request.
func (j *Job) Stats() JobStats {
	j.mu.Lock()
	depth := len(j.queue) - j.head + j.reserved
	var jb, jr, jfb int64
	if j.journal != nil {
		jb, jr = j.journal.globalOffsets()
		jfb, _ = j.journal.offsets()
	}
	epoch := j.epoch
	j.mu.Unlock()
	snap := j.snap.Load()
	st := JobStats{
		ID:                   j.spec.ID,
		Items:                j.spec.Items,
		Workers:              j.spec.Workers,
		Labels:               j.spec.Labels,
		IngestedAnswers:      j.ingested.Load(),
		FittedAnswers:        j.fitted.Load(),
		QueueDepth:           depth,
		FitRounds:            j.rounds.Load(),
		SnapshotRound:        snap.Round,
		SnapshotAgeSec:       time.Since(time.Unix(0, j.snapTime.Load())).Seconds(),
		EffectiveCommunities: snap.EffectiveCommunities,
		EffectiveClusters:    snap.EffectiveClusters,
		Publish:              publishStats(j.pubHist.Snapshot()),
		PublishFull:          publishStats(j.pubFullHist.Snapshot()),
		Ingest:               j.ingestHist.summary(),
		JournalBytes:         jb,
		JournalRecords:       jr,
		JournalFileBytes:     jfb,
		Epoch:                epoch.Epoch,
		Deposed:              epoch.Deposed,
	}
	if msg := j.failure.Load(); msg != nil {
		st.Error = *msg
	}
	return st
}

// WorkerTrajectories returns the recent per-worker reliability samples the
// publisher recorded (nil when the job's worker count exceeds the sampling
// cap). Only workers with at least one sample appear. Exposed on /statsz
// behind ?workers=1: the payload is O(workers × ring), far too heavy to ship
// on every stats poll.
func (j *Job) WorkerTrajectories() []WorkerTrajectory {
	if j.traj == nil {
		return nil
	}
	return j.traj.trajectories()
}

// JournalOffsets returns the durable (byte, record) position of the job's
// journal in global (never-truncated) coordinates — the replication
// coordinates the cluster layer ships and compares. Both are 0 for
// ephemeral (journal-less) jobs.
func (j *Job) JournalOffsets() (bytes, recs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.journal == nil {
		return 0, 0
	}
	return j.journal.globalOffsets()
}

// errJournalClosed reports a journaled job whose journal a close or crash
// dropped. It maps to 503, never 400: a follower restages from scratch on a
// 400, which would discard every answer it already holds.
var errJournalClosed = fmt.Errorf("%w: journal dropped", ErrClosed)

// journalDurable returns the journal's durable length in global
// coordinates, or errJournalClosed once a close or crash dropped it.
func (j *Job) journalDurable() (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.journal == nil {
		return 0, errJournalClosed
	}
	b, _ := j.journal.globalOffsets()
	return b, nil
}

// journalSection is an openable byte range of the journal file, resolved
// from global coordinates under the job mutex so a concurrent truncation
// cannot shift the mapping between the offset check and the open. The file
// handle pins the inode: a truncation that renames a compacted file over
// the path while a reader drains the section does not disturb it.
type journalSection struct {
	f *os.File
	// start/n are the file-local byte range to serve.
	start, n int64
	// durable is the global durable offset at open time; served bytes end at
	// min(from+max, durable) in global coordinates.
	durable int64
	// base/hdrLen describe the file's truncation header. When the section
	// includes the header (a base handshake), start is 0 and n counts the
	// header line; the reader must subtract hdrLen when advancing its global
	// offset.
	base   JournalBase
	hdrLen int64
}

func (s *journalSection) Close() error { return s.f.Close() }

// openJournalSection maps the global byte range [from, from+max) onto the
// current journal file and opens it for reading. A from below the base
// offset fails with ErrTruncated — the prefix no longer exists on disk and
// the reader must re-handshake from the base (fetch the base checkpoint,
// then request from == base.Bytes with includeBase set, which serves the
// physical file from byte 0 so the base header travels with the suffix).
func (j *Job) openJournalSection(from, max int64, includeBase bool) (*journalSection, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.journal == nil {
		return nil, errJournalClosed
	}
	durable, base, hdr := j.journal.view()
	if from < base.Bytes {
		return nil, fmt.Errorf("%w (requested %d, base %d)", ErrTruncated, from, base.Bytes)
	}
	if from > durable {
		return nil, fmt.Errorf("%w: offset %d beyond durable %d", ErrInvalid, from, durable)
	}
	if includeBase && from != base.Bytes {
		return nil, fmt.Errorf("%w: base handshake must start at the base offset %d, got %d",
			ErrInvalid, base.Bytes, from)
	}
	end := durable
	if max > 0 && from+max < end {
		end = from + max
	}
	// File-local mapping of a global offset: hdr + (global − base.Bytes).
	start := hdr + (from - base.Bytes)
	n := (end - from)
	if includeBase {
		start, n = 0, n+hdr
	}
	f, err := os.Open(filepath.Join(j.dir, journalFile))
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal for tail: %w", err)
	}
	return &journalSection{f: f, start: start, n: n, durable: durable, base: base, hdrLen: hdr}, nil
}

// journalBase returns the journal's truncation base (zero for an untruncated
// or ephemeral job).
func (j *Job) journalBase() JournalBase {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.journal == nil {
		return JournalBase{}
	}
	_, base, _ := j.journal.view()
	return base
}

// JobStats is the JSON-ready serving state of one job (the /statsz shape).
type JobStats struct {
	ID              string  `json:"id"`
	Items           int     `json:"items"`
	Workers         int     `json:"workers"`
	Labels          int     `json:"labels"`
	IngestedAnswers int64   `json:"ingested_answers"`
	FittedAnswers   int64   `json:"fitted_answers"`
	QueueDepth      int     `json:"queue_depth"`
	FitRounds       int64   `json:"fit_rounds"`
	SnapshotRound   int     `json:"snapshot_round"`
	SnapshotAgeSec  float64 `json:"snapshot_age_seconds"`
	// EffectiveCommunities/EffectiveClusters mirror the published snapshot's
	// adaptivity diagnostics (computed at publication, never per request).
	EffectiveCommunities int `json:"effective_communities"`
	EffectiveClusters    int `json:"effective_clusters"`
	// Publish is the job's cumulative snapshot-publication latency
	// histogram. PublishFull is the same histogram over the full
	// publications alone (every item rebuilt); the difference is the
	// incremental ones.
	Publish     PublishStats `json:"publish"`
	PublishFull PublishStats `json:"publish_full"`
	// Ingest is the journal group-commit observability: append→durable
	// latency and cohort-size histograms (zeroed for ephemeral jobs).
	Ingest IngestStats `json:"ingest"`
	// JournalBytes/JournalRecords are the durable journal position in global
	// (never-truncated) coordinates: the byte length and record count covered
	// by fully flushed, complete lines, continuous and monotone across journal
	// truncations. They are the replication coordinates of the cluster layer —
	// a follower whose applied byte offset equals the primary's journal_bytes
	// has replayed the same records — and 0/0 for ephemeral (journal-less)
	// jobs. JournalFileBytes is the on-disk size of the current journal file;
	// with truncation enabled it stays bounded while JournalBytes grows.
	JournalBytes     int64 `json:"journal_bytes"`
	JournalRecords   int64 `json:"journal_records"`
	JournalFileBytes int64 `json:"journal_file_bytes"`
	// Epoch/Deposed expose the cluster-ownership record: writes are fenced
	// (409) on a deposed replica or under a mismatched epoch stamp.
	Epoch   int64 `json:"epoch"`
	Deposed bool  `json:"deposed,omitempty"`
	// WorkerTraj carries per-worker reliability trajectories; populated only
	// on explicit request (/statsz?workers=1), never on plain stats polls.
	WorkerTraj []WorkerTrajectory `json:"worker_trajectories,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// PublishStats is the JSON-ready cumulative latency histogram of the
// obs.Hist latency family (50µs base, doubling), the family loadgen's
// reports use, so soak reports can diff the exported counters phase over
// phase.
type PublishStats struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MaxNs int64 `json:"max_ns"`
	// Log2Buckets counts publications per latency bucket: bucket b covers
	// (50µs·2^(b-1), 50µs·2^b], with bucket 0 covering (0, 50µs].
	Log2Buckets []int64 `json:"log2_buckets"`
}

func publishStats(s obs.Snapshot) PublishStats {
	return PublishStats{Count: s.N, SumNs: s.Sum, MaxNs: s.Max, Log2Buckets: s.Log2(obs.Buckets)}
}

// cohortBuckets is the number of cohort-size buckets exported; 2^15
// records in one commit is far past any realistic coalescing run.
const cohortBuckets = 16

// IngestStats is the JSON-ready group-commit observability of one job:
// whether appends coalesce (cohort sizes) and what durability costs each
// caller (append→durable latency, in PublishStats' latency family).
type IngestStats struct {
	// Appends is the append→durable commit latency histogram: one sample
	// per reserved record group, measured from sequencing to release.
	Appends PublishStats `json:"appends"`
	// Cohorts counts group commits (flush rounds); CohortRecords the records
	// they carried. CohortRecords/Cohorts is the coalescing factor — 1.0
	// means no coalescing, the old one-flush-per-append behaviour.
	Cohorts          int64 `json:"cohorts"`
	CohortRecords    int64 `json:"cohort_records"`
	MaxCohortRecords int64 `json:"max_cohort_records"`
	// CohortLog2Buckets counts cohorts by record count: bucket 0 is a lone
	// record (no coalescing), bucket b counts cohorts of (2^(b-1), 2^b].
	CohortLog2Buckets []int64 `json:"cohort_log2_buckets"`
}

// ingestHist accumulates group-commit statistics: the append→durable
// latency of each reserved group and the record count of each cohort. The
// journal's commit leader is the only writer and observes once per cohort,
// outside every journal and job lock; /statsz readers are concurrent.
type ingestHist struct {
	appends obs.Hist
	cohorts obs.Hist // values are record counts: Base 1
}

func newIngestHist() *ingestHist {
	return &ingestHist{cohorts: obs.Hist{Base: 1}}
}

// observe records one committed cohort: its total record count and, per
// reserved group in it, the sequencing→durable latency.
func (h *ingestHist) observe(cohort []*commitReq, nrecs int64) {
	now := time.Now()
	h.cohorts.Observe(nrecs)
	for _, r := range cohort {
		h.appends.Observe(int64(now.Sub(r.t0)))
	}
}

func (h *ingestHist) summary() IngestStats {
	c := h.cohorts.Snapshot()
	return IngestStats{
		Appends:           publishStats(h.appends.Snapshot()),
		Cohorts:           c.N,
		CohortRecords:     c.Sum,
		MaxCohortRecords:  c.Max,
		CohortLog2Buckets: c.Log2(cohortBuckets),
	}
}

// Close stops ingestion, lets the fitter drain the queue, checkpoints the
// model (persistent jobs), and closes the journal. Idempotent.
func (j *Job) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		j.wg.Wait()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	j.signal()
	j.wg.Wait()

	var err error
	if j.dir != "" && j.failure.Load() == nil {
		err = j.saveModel()
		if err == nil && j.truncate {
			// A clean close drained the queue, so the final fit round (if
			// any) published full and the checkpoint just written covers the
			// whole journal: truncate now instead of carrying one extra
			// journal window across a graceful restart.
			err = j.truncateJournal()
		}
	}
	if jr := j.dropJournal(); jr != nil {
		if cerr := jr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// dropJournal detaches the journal under j.mu, so the readers that check it
// under the mutex (the journal tail's journalDurable and journalSection) see
// it either attached or gone, and returns it for the caller to close.
func (j *Job) dropJournal() *journal {
	j.mu.Lock()
	defer j.mu.Unlock()
	jr := j.journal
	j.journal = nil
	return jr
}

// crash simulates a hard kill for recovery tests: the fitter stops without
// draining the queue, and no final checkpoint or journal close runs (journal
// appends are already flushed per batch, as they would be in a real crash).
func (j *Job) crash() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	j.crashed = true
	j.mu.Unlock()
	j.signal()
	j.wg.Wait()
	if jr := j.dropJournal(); jr != nil {
		jr.closeCrash()
	}
}

// ---------------------------------------------------------------------------
// Background fitter
// ---------------------------------------------------------------------------

// batchPool recycles mini-batch slices across fit rounds (and across jobs):
// a fresh []answers.Answer per round was one allocation per round forever.
var batchPool = sync.Pool{New: func() any { return new([]answers.Answer) }}

func (j *Job) run() {
	defer j.wg.Done()
	roundsSinceSave := j.replayed
	for {
		bp, ok := j.nextBatch()
		if !ok {
			return
		}
		err := j.fitGuarded(*bp, &roundsSinceSave)
		// PartialFit copies what it keeps (label sets are flattened into the
		// model's own storage), so the batch recycles as soon as the round
		// is done. Clear the entries so pooled memory doesn't pin label
		// sets.
		clear(*bp)
		*bp = (*bp)[:0]
		batchPool.Put(bp)
		if err != nil {
			msg := err.Error()
			j.failure.Store(&msg)
			return
		}
	}
}

// fitRoundHook, when set, runs at the start of every fit round. It is a
// fault-injection seam for tests and must be set before any job starts.
var fitRoundHook func(j *Job)

// fitGuarded runs one fit round and turns a panic in it — on the fitter
// goroutine or, via mat.ParallelFor, on one of its shards — into an error.
// run latches the error as the job's failure and stops the fitter, so the
// job's ingests fail through admission and its JobStats.Error reports the
// panic, while every other job keeps serving.
func (j *Job) fitGuarded(batch []answers.Answer, roundsSinceSave *int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: fitter panic: %v", r)
			log.Printf("serve: job %s: fitter panic: %v\n%s", j.spec.ID, r, debug.Stack())
		}
	}()
	if fitRoundHook != nil {
		fitRoundHook(j)
	}
	return j.fitBatch(batch, roundsSinceSave)
}

// nextBatch blocks until a mini-batch is available: a full BatchSize, or
// whatever is queued once BatchWait has elapsed since the oldest queued
// answer was admitted, or since the full-size take that left it queued
// (bounded consensus staleness under trickle load), or the remainder at
// close. An answer admitted while a round runs therefore waits for that
// round, not for another whole BatchWait after it. It returns ok=false when
// the job is done. The returned slice comes from batchPool; the caller
// returns it after the round.
func (j *Job) nextBatch() (*[]answers.Answer, bool) {
	batchSize := j.model.Config().BatchSize
	for {
		j.mu.Lock()
		n := len(j.queue) - j.head
		done := j.crashed || (j.closed && n == 0)
		deadline := j.windowStart.Add(j.batchWait)
		ripe := n >= batchSize ||
			(n > 0 && j.closed) ||
			(n > 0 && !time.Now().Before(deadline))
		if done {
			j.mu.Unlock()
			return nil, false
		}
		if ripe {
			take := n
			if take > batchSize {
				take = batchSize
			}
			bp := batchPool.Get().(*[]answers.Answer)
			*bp = append((*bp)[:0], j.queue[j.head:j.head+take]...)
			j.head += take
			if j.head == len(j.queue) {
				j.queue = j.queue[:0]
				j.head = 0
			} else {
				// A full-size take left a remainder: its window opens
				// now, so a backlog keeps filling whole batches.
				j.windowStart = time.Now()
			}
			if j.head >= 1024 && j.head*2 >= len(j.queue) {
				// Compact once the dead prefix dominates, so a long-lived
				// backlog doesn't pin memory for answers already fitted.
				rest := copy(j.queue, j.queue[j.head:])
				j.queue = j.queue[:rest]
				j.head = 0
			}
			j.mu.Unlock()
			return bp, true
		}
		j.mu.Unlock()
		if n == 0 {
			<-j.wake
		} else {
			select {
			case <-j.wake:
			case <-time.After(time.Until(deadline)):
			}
		}
	}
}

// fitBatch advances the model one SVI round, journals the fit marker (with
// the round's publish mode), publishes a snapshot, and periodically
// checkpoints. The mode is chosen by backlog: a caught-up round publishes
// the full finalize pipeline — so every quiesced snapshot is bit-identical
// to the offline FitStream+FinalizeOnline computation — while a backlogged
// round publishes incrementally, refreshing only the items this batch
// touched (plus a bounded sweep) in O(batch) instead of O(stream). Because
// the mode lands in the journal before the publication, any published
// snapshot — including a mid-backlog one a crash pins — is reproducible by
// replay.
func (j *Job) fitBatch(batch []answers.Answer, roundsSinceSave *int) error {
	if err := j.model.PartialFit(batch); err != nil {
		return err
	}
	j.fitted.Add(int64(len(batch)))
	j.rounds.Add(1)
	j.mu.Lock()
	full := len(j.queue)-j.head == 0
	if j.truncate && j.dir != "" && *roundsSinceSave+1 >= j.saveEvery {
		// This round's checkpoint may anchor a truncation, and only a
		// full-published round can (the retained suffix must replay from a
		// full posterior). Force the full pipeline — the mode is journaled
		// before the publication, so replay and followers mirror it exactly.
		full = true
	}
	var jerr error
	var req *commitReq
	jr := j.journal
	if jr != nil {
		req, jerr = jr.reserveLine(fitLine(len(batch), full))
	}
	j.mu.Unlock()
	if jerr != nil {
		return fmt.Errorf("serve: journaling fit marker: %w", jerr)
	}
	if req != nil {
		// The marker must be durable before the publication it describes:
		// a snapshot must never be observable without its journal record,
		// or replay could fall one publication behind a served state.
		if err := jr.await(req); err != nil {
			return fmt.Errorf("serve: journaling fit marker: %w", err)
		}
	}
	if err := j.publish(full); err != nil {
		return err
	}
	if j.dir != "" {
		*roundsSinceSave++
		if *roundsSinceSave >= j.saveEvery {
			*roundsSinceSave = 0
			if err := j.saveModel(); err != nil {
				return err
			}
			if full && j.truncate {
				if err := j.truncateJournal(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// truncateJournal drops the journal prefix the checkpoint just written
// covers (DESIGN.md §12). Only checkpoints taken at a full publication
// anchor a truncation: incremental snapshot chains reference publisher
// history back to the last full round, so replay of the retained suffix
// must start from a full-published posterior. The journal decides the cut
// first and anchors second: base.gob (a copy of the anchoring checkpoint)
// is written only once a cut is chosen, and reaches disk before the journal
// rewrite commits, so a journal with a base header always has its anchor
// and a too-short prefix leaves base.gob untouched.
func (j *Job) truncateJournal() error {
	coveredAns := int64(j.model.TotalIngested())
	coveredFits := int64(j.model.BatchRounds())
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.journal == nil || j.journal.fileLen() < j.truncateMin {
		return nil
	}
	anchor := func() error {
		return copyFileAtomic(filepath.Join(j.dir, modelFile), filepath.Join(j.dir, baseFile), j.sync)
	}
	if _, err := j.journal.truncate(filepath.Join(j.dir, journalFile), coveredAns, coveredFits, j.truncateMin, anchor); err != nil {
		return fmt.Errorf("serve: truncating journal: %w", err)
	}
	return nil
}

// publish builds and atomically swaps in a fresh consensus snapshot through
// the reusable core.Publisher. The live model keeps streaming untouched:
// finalize runs on the publisher's shared-prefix clone, so a caught-up
// (full) publication and the offline FitStream path produce identical
// posteriors for identical batch sequences. Incremental publications share
// the untouched items' snapshot entries with the previous publication.
func (j *Job) publish(full bool) error {
	start := time.Now()
	view, dirty, err := j.pub.Publish(full)
	if err != nil {
		return fmt.Errorf("serve: building snapshot: %w", err)
	}
	now := time.Now()
	j.snap.Store(nextSnapshot(j.spec.ID, j.snap.Load(), view, dirty, now))
	j.snapTime.Store(now.UnixNano())
	d := time.Since(start)
	j.pubHist.Observe(int64(d))
	if dirty == nil {
		j.pubFullHist.Observe(int64(d))
	}
	if j.traj != nil {
		j.traj.maybeRecord(j.rounds.Load(), j.model)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

const (
	specFile    = "job.json"
	journalFile = "journal.jsonl"
	modelFile   = "model.gob"
	baseFile    = "base.gob"
)

// Canonical job-directory file names, exported for the cluster layer: a
// follower stages a shipped journal (plus the spec and, on planned handoff,
// the primary's checkpoint) under these names so Registry.AdoptJob can run
// the standard recovery path over the staged directory. BaseCheckpointFileName
// is the truncation anchor: the checkpoint copy a truncated journal's base
// header refers to, staged by followers of a truncated source.
const (
	SpecFileName           = specFile
	JournalFileName        = journalFile
	CheckpointFileName     = modelFile
	BaseCheckpointFileName = baseFile
)

// JournalPath returns the path of a job's ingestion journal under a
// registry data directory — the file ReadJournal consumes. The on-disk
// layout is private to this package; external replay tooling (loadgen's
// invariant checker) must resolve paths through this helper rather than
// hardcoding it.
func JournalPath(dataDir, jobID string) string {
	return filepath.Join(dataDir, "jobs", jobID, journalFile)
}

// saveModel checkpoints the live posterior atomically (tmp + rename). Only
// the fitter goroutine (or Close, after the fitter exited) calls this.
func (j *Job) saveModel() error {
	tmp := filepath.Join(j.dir, modelFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serve: checkpointing model: %w", err)
	}
	if err := j.model.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: checkpointing model: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: checkpointing model: %w", err)
	}
	if err := RenameDurable(tmp, filepath.Join(j.dir, modelFile), j.sync); err != nil {
		return fmt.Errorf("serve: checkpointing model: %w", err)
	}
	return nil
}

// copyFileAtomic copies src to dst through a temp file, fsyncing before the
// rename so a crash can never leave a torn dst; sync makes the rename
// durable (RenameDurable).
func copyFileAtomic(src, dst string, sync bool) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp := dst + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return RenameDurable(tmp, dst, sync)
}
