package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
)

// Server exposes a Registry over HTTP.
//
//	POST   /v1/jobs                    create a job
//	GET    /v1/jobs                    list jobs (stats)
//	GET    /v1/jobs/{id}               one job's stats
//	DELETE /v1/jobs/{id}               close and unregister a job (?purge=1 also deletes its storage)
//	POST   /v1/jobs/{id}/answers      ingest answers (JSON body or NDJSON stream)
//	GET    /v1/jobs/{id}/consensus    latest consensus snapshot
//	GET    /v1/jobs/{id}/items/{item} one item's consensus
//	GET    /healthz                    liveness
//	GET    /statsz                     queue depths, fit rounds, snapshot ages
//	                                   (?workers=1 adds per-worker reliability
//	                                   trajectories; also on GET /v1/jobs/{id})
//
// Cluster-facing endpoints (consumed by internal/cluster, harmless to
// expose on a single node):
//
//	GET    /v1/jobs/{id}/journal      tail the journal from ?from=N (long-poll ?wait_ms=M)
//	GET    /v1/jobs/{id}/checkpoint   latest model checkpoint (gob)
//	GET    /v1/jobs/{id}/spec         effective job spec (defaults filled)
//	POST   /v1/jobs/{id}/fence        depose the job at {"epoch":N}
//	POST   /v1/jobs/{id}/promote      (re-)establish ownership at {"epoch":N}
type Server struct {
	reg   *Registry
	mux   *http.ServeMux
	start time.Time
}

// NewServer wraps a registry in an http.Handler.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStats)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)
	s.mux.HandleFunc("POST /v1/jobs/{id}/answers", s.handleIngest)
	s.mux.HandleFunc("GET /v1/jobs/{id}/consensus", s.handleConsensus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/items/{item}", s.handleItem)
	s.mux.HandleFunc("GET /v1/jobs/{id}/journal", s.handleJournalTail)
	s.mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/jobs/{id}/spec", s.handleJobSpec)
	s.mux.HandleFunc("POST /v1/jobs/{id}/fence", s.handleFence)
	s.mux.HandleFunc("POST /v1/jobs/{id}/promote", s.handlePromote)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

// CreateJobRequest is the POST /v1/jobs body. Model is optional; omitted
// fields take the core defaults.
type CreateJobRequest struct {
	ID      string      `json:"id"`
	Items   int         `json:"items"`
	Workers int         `json:"workers"`
	Labels  int         `json:"labels"`
	Model   core.Config `json:"model,omitempty"`
}

// IngestRequest is the JSON form of the answers endpoint body; NDJSON
// bodies (Content-Type application/x-ndjson) carry bare answer lines
// instead.
type IngestRequest struct {
	Answers []answers.JSONAnswer `json:"answers"`
}

// IngestResponse reports how much was accepted and the current backlog.
// JournalBytes is the durable journal length after the batch landed — the
// router's replication ack barrier compares it against follower shipped
// offsets so a client ack implies the batch is replicated, not merely
// journaled on one node. 0 for ephemeral (journal-less) jobs.
type IngestResponse struct {
	Accepted     int   `json:"accepted"`
	QueueDepth   int   `json:"queue_depth"`
	JournalBytes int64 `json:"journal_bytes"`
}

// ServerStats is the /statsz shape.
type ServerStats struct {
	UptimeSec float64    `json:"uptime_seconds"`
	NumJobs   int        `json:"num_jobs"`
	Jobs      []JobStats `json:"jobs"`
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req CreateJobRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxCreateBytes)
	dec := json.NewDecoder(r.Body)
	// Strict field checking: a typoed field (e.g. "modle" or a misspelled
	// core.Config key) would otherwise be dropped silently and the job
	// created with default settings.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, fmt.Errorf("%w: decoding body: %v", bodyErrKind(err), err))
		return
	}
	job, err := s.reg.Create(JobSpec{
		ID: req.ID, Items: req.Items, Workers: req.Workers, Labels: req.Labels,
		Model: req.Model,
	})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, job.Stats())
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.reg.Jobs()
	stats := make([]JobStats, len(jobs))
	for i, j := range jobs {
		stats[i] = j.Stats()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": stats})
}

func (s *Server) handleJobStats(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	st := job.Stats()
	if r.URL.Query().Get("workers") == "1" {
		st.WorkerTraj = job.WorkerTrajectories()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	// Plain DELETE unregisters but keeps the on-disk state (journal,
	// checkpoints) for a later reopen; ?purge=1 also removes the job
	// directory so storage for finished jobs is actually reclaimed.
	del := s.reg.Delete
	if r.URL.Query().Get("purge") == "1" {
		del = s.reg.Purge
	}
	if err := del(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	// X-CPA-Epoch stamps the write with the ownership epoch the sender
	// believes is current (the router sets it on every proxied write); a
	// mismatch or a deposed replica fences the batch with 409. Unstamped
	// writes (single-node clients) skip the equality check.
	epoch := int64(-1)
	if h := r.Header.Get(epochHeader); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v < 0 {
			httpError(w, fmt.Errorf("%w: bad %s header %q", ErrInvalid, epochHeader, h))
			return
		}
		epoch = v
	}
	// A job whose queue is already at its limit refuses every batch: answer
	// 429 before reading the body, so a saturated job does not upload and
	// decode what it will refuse anyway.
	if err := job.queueFull(epoch); err != nil {
		httpError(w, err)
		return
	}
	// Otherwise the whole request is decoded before Job.IngestAt applies
	// queue backpressure, so the body itself must be bounded or one
	// oversized POST exhausts memory before the 429 path can fire. Chunk
	// large streams into multiple requests.
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBytes)
	var batch []answers.Answer
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/x-ndjson") || strings.HasPrefix(ct, "application/jsonl") {
		// Zero-alloc steady state: the body buffer and batch slice recycle
		// through a pool, lines split on bytes.IndexByte, and each record
		// decodes through the hand codec (jcodec.go). Only the label-set
		// words allocate — from a per-request arena, because the queue
		// retains them until the answers are fitted; the arena is never
		// pooled, it is reclaimed by the GC together with its sets.
		sc := ingestScratchPool.Get().(*ingestScratch)
		defer func() {
			clear(sc.batch)
			sc.batch = sc.batch[:0]
			if cap(sc.body) > maxPooledBodyBytes {
				// A rare oversized POST must not pin its grown buffer (up to
				// maxIngestBytes) in the pool until the next GC: a burst of
				// large bodies would park tens of MiB there. Steady-state
				// bodies stay under the cap and keep recycling.
				return
			}
			ingestScratchPool.Put(sc)
		}()
		var err error
		if sc.body, err = readBody(r.Body, sc.body); err != nil {
			httpError(w, fmt.Errorf("%w: reading body: %v", bodyErrKind(err), err))
			return
		}
		var arena labelset.Arena
		if err := DecodeNDJSON(sc.body, &arena, func(a answers.Answer) error {
			sc.batch = append(sc.batch, a)
			return nil
		}); err != nil {
			httpError(w, fmt.Errorf("%w: %v", bodyErrKind(err), err))
			return
		}
		batch = sc.batch
	} else {
		var req IngestRequest
		dec := json.NewDecoder(r.Body)
		// Strict field checking: an NDJSON stream posted with a JSON
		// content type would otherwise decode as an IngestRequest with no
		// answers and be acked as an empty batch, silently dropping
		// everything the client sent.
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, fmt.Errorf("%w: decoding body: %v", bodyErrKind(err), err))
			return
		}
		batch = make([]answers.Answer, len(req.Answers))
		for i, ja := range req.Answers {
			batch[i] = ja.Answer()
		}
	}
	if err := job.IngestAt(batch, epoch); err != nil {
		httpError(w, err)
		return
	}
	// The offsets are read after the ack, so they are ≥ the batch's end
	// offset even if a concurrent ingest landed in between — conservative,
	// which is the safe direction for the router's replication barrier.
	jb, _ := job.JournalOffsets()
	writeJSON(w, http.StatusAccepted, IngestResponse{
		Accepted:     len(batch),
		QueueDepth:   job.Stats().QueueDepth,
		JournalBytes: jb,
	})
}

func (s *Server) handleConsensus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	// The snapshot caches its encoding: concurrent readers of the same
	// publication share one marshal instead of re-encoding O(items) each.
	body, err := job.Snapshot().encodedBody()
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleItem(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	item, err := strconv.Atoi(r.PathValue("item"))
	if err != nil || item < 0 || item >= job.Spec().Items {
		httpError(w, fmt.Errorf("%w: item %q out of range [0,%d)", ErrNotFound, r.PathValue("item"), job.Spec().Items))
		return
	}
	snap := job.Snapshot()
	if item >= len(snap.Consensus) {
		// No fit round yet: an empty consensus for a valid item.
		writeJSON(w, http.StatusOK, map[string]any{"round": snap.Round, "item": ItemSnapshot{Item: item}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"round": snap.Round, "item": snap.Consensus[item]})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "num_jobs": len(s.reg.Jobs())})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	jobs := s.reg.Jobs()
	stats := ServerStats{
		UptimeSec: time.Since(s.start).Seconds(),
		NumJobs:   len(jobs),
		Jobs:      make([]JobStats, len(jobs)),
	}
	// ?workers=1 opts into the per-worker reliability trajectory rings — an
	// O(workers × ring) payload per job, far too heavy for routine polls.
	withWorkers := r.URL.Query().Get("workers") == "1"
	for i, j := range jobs {
		stats.Jobs[i] = j.Stats()
		if withWorkers {
			stats.Jobs[i].WorkerTraj = j.WorkerTrajectories()
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

// ---------------------------------------------------------------------------
// Cluster-facing handlers
// ---------------------------------------------------------------------------

// Replication wire headers.
const (
	// epochHeader stamps a write (or reports, on reads) the ownership epoch.
	epochHeader = "X-CPA-Epoch"
	// journalOffHeader is the byte offset just past the served chunk — the
	// next request's ?from.
	journalOffHeader = "X-CPA-Journal-Off"
	// journalDurableHeader is the primary's durable journal length at serve
	// time (≥ the off header; the chunk cap can leave a remainder).
	journalDurableHeader = "X-CPA-Journal-Durable"
	// deposedHeader is "1" when the serving replica is fenced out of the
	// write path. Tailing a deposed primary stays legal — failover drains
	// the shipped suffix from exactly such a node — but the router must not
	// route client reads to it.
	deposedHeader = "X-CPA-Deposed"
	// journalBaseHeader reports the journal's truncation base offset. On a
	// 410 (the requested ?from predates the truncated prefix) it tells the
	// reader where the retained journal begins: fetch the base checkpoint
	// (/checkpoint?base=1), then re-request ?from=<base>&base=1.
	journalBaseHeader = "X-CPA-Journal-Base"
	// journalBaseLenHeader is set on ?base=1 responses: the byte length of
	// the base header line included at the start of the chunk. Header bytes
	// are file-local framing, not journal stream bytes — the reader excludes
	// them when advancing its global offset.
	journalBaseLenHeader = "X-CPA-Journal-Base-Len"
)

// maxShipChunk caps one journal-tail response. A follower bootstrapping
// from offset 0 against a long-lived journal pages through it instead of
// buffering the whole file server-side.
const maxShipChunk = 8 << 20

// maxTailWait caps the ?wait_ms long-poll parameter.
const maxTailWait = 30 * time.Second

// handleJournalTail serves raw journal bytes [from, durable) in global
// (never-truncated) coordinates — at most maxShipChunk per response, only
// ever complete flushed lines, because the durable offset by construction
// covers nothing else. With ?wait_ms=M a request at the current tail parks
// until new bytes land (or the wait elapses), so followers ship with one
// cheap long-poll loop instead of hammering. The response is bit-identical
// journal content: a follower that concatenates chunks in order holds
// byte-for-byte the stream the primary journaled.
//
// Truncation handshake: a ?from below the journal's base offset gets 410
// Gone with the base offset in X-CPA-Journal-Base — the prefix no longer
// exists on disk. The reader then fetches the base checkpoint
// (/checkpoint?base=1) and re-requests ?from=<base>&base=1, which serves the
// physical file from byte 0 so the base header line travels ahead of the
// retained suffix (its length reported in X-CPA-Journal-Base-Len, excluded
// from global offsets).
func (s *Server) handleJournalTail(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	if job.dir == "" {
		httpError(w, fmt.Errorf("%w: job %q is ephemeral (no journal to ship)", ErrInvalid, job.ID()))
		return
	}
	q := r.URL.Query()
	from := int64(0)
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			httpError(w, fmt.Errorf("%w: bad from %q", ErrInvalid, v))
			return
		}
		from = n
	}
	includeBase := q.Get("base") == "1"
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			httpError(w, fmt.Errorf("%w: bad wait_ms %q", ErrInvalid, v))
			return
		}
		if wait = time.Duration(ms) * time.Millisecond; wait > maxTailWait {
			wait = maxTailWait
		}
	}

	// Long-poll by polling the durable offset: appends are frequent under
	// load (the poll rarely spins) and absent under idle (the client asked
	// to park). A 5ms period bounds added shipping latency well below any
	// fit round. A base-handshake request never parks: the base header line
	// itself is servable even when the retained suffix is empty.
	durable, err := job.journalDurable()
	deadline := time.Now().Add(wait)
	for err == nil && durable <= from && !includeBase && wait > 0 && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
		durable, err = job.journalDurable()
	}
	if err != nil {
		httpError(w, err)
		return
	}
	if durable < from {
		httpError(w, fmt.Errorf("%w: from %d beyond durable offset %d", ErrInvalid, from, durable))
		return
	}

	// The section resolves [from, end) to the current file under the job
	// mutex and opens its own handle: a truncation renaming a compacted file
	// over the path mid-copy cannot disturb the pinned inode, and the bytes
	// below the durable offset are immutable (rollback and torn-tail
	// truncation only ever cut above it), so the read races nothing.
	sec, err := job.openJournalSection(from, maxShipChunk, includeBase)
	if err != nil {
		if errors.Is(err, ErrTruncated) {
			w.Header().Set(journalBaseHeader, strconv.FormatInt(job.journalBase().Bytes, 10))
		}
		httpError(w, err)
		return
	}
	defer sec.Close()
	globalEnd := from + sec.n
	if includeBase {
		globalEnd -= sec.hdrLen
		w.Header().Set(journalBaseLenHeader, strconv.FormatInt(sec.hdrLen, 10))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(journalOffHeader, strconv.FormatInt(globalEnd, 10))
	w.Header().Set(journalDurableHeader, strconv.FormatInt(sec.durable, 10))
	w.Header().Set(epochHeader, strconv.FormatInt(job.Epoch(), 10))
	if job.Deposed() {
		w.Header().Set(deposedHeader, "1")
	}
	w.WriteHeader(http.StatusOK)
	if sec.n > 0 {
		_, _ = io.Copy(w, io.NewSectionReader(sec.f, sec.start, sec.n))
	}
}

// handleCheckpoint serves the job's latest model checkpoint (the gob the
// fitter saves every SaveEvery rounds). 404 until the first save. The file
// lands by rename, so an open handle always reads one consistent
// checkpoint. With ?base=1 it serves the base checkpoint instead — the
// snapshot anchored at the journal's truncation base, which a reader must
// seed from before replaying a truncated journal's retained suffix.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	if job.dir == "" {
		httpError(w, fmt.Errorf("%w: job %q is ephemeral (no checkpoint)", ErrInvalid, job.ID()))
		return
	}
	name := modelFile
	if r.URL.Query().Get("base") == "1" {
		name = baseFile
	}
	f, err := os.Open(filepath.Join(job.dir, name))
	if os.IsNotExist(err) {
		httpError(w, fmt.Errorf("%w: job %q has no %s checkpoint yet", ErrNotFound, job.ID(), name))
		return
	}
	if err != nil {
		httpError(w, fmt.Errorf("serve: opening checkpoint: %w", err))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

// handleJobSpec returns the effective (defaults-filled) JobSpec — what a
// follower must persist as job.json so its recovered model is built with
// exactly the primary's configuration.
func (s *Server) handleJobSpec(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.Spec())
}

// epochRequest is the body of the fence/promote endpoints.
type epochRequest struct {
	Epoch int64 `json:"epoch"`
}

func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	s.handleEpochChange(w, r, (*Job).Fence)
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.handleEpochChange(w, r, (*Job).Promote)
}

func (s *Server) handleEpochChange(w http.ResponseWriter, r *http.Request, apply func(*Job, int64) error) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id")))
		return
	}
	var req epochRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxCreateBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, fmt.Errorf("%w: decoding body: %v", bodyErrKind(err), err))
		return
	}
	if req.Epoch < 0 {
		httpError(w, fmt.Errorf("%w: negative epoch %d", ErrInvalid, req.Epoch))
		return
	}
	if err := apply(job, req.Epoch); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Stats())
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// Request body caps. Ingestion is designed around chunked streams — the
// queue's 429 backpressure bounds memory per job, so one request must not
// be allowed to dwarf the queue itself. Create bodies are tiny by nature.
const (
	maxIngestBytes = 32 << 20
	maxCreateBytes = 1 << 20
	// maxPooledBodyBytes caps what an ingestScratch may retain between
	// requests; bigger body buffers are dropped for the GC instead of
	// pooled.
	maxPooledBodyBytes = 1 << 20
)

// ingestScratch recycles the NDJSON ingest buffers across requests: the raw
// body bytes and the decoded batch slice (entry values only — the queue
// copies them on admission; the label-set words they reference live in a
// per-request arena that is never pooled).
type ingestScratch struct {
	body  []byte
	batch []answers.Answer
}

var ingestScratchPool = sync.Pool{New: func() any {
	return &ingestScratch{body: make([]byte, 0, 64<<10)}
}}

// readBody reads r to EOF into buf, reusing its capacity — io.ReadAll with
// a recycled buffer.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// bodyErrKind classifies a request-body decode failure: an overrun of the
// MaxBytesReader cap maps to 413, everything else to 400.
func bodyErrKind(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return ErrTooLarge
	}
	return ErrInvalid
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrFenced):
		status = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrTruncated):
		status = http.StatusGone
	case errors.Is(err, ErrTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalid):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
