package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"cpa/internal/answers"
	"cpa/internal/labelset"
)

// Journal line operations.
const (
	opAnswer  = "ans"     // one ingested answer
	opFit     = "fit"     // the fitter consumed the next N pending answers
	opRestart = "restart" // the job was recovered and republished from cold
	opBase    = "base"    // truncation header: the dropped prefix's coordinates
)

// Fit-marker publish modes. Snapshot publication is part of the journaled
// computation: an interim round under backlog publishes incrementally
// (refreshing only the batch-dirty items), a caught-up round publishes the
// full finalize pipeline. Recording the mode per marker — and a restart
// line when recovery re-anchors a cold publisher — makes every published
// snapshot, not just quiesced ones, a deterministic function of the journal
// (the loadgen served-equals-replay invariant mirrors the modes on replay).
const (
	pubModeFull = "full"
	pubModeInc  = "inc"
)

// journalLine is the wire form of one journal record. Answer lines reuse
// the canonical answers.JSONAnswer codec, so a journal is also a valid
// answer stream for any JSONL consumer (modulo the envelope). Fit lines
// written before publish modes existed carry no "pub" field and replay as
// full publications, which is exactly what that code did.
//
// The byte encoding of this struct is frozen (DESIGN.md §14): it is
// produced by the hand codec in jcodec.go, byte-for-byte what
// encoding/json emitted since the first release, because replication
// offsets, truncation coordinates and torn-tail recovery all address raw
// journal bytes.
type journalLine struct {
	Op   string              `json:"op"`
	Ans  *answers.JSONAnswer `json:"a,omitempty"`
	N    int                 `json:"n,omitempty"`
	Mode string              `json:"pub,omitempty"`
	Base *JournalBase        `json:"base,omitempty"`
}

// fitLine builds a fit marker with its publish mode.
func fitLine(n int, full bool) journalLine {
	mode := pubModeInc
	if full {
		mode = pubModeFull
	}
	return journalLine{Op: opFit, N: n, Mode: mode}
}

// JournalBase describes the journal prefix a truncation dropped. It is
// persisted as the first line of a truncated journal (op "base") so the
// file stays self-describing: every coordinate a reader needs to place the
// retained suffix in the job's global (never-truncated) journal is in the
// header. Pre-truncation readers ignore the unknown op.
//
// Bytes/Recs are the global byte and record counts of the dropped prefix
// (base lines themselves never count: global coordinates are what the
// journal would measure had it never been truncated, which is what keeps
// /statsz and the replication ack barrier continuous across truncations).
// Ans and Fits count the dropped answer lines and fit markers; Covered is
// the total answers the dropped fit markers consumed. Every dropped record
// is covered by the base checkpoint (base.gob), so recovery and replay seed
// from that checkpoint and skip exactly the (Ans, Fits) still present in a
// longer checkpoint's coverage.
type JournalBase struct {
	Bytes   int64 `json:"b"`
	Recs    int64 `json:"r"`
	Ans     int64 `json:"a"`
	Fits    int64 `json:"f"`
	Covered int64 `json:"c"`
}

var errJournalFailed = errors.New("serve: journal in failed state")

// commitReq is one sequenced record group riding the commit pipeline: the
// encoded newline-terminated bytes, their record count, and the completion
// channel the release chain releases the waiter through. When job is
// non-nil the releaser calls job.commitDurable(batch, err) before the
// release — the hook that appends the batch to the fitter queue in exactly
// pipeline (= journal) order without holding the job mutex across the
// write. Requests recycle through commitReqPool; the done channel is
// buffered and sees exactly one send per reservation.
type commitReq struct {
	buf   []byte
	nrecs int64
	job   *Job
	batch []answers.Answer
	t0    time.Time
	done  chan error
}

var commitReqPool = sync.Pool{New: func() any {
	return &commitReq{done: make(chan error, 1)}
}}

func getCommitReq() *commitReq { return commitReqPool.Get().(*commitReq) }

func putCommitReq(r *commitReq) {
	r.buf = r.buf[:0]
	r.nrecs = 0
	r.job, r.batch = nil, nil
	commitReqPool.Put(r)
}

// journal is a job's append-only JSONL log with a group-commit pipeline.
// Appenders sequence encoded record groups into the pipeline under their
// job mutex (lock order: job mutex → journal mutex, never the reverse) and
// wait for durability outside both; a commit leader drains the pipeline in
// cohorts — one buffered write and one flush (plus fsync when SyncJournal)
// for every group queued at that moment — so N concurrent appends cost ~1
// syscall round instead of N. Every append is flushed to the OS before its
// waiter is released, so the log survives a process kill; SyncJournal
// additionally fsyncs for power-loss durability.
type journal struct {
	f    *os.File
	w    *bufio.Writer
	sync bool

	// mu guards everything below. idle signals pipeline drain (no leader
	// writing, nothing pending); truncate and Close wait on it for exclusive
	// use of f and w.
	mu   sync.Mutex
	idle sync.Cond
	// pending holds sequenced-but-unwritten record groups; writing is true
	// while a commit leader owns the file. spare recycles the cohort slice.
	pending []*commitReq
	spare   []*commitReq
	writing bool
	// relTail is the tail of the release ticket chain: the channel the most
	// recently committed cohort's releaser closes when its waiters are all
	// released. Each cohort captures the current tail as its turn and
	// installs a fresh tail, both under mu in commit order, so releases run
	// in journal order even across commit-leader handoffs. Releases happen
	// on a per-cohort goroutine, never on the leader: the commitDurable
	// hook takes the job mutex, which a drain waiter (truncate) may hold
	// while waiting for the leader to go idle — a leader that released
	// inline would deadlock against it.
	relTail chan struct{}

	// off is the durable length: the file size after the last fully
	// flushed cohort. A failed cohort is rolled back by truncating to off,
	// so a partially-flushed group (the bufio buffer spills mid-cohort
	// before a later write fails) can never desynchronise the journal
	// from the in-memory queue — orphaned answer lines would make fit
	// markers consume the wrong answers on replay.
	off int64
	// recs counts durable records (answer lines + fit markers + restart
	// re-anchors). Together with off it is the replication position the
	// cluster layer ships and compares: a follower whose shipped byte
	// offset equals the primary's off holds a bit-identical journal.
	recs   int64
	broken bool
	// base and hdr carry the truncation state: base is the dropped prefix's
	// global coordinates (zero for a never-truncated journal) and hdr the
	// byte length of the base header line at the start of the file (0 when
	// absent). off and recs stay file-local — globalOffsets maps them.
	base JournalBase
	hdr  int64
	// stats, when set, receives group-commit observability (cohort sizes,
	// per-append commit latency) from the leader.
	stats *ingestHist
}

// openJournal opens a journal for appending. recs is the number of durable
// records already in the file excluding a base header line (0 for a fresh
// journal; recovery counts them during replay), and base/hdr the truncation
// state recovery read from the file's first line. The file must already be
// truncated to its durable length — recovery truncates a torn tail before
// reopening for append, so a new record can never concatenate onto a
// half-written one.
func openJournal(path string, sync bool, recs int64, base JournalBase, hdr int64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	j := &journal{f: f, w: bufio.NewWriter(f), sync: sync, off: st.Size(), recs: recs, base: base, hdr: hdr}
	j.idle.L = &j.mu
	// Seed the release chain with an already-completed turn so the first
	// cohort's releaser starts immediately.
	j.relTail = make(chan struct{})
	close(j.relTail)
	return j, nil
}

// reserve sequences req into the commit pipeline. The caller must hold the
// job mutex (or otherwise serialise against all other appenders) so that
// pipeline order equals queue order, then release it and call await. On
// error the request was not sequenced and must not be awaited.
func (j *journal) reserve(req *commitReq) error {
	j.mu.Lock()
	if j.broken {
		j.mu.Unlock()
		return errJournalFailed
	}
	req.t0 = time.Now()
	j.pending = append(j.pending, req)
	j.mu.Unlock()
	return nil
}

// reserveLine encodes one control record (fit marker, restart re-anchor,
// truncation header test lines, …) into a pooled request and sequences it.
func (j *journal) reserveLine(line journalLine) (*commitReq, error) {
	req := getCommitReq()
	req.buf = append(appendJournalLine(req.buf[:0], line), '\n')
	req.nrecs = 1
	if err := j.reserve(req); err != nil {
		putCommitReq(req)
		return nil, err
	}
	return req, nil
}

// await blocks until req's record group is durable and returns the commit
// outcome. The first waiter to find the pipeline unled becomes the commit
// leader and writes cohorts until the pipeline drains — group commit
// without a dedicated writer goroutine: under contention one caller pays
// the syscall round for everyone queued behind it, while an uncontended
// caller writes its own batch immediately, exactly like the old
// one-flush-per-append path.
func (j *journal) await(req *commitReq) error {
	for {
		select {
		case err := <-req.done:
			putCommitReq(req)
			return err
		default:
		}
		j.mu.Lock()
		if j.writing || len(j.pending) == 0 {
			// A leader owns the pipeline (its releaser will complete us), or
			// our group was already committed (the buffered send is in flight
			// or landed): either way, park on the channel.
			j.mu.Unlock()
			err := <-req.done
			putCommitReq(req)
			return err
		}
		j.writing = true
		j.lead()
	}
}

// lead writes cohorts until the pipeline drains. Called with j.mu held and
// writing freshly set; returns with j.mu released. All durable-offset
// advancement happens here, after the cohort's flush — the single
// durability path of the journal.
//
// The leader only writes; it never releases. Each committed cohort is
// handed to a releaseCohort goroutine, sequenced by the ticket chain, so
// the write path can never block on the job mutex: commitDurable takes it,
// and a drain waiter (truncate, Close on the job side) holds it while
// waiting for the leader to go idle — a leader that ran release callbacks
// itself would deadlock the job the moment a truncation raced a busy
// pipeline. Decoupling also keeps releases in journal order across leader
// handoffs: ticket capture happens under j.mu in commit order, while the
// old step-down-then-release dance let a successor leader release a later
// cohort first, reordering the fitter queue against the journal.
func (j *journal) lead() {
	for {
		cohort := j.pending
		if len(cohort) == 0 {
			j.writing = false
			j.idle.Broadcast()
			j.mu.Unlock()
			return
		}
		if j.spare != nil {
			j.pending = j.spare[:0]
			j.spare = nil
		} else {
			j.pending = nil
		}
		broken := j.broken
		j.mu.Unlock()

		var nbytes, nrecs int64
		var err error
		if broken {
			err = errJournalFailed
		}
		for _, r := range cohort {
			if err != nil {
				break
			}
			if _, werr := j.w.Write(r.buf); werr != nil {
				err = werr
				break
			}
			nbytes += int64(len(r.buf))
			nrecs += r.nrecs
		}
		if err == nil {
			err = j.flush()
		}

		j.mu.Lock()
		if err == nil {
			j.off += nbytes
			j.recs += nrecs
		} else if !broken {
			err = j.rollbackLocked(err)
		}
		st := j.stats
		// Take the cohort's release turn while still holding j.mu: tickets
		// are chained in commit order, and a successor leader can only claim
		// the pipeline after this critical section, so its cohorts' turns
		// come later in the chain.
		turn := j.relTail
		next := make(chan struct{})
		j.relTail = next
		j.mu.Unlock()

		// Latencies are measured at durability, before the cohort is handed
		// off — the releaser owns the requests from the go statement on.
		if st != nil && err == nil {
			st.observe(cohort, nrecs)
		}
		go j.releaseCohort(cohort, err, turn, next)

		j.mu.Lock()
	}
}

// releaseCohort releases one committed cohort's waiters in reservation
// order: first the commitDurable hook (which may block on the job mutex —
// this is why release runs off the write path), then the done send. turn
// gates the start on the previous cohort's release completing and next is
// closed when this one is done, so the fitter queue receives batches in
// exactly journal order across the whole journal lifetime.
func (j *journal) releaseCohort(cohort []*commitReq, err error, turn, next chan struct{}) {
	<-turn
	for _, r := range cohort {
		if r.job != nil {
			job, batch := r.job, r.batch
			r.job, r.batch = nil, nil
			job.commitDurable(batch, err)
		}
		// After this send the waiter may recycle r: no further access.
		r.done <- err
	}
	close(next)
	clear(cohort)
	j.mu.Lock()
	if j.spare == nil {
		j.spare = cohort[:0]
	}
	j.mu.Unlock()
}

// rollbackLocked discards a failed cohort: drops whatever is still buffered
// and truncates the file back to the last durable length. If the truncate
// itself fails the journal is marked broken and every later append errors,
// failing the job loudly rather than recovering from a corrupt log.
func (j *journal) rollbackLocked(cause error) error {
	j.w.Reset(j.f)
	if err := j.f.Truncate(j.off); err != nil {
		j.broken = true
		return fmt.Errorf("serve: journal append failed (%v), rollback failed, journal disabled: %w", cause, err)
	}
	return cause
}

// drainLocked blocks until the commit pipeline is empty and no leader owns
// the file, giving the caller exclusive use of f and w. The caller holds
// j.mu and must have stopped new reservations (truncate runs under the job
// mutex; Close runs after ingestion is fenced off). Releases of already
// committed cohorts may still be in flight when drain returns — they only
// touch the job queue and waiter channels, never f or w, which is what
// lets a truncate holding the job mutex drain safely while a releaser
// blocks on that same mutex.
func (j *journal) drainLocked() {
	for j.writing || len(j.pending) > 0 {
		j.idle.Wait()
	}
}

// offsets reports the durable file-local (byte, record) position —
// everything at or below it is fully flushed, complete lines. The byte
// count includes the base header line when present.
func (j *journal) offsets() (bytes, recs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.off, j.recs
}

// globalOffsets reports the durable position in global coordinates: the
// (byte, record) offsets the journal would have had it never been
// truncated. These are the replication and /statsz coordinates — they are
// continuous and monotone across truncations, so a follower's shipped
// offset and the ingest-ack durability barrier never move backwards.
func (j *journal) globalOffsets() (bytes, recs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base.Bytes + (j.off - j.hdr), j.base.Recs + j.recs
}

// view returns a consistent snapshot of the journal's coordinates: the
// durable global offset, the truncation base, and the base header length.
// fileForGlobal-style mapping is then base-relative arithmetic on the
// snapshot (hdr + (global - base.Bytes)).
func (j *journal) view() (durable int64, base JournalBase, hdr int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base.Bytes + (j.off - j.hdr), j.base, j.hdr
}

// fileLen returns the durable file-local byte length past the base header —
// what the truncation threshold compares against.
func (j *journal) fileLen() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.off - j.hdr
}

// truncate drops the journal prefix covered by the current checkpoint
// behind a fresh base header: the longest prefix containing at most
// coveredAns answer lines and coveredFits fit markers, stopping at the
// first answer line or fit marker beyond that coverage (restart re-anchors
// inside the covered prefix are dropped too — the base checkpoint was
// written at a full publication, which supersedes them as the replay
// anchor). The header records exactly what was dropped; the checkpoint may
// cover more, and every reader skips the difference (DESIGN.md §12).
//
// truncate only counts records to choose the cut. When the cut reaches
// minDrop it calls anchor — which must make the covering checkpoint durable
// as base.gob — and only then commits the rewrite: the retained suffix and
// new base header are written to a temp file, fsynced, and renamed over the
// journal in one atomic commit. A kill before the rename leaves the old
// journal and a base.gob at or past its header, which every reader
// tolerates. Below minDrop nothing is touched, base.gob included.
// Concurrent tail readers holding the old inode keep reading it unchanged.
//
// Returns the number of bytes dropped (0 if the droppable prefix was
// shorter than minDrop). The caller holds the job mutex — no new append can
// be sequenced — and truncate drains the commit pipeline before touching
// the file, so no in-flight cohort can interleave with the swap.
func (j *journal) truncate(path string, coveredAns, coveredFits, minDrop int64, anchor func() error) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.drainLocked()
	if j.broken {
		return 0, errJournalFailed
	}
	// Every committed cohort already flushed, and the drained pipeline left
	// nothing buffered: the file holds exactly off durable bytes.
	limA := coveredAns - j.base.Ans
	limF := coveredFits - j.base.Fits
	if limA < 0 || limF < 0 {
		return 0, fmt.Errorf("serve: truncate: checkpoint (%d ans, %d fits) behind journal base (%d, %d)",
			coveredAns, coveredFits, j.base.Ans, j.base.Fits)
	}

	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("serve: truncate: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(j.hdr, io.SeekStart); err != nil {
		return 0, fmt.Errorf("serve: truncate: %w", err)
	}
	rd := bufio.NewReaderSize(io.LimitReader(f, j.off-j.hdr), 64*1024)
	var cut, dropRecs, dropAns, dropFits, dropCovered int64
scan:
	for {
		raw, err := rd.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("serve: truncate: scanning journal: %w", err)
		}
		line, err := decodeJournalLine(raw[:len(raw)-1], nil)
		if err != nil {
			return 0, fmt.Errorf("serve: truncate: corrupt durable line: %w", err)
		}
		switch line.Op {
		case opAnswer:
			if dropAns == limA {
				break scan
			}
			dropAns++
		case opFit:
			if dropFits == limF {
				break scan
			}
			dropFits++
			dropCovered += int64(line.N)
		}
		cut += int64(len(raw))
		dropRecs++
	}
	if cut < minDrop {
		return 0, nil
	}
	if err := anchor(); err != nil {
		return 0, fmt.Errorf("serve: anchoring base checkpoint: %w", err)
	}

	newBase := JournalBase{
		Bytes:   j.base.Bytes + cut,
		Recs:    j.base.Recs + dropRecs,
		Ans:     j.base.Ans + dropAns,
		Fits:    j.base.Fits + dropFits,
		Covered: j.base.Covered + dropCovered,
	}
	hdrRaw := append(appendJournalLine(nil, journalLine{Op: opBase, Base: &newBase}), '\n')

	tmpPath := path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("serve: truncate: %w", err)
	}
	keep := j.off - j.hdr - cut
	_, err = tmp.Write(hdrRaw)
	if err == nil {
		_, err = io.Copy(tmp, io.NewSectionReader(f, j.hdr+cut, keep))
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("serve: truncate: writing compacted journal: %w", err)
	}
	if err := RenameDurable(tmpPath, path, j.sync); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("serve: truncate: %w", err)
	}

	newF, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		// The rename committed but the append handle is gone: the journal
		// on disk is valid, this process just cannot write it any more.
		j.broken = true
		return 0, fmt.Errorf("serve: truncate: reopening journal: %w", err)
	}
	j.f.Close()
	j.f = newF
	j.w.Reset(newF)
	j.base = newBase
	j.hdr = int64(len(hdrRaw))
	j.off = j.hdr + keep
	j.recs -= dropRecs
	return cut, nil
}

// appendRestart journals a recovery re-anchor: the job was reopened, its
// publisher restarted cold, and a full snapshot republished at the current
// round. Replay resets its mirrored publisher at this point. Recovery calls
// this single-threaded, before the fitter starts, so sequencing needs no
// job mutex.
func (j *journal) appendRestart() error {
	req, err := j.reserveLine(journalLine{Op: opRestart})
	if err != nil {
		return err
	}
	return j.await(req)
}

func (j *journal) flush() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	if j.sync {
		return j.f.Sync()
	}
	return nil
}

// Close drains the commit pipeline and closes the journal file. The
// per-cohort flush in the commit leader is the journal's only durability
// path — a drained pipeline has nothing buffered — so Close does not flush
// again. (It used to: flush() on the last append and then a bare w.Flush()
// here, a second flush through a path that skipped the sync-mode fsync.)
func (j *journal) Close() error {
	j.mu.Lock()
	j.drainLocked()
	// Any append sequenced after Close fails loudly instead of writing to a
	// closed descriptor.
	j.broken = true
	j.mu.Unlock()
	return j.f.Close()
}

// closeCrash simulates a hard kill for recovery tests: mark the journal
// failed and close the descriptor without draining — an in-flight cohort
// fails its waiters exactly like a real torn write would, and everything
// already flushed stays durable.
func (j *journal) closeCrash() {
	j.mu.Lock()
	j.broken = true
	j.mu.Unlock()
	j.f.Close()
}

// JournalEntry is one decoded record of a job's ingestion journal, exposed
// for external replay (the loadgen invariant checker rebuilds a job's
// consensus from its journal and compares it with the served snapshot).
// Exactly one of Answer, FitN and Restart is meaningful per entry.
type JournalEntry struct {
	// Answer is non-nil for an ingested-answer record.
	Answer *answers.Answer
	// FitN is > 0 for a fit marker: the fitter consumed the next FitN
	// pending answers as one mini-batch.
	FitN int
	// FitFull reports the publish mode of a fit marker: true when the
	// round's snapshot ran the full finalize pipeline (caught-up round, and
	// every marker written before modes were recorded), false when it
	// refreshed only the batch-dirty items (backlogged round).
	FitFull bool
	// Restart marks a recovery re-anchor: the job's publisher restarted
	// cold and republished a full snapshot at the round reached so far.
	Restart bool
	// Base is non-nil for a truncation header (always the first record of a
	// truncated journal): the stream resumes mid-job, and the consumer must
	// seed from the base checkpoint and skip the records a newer checkpoint
	// already covers.
	Base *JournalBase
}

// DecodeJournalLine decodes one complete journal line (newline stripped or
// not) into its entry form. It is the incremental counterpart of
// ReadJournal, used by the cluster layer to apply a shipped journal stream
// record by record. Unknown ops decode to a zero JournalEntry (forward
// compatibility — replay ignores them too). Canonical lines take the
// allocation-lean fast path; everything else decodes through encoding/json
// with identical acceptance and errors.
func DecodeJournalLine(raw []byte) (JournalEntry, error) {
	line, err := parseJournalLine(raw, nil)
	if err != nil {
		return JournalEntry{}, fmt.Errorf("serve: decoding journal line: %w", err)
	}
	return line.entry(nil), nil
}

// parseJournalLine decodes one journal line and checks that its op carries
// the payload the grammar requires. Every journal reader frames lines
// through it, so a malformed record — and with it the torn-tail rule of
// replayJournal — means the same to recovery and to a follower.
func parseJournalLine(raw []byte, arena *labelset.Arena) (journalLine, error) {
	line, err := decodeJournalLine(raw, arena)
	if err != nil {
		return journalLine{}, err
	}
	switch {
	case line.Op == opAnswer && line.Ans == nil:
		return journalLine{}, fmt.Errorf("%w: answer line without payload", ErrInvalid)
	case line.Op == opFit && line.N <= 0:
		return journalLine{}, fmt.Errorf("%w: fit marker n=%d", ErrInvalid, line.N)
	case line.Op == opBase && line.Base == nil:
		return journalLine{}, fmt.Errorf("%w: base line without payload", ErrInvalid)
	}
	return line, nil
}

// entry converts a parsed wire-form line to its exported JournalEntry. An
// answer is stored in *slot, which the entry then points at; a nil slot
// allocates a fresh one, so the entry may be retained.
func (line journalLine) entry(slot *answers.Answer) JournalEntry {
	switch line.Op {
	case opAnswer:
		if slot == nil {
			slot = new(answers.Answer)
		}
		*slot = line.Ans.Answer()
		return JournalEntry{Answer: slot}
	case opFit:
		return JournalEntry{FitN: line.N, FitFull: line.Mode != pubModeInc}
	case opRestart:
		return JournalEntry{Restart: true}
	case opBase:
		return JournalEntry{Base: line.Base}
	}
	// Unknown ops are replay-inert. Older daemons journaled
	// {"op":"tune","par":P,"bs":B} lines between fit rounds; they decode
	// through encoding/json to a bare op and replay as nothing, which is
	// what they always meant: fit markers record every batch boundary, and
	// Parallelism never changes a posterior bit.
	return JournalEntry{}
}

// ReadJournal streams a job journal through fn in recorded order, with the
// same tolerance rules as recovery: a torn final line is skipped, malformed
// lines elsewhere are an error. A missing file yields no entries. A
// truncated journal's base header is delivered as its first entry;
// replay-inert records are not delivered.
func ReadJournal(path string, fn func(JournalEntry) error) error {
	_, _, err := replayJournal(path, func(line journalLine, _ int64) error {
		if e := line.entry(nil); e != (JournalEntry{}) {
			return fn(e)
		}
		return nil
	})
	return err
}

// replayJournal streams a journal file through fn in order (each line with
// its on-disk byte length, newline included) and returns the durable
// (byte, record) position: the offset just past the last complete,
// well-formed line. A torn final line — unterminated, or malformed with
// nothing after it — is tolerated, skipped, and excluded from the durable
// offset (a crash can tear a record mid-write; it was never acked, and a
// shipped stream can end mid-record when the primary dies mid-send). A
// malformed line in the middle of the file is an error. A missing file
// yields no entries at offset 0. Label sets decoded on the fast path are
// bump-allocated from one arena for the whole replay.
func replayJournal(path string, fn func(journalLine, int64) error) (int64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("serve: opening journal: %w", err)
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, 64*1024)
	var arena labelset.Arena
	var off, recs int64
	var pendingErr error
	lineNo := 0
	for {
		raw, err := rd.ReadBytes('\n')
		if err == io.EOF {
			// Any unterminated trailing bytes are a torn tail: the final
			// newline never reached the disk (or the shipped stream), so the
			// record was never durable — even if the fragment happens to
			// parse as JSON, recovery must not apply it, or a deposed
			// primary's replay could run one round ahead of every ack.
			break
		}
		if err != nil {
			return off, recs, fmt.Errorf("serve: reading journal: %w", err)
		}
		lineNo++
		if pendingErr != nil {
			// The malformed line was not the last one: real corruption.
			return off, recs, pendingErr
		}
		trimmed := raw[:len(raw)-1]
		if len(trimmed) == 0 {
			off += int64(len(raw))
			continue
		}
		line, err := parseJournalLine(trimmed, &arena)
		if err != nil {
			pendingErr = fmt.Errorf("serve: journal line %d: %w", lineNo, err)
			continue
		}
		if err := fn(line, int64(len(raw))); err != nil {
			return off, recs, err
		}
		off += int64(len(raw))
		recs++
	}
	return off, recs, nil
}
