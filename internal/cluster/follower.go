package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cpa/internal/serve"
)

// tailWaitMS is the long-poll window a follower asks the primary to park
// for when it is at the tail; tailRetryBackoff paces retries when the
// source is unreachable (it may be dead — the router decides).
const (
	tailWaitMS       = 500
	tailRetryBackoff = 50 * time.Millisecond
)

// follower replicates one job by tailing its primary's journal endpoint:
// every shipped chunk is appended verbatim to a local journal file (so the
// local file is byte-for-byte a suffix of the primary's stream — plus
// possibly a torn tail when the stream died mid-record, which adoption
// truncates) and every complete line is applied through a serve.Applier,
// giving the follower a live, bit-identical snapshot chain to serve reads
// from. The staged directory (spec + journal + epoch, checkpoints as
// needed) is what promotion renames into the registry's jobs tree for
// AdoptJob.
//
// Offsets are tracked in the journal's global (never-truncated)
// coordinates: the local file may begin with a base header line (framing,
// not stream content) when the source's journal prefix was compacted away,
// and base/hdrLen translate between the local file and the global stream.
type follower struct {
	jobID  string
	source string // primary node base URL
	dir    string // staging dir (node's replicas tree)
	client *http.Client
	spec   serve.JobSpec
	sync   bool // the node's SyncJournal: staging renames are made durable

	mu          sync.Mutex
	ap          *serve.Applier
	file        *os.File
	base        serve.JournalBase // global position where the local file's stream content starts
	hdrLen      int64             // bytes of base-header framing at the local file's start (0 when none)
	shipped     int64             // local file bytes received and written
	applied     int64             // local file bytes covered by complete, applied lines
	appliedRecs int64             // stream records applied locally (excludes the base header)
	buf         []byte            // trailing partial line (shipped − applied bytes)
	wantBase    bool              // next tail request must carry ?base=1 (post-resync)
	srcDurable  int64             // primary's durable global length at last contact
	srcEpoch    int64
	srcDeposed  bool
	lastErr     string
	applyBroken bool // a record failed to apply; replication is wedged

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// startFollower resumes or stages the replica directory and starts the tail
// loop. Prior staging is resumed when it is still valid for the (possibly
// re-pointed) source — the applier is rebuilt by replaying the staged
// journal and shipping continues from its own durable offset instead of
// byte 0, so a failover or handoff does not re-ship a long journal from
// scratch. Resume is safe across a re-point: promotion only ever installs
// the most-advanced replica, so every other replica's staged bytes are a
// prefix of the new primary's stream. Staging that cannot be resumed (no
// prior state, a changed spec, a corrupt file) is discarded and rebuilt
// from scratch.
func startFollower(jobID, source, dir string, client *http.Client, sync bool) (*follower, error) {
	var spec serve.JobSpec
	if err := getJSON(client, source+"/v1/jobs/"+jobID+"/spec", &spec); err != nil {
		return nil, fmt.Errorf("cluster: fetching spec for %q from %s: %w", jobID, source, err)
	}
	fo := &follower{
		jobID: jobID, source: source, dir: dir, client: client, spec: spec, sync: sync,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if err := fo.resumeStaged(); err != nil {
		if err := fo.stageFresh(); err != nil {
			return nil, err
		}
	}
	go fo.loop()
	return fo, nil
}

// resumeStaged rebuilds the follower from a prior staging of the same job:
// verify the staged spec still matches the source's, replay the staged
// journal's complete-line prefix through a fresh applier (seeded from the
// staged base checkpoint when there is one), drop any torn tail, and
// continue appending where the staging left off.
func (fo *follower) resumeStaged() error {
	raw, err := os.ReadFile(filepath.Join(fo.dir, serve.SpecFileName))
	if err != nil {
		return err
	}
	var staged serve.JobSpec
	if err := json.Unmarshal(raw, &staged); err != nil {
		return fmt.Errorf("cluster: staged spec for %q: %w", fo.jobID, err)
	}
	want, _ := json.Marshal(fo.spec)
	got, _ := json.Marshal(staged)
	if !bytes.Equal(want, got) {
		return fmt.Errorf("cluster: staged spec for %q differs from source's", fo.jobID)
	}
	journalPath := filepath.Join(fo.dir, serve.JournalFileName)
	// Seed from the staged base checkpoint when a resync left one. The
	// replay engine places it against the staged journal's base header, or
	// skips its coverage when the header never arrived; a header with no
	// checkpoint at or past it fails and the staging is rebuilt.
	var seed io.Reader
	if bf, err := os.Open(filepath.Join(fo.dir, serve.BaseCheckpointFileName)); err == nil {
		defer bf.Close()
		seed = bf
	} else if !os.IsNotExist(err) {
		return err
	}
	if fo.ap, err = serve.NewApplierFrom(fo.spec, seed); err != nil {
		return err
	}

	jf, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(jf, 1<<20)
	chunk := make([]byte, 1<<20)
	for {
		n, rerr := r.Read(chunk)
		if n > 0 {
			fo.shipped += int64(n)
			fo.buf = append(fo.buf, chunk[:n]...)
			if aerr := fo.applyBuf(); aerr != nil {
				jf.Close()
				return aerr
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			jf.Close()
			return rerr
		}
	}
	jf.Close()

	// Drop the torn tail (a crash mid-ship leaves a partial last line) and
	// reopen for appending at the applied boundary.
	fo.buf = nil
	fo.shipped = fo.applied
	f, err := os.OpenFile(journalPath, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(fo.applied); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(fo.applied, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	fo.file = f
	// Re-stamp the staging deposed: a crash mid-adoption must never bring
	// this replica up as a writable primary the cluster never elected.
	if err := serve.WriteEpochState(fo.dir, 0, true, fo.sync); err != nil {
		fo.file.Close()
		return err
	}
	return nil
}

// stageFresh discards any prior staging and builds the replica directory
// from scratch: source spec, fenced epoch record, empty journal, cold
// applier. Also the live reset path when a re-pointed source turns out to
// be behind the staged offset (nothing beyond its durable length can be
// trusted to match).
func (fo *follower) stageFresh() error {
	if err := os.RemoveAll(fo.dir); err != nil {
		return fmt.Errorf("cluster: clearing replica dir: %w", err)
	}
	if err := os.MkdirAll(fo.dir, 0o755); err != nil {
		return fmt.Errorf("cluster: creating replica dir: %w", err)
	}
	rawSpec, err := json.MarshalIndent(fo.spec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(fo.dir, serve.SpecFileName), rawSpec, 0o644); err != nil {
		return fmt.Errorf("cluster: staging spec: %w", err)
	}
	// Stage the directory deposed: if the node crashes with the staging
	// half-adopted, recovery must not bring the replica up as a writable
	// primary the cluster never elected.
	if err := serve.WriteEpochState(fo.dir, 0, true, fo.sync); err != nil {
		return fmt.Errorf("cluster: staging epoch: %w", err)
	}
	ap, err := serve.NewApplier(fo.spec)
	if err != nil {
		return fmt.Errorf("cluster: building applier for %q: %w", fo.jobID, err)
	}
	f, err := os.OpenFile(filepath.Join(fo.dir, serve.JournalFileName),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: staging journal: %w", err)
	}
	fo.mu.Lock()
	old := fo.file
	fo.ap, fo.file = ap, f
	fo.base, fo.hdrLen = serve.JournalBase{}, 0
	fo.shipped, fo.applied, fo.appliedRecs = 0, 0, 0
	fo.buf, fo.wantBase, fo.applyBroken = nil, false, false
	fo.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

func (fo *follower) loop() {
	defer close(fo.done)
	for {
		select {
		case <-fo.stop:
			return
		default:
		}
		if err := fo.shipOnce(tailWaitMS); err != nil {
			fo.mu.Lock()
			fo.lastErr = err.Error()
			broken := fo.applyBroken
			fo.mu.Unlock()
			if broken {
				return
			}
			select {
			case <-fo.stop:
				return
			case <-time.After(tailRetryBackoff):
			}
		}
	}
}

// globalShipped returns the follower's shipped offset in global journal
// coordinates. Callers must hold fo.mu.
func (fo *follower) globalShipped() int64 { return fo.base.Bytes + fo.shipped - fo.hdrLen }

// shipOnce performs one tail request from the current shipped offset,
// persists whatever arrives, and applies the complete lines. A 410 response
// (the requested offset predates the source's compacted journal) triggers
// the resync handshake; a from-beyond-durable rejection (the staged offset
// overruns a re-pointed, less advanced source) restages from scratch.
func (fo *follower) shipOnce(waitMS int) error {
	fo.mu.Lock()
	from := fo.globalShipped()
	wantBase := fo.wantBase
	fo.mu.Unlock()
	url := fmt.Sprintf("%s/v1/jobs/%s/journal?from=%d&wait_ms=%d", fo.source, fo.jobID, from, waitMS)
	if wantBase {
		url += "&base=1"
	}
	resp, err := fo.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		baseBytes, perr := strconv.ParseInt(resp.Header.Get("X-CPA-Journal-Base"), 10, 64)
		apiErr := readAPIError(resp)
		if perr != nil || baseBytes <= from {
			return apiErr
		}
		if rerr := fo.resync(baseBytes); rerr != nil {
			return fmt.Errorf("cluster: resyncing %q past truncated journal: %w", fo.jobID, rerr)
		}
		return nil
	case http.StatusBadRequest:
		apiErr := readAPIError(resp)
		if from > 0 {
			if rerr := fo.stageFresh(); rerr != nil {
				return rerr
			}
		}
		return apiErr
	default:
		return readAPIError(resp)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, (8<<20)+(1<<20)))
	if err != nil {
		return err
	}
	durable, _ := strconv.ParseInt(resp.Header.Get("X-CPA-Journal-Durable"), 10, 64)
	epoch, _ := strconv.ParseInt(resp.Header.Get("X-CPA-Epoch"), 10, 64)
	deposed := resp.Header.Get("X-CPA-Deposed") == "1"

	if len(body) > 0 {
		// Persist first, apply second: a crash between the two replays the
		// persisted lines on resume or adoption, so apply-after-persist can
		// never lose a record the local file claims to have.
		if _, err := fo.file.Write(body); err != nil {
			return fmt.Errorf("cluster: writing shipped chunk: %w", err)
		}
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	fo.srcDurable, fo.srcEpoch, fo.srcDeposed = durable, epoch, deposed
	if len(body) == 0 {
		fo.lastErr = ""
		return nil
	}
	fo.shipped += int64(len(body))
	fo.buf = append(fo.buf, body...)
	if err := fo.applyBuf(); err != nil {
		return err
	}
	if wantBase && fo.hdrLen > 0 {
		fo.wantBase = false
	}
	fo.lastErr = ""
	return nil
}

// applyBuf drains complete lines from the reassembly buffer through the
// applier, advancing the applied offsets. The base header line (the replay
// engine accepts it only as the first record) records the file's global
// framing instead of counting as a stream record. Callers must hold fo.mu
// (or own the follower exclusively, as resume does before the loop starts).
func (fo *follower) applyBuf() error {
	for {
		idx := bytes.IndexByte(fo.buf, '\n')
		if idx < 0 {
			return nil
		}
		line := fo.buf[:idx]
		if len(line) > 0 {
			e, err := serve.DecodeJournalLine(line)
			if err != nil && bytes.IndexByte(fo.buf[idx+1:], '\n') < 0 {
				// Recovery treats a malformed final line as a torn tail and
				// only a malformed line with another after it as corruption;
				// hold it back under the same rule, so the replica and a
				// recovery of its staged journal agree on every prefix.
				return nil
			}
			if err == nil {
				err = fo.ap.Apply(e)
			}
			if err != nil {
				// A shipped record that fails to decode or apply wedges the
				// replica permanently: skipping it would silently fork the
				// follower's state from the primary's.
				fo.applyBroken = true
				return fmt.Errorf("cluster: applying shipped record for %q: %w", fo.jobID, err)
			}
			if e.Base != nil {
				fo.hdrLen = int64(idx + 1)
				fo.base = *e.Base
			} else {
				fo.appliedRecs++
			}
		}
		fo.applied += int64(idx + 1)
		fo.buf = fo.buf[idx+1:]
	}
}

// resync re-anchors the follower past a truncated source journal: fetch the
// base checkpoint (the primary's own model at the truncation boundary),
// rebuild the applier from it, reset the local journal, and arrange for the
// next tail request to fetch from the base with the header line included.
// Replaying the retained suffix on top of the checkpoint yields exactly the
// state a from-zero replay of the untruncated journal would have.
func (fo *follower) resync(baseBytes int64) error {
	resp, err := fo.client.Get(fo.source + "/v1/jobs/" + fo.jobID + "/checkpoint?base=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readAPIError(resp)
	}
	basePath := filepath.Join(fo.dir, serve.BaseCheckpointFileName)
	tmp := basePath + ".tmp"
	bf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := bf.ReadFrom(resp.Body); err != nil {
		bf.Close()
		return fmt.Errorf("cluster: staging base checkpoint: %w", err)
	}
	if err := bf.Close(); err != nil {
		return err
	}
	if err := serve.RenameDurable(tmp, basePath, fo.sync); err != nil {
		return err
	}
	sf, err := os.Open(basePath)
	if err != nil {
		return err
	}
	ap, err := serve.NewApplierFrom(fo.spec, sf)
	sf.Close()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(fo.dir, serve.JournalFileName),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fo.mu.Lock()
	old := fo.file
	fo.ap, fo.file = ap, f
	// Recs/Ans/Fits stay zero until the base header line arrives and fills
	// them in; Bytes anchors the very next request's ?from.
	fo.base, fo.hdrLen = serve.JournalBase{Bytes: baseBytes}, 0
	fo.shipped, fo.applied, fo.appliedRecs = 0, 0, 0
	fo.buf, fo.wantBase = nil, true
	fo.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// shutdown stops the tail loop and closes the staged journal file.
func (fo *follower) shutdown() {
	fo.stopOnce.Do(func() { close(fo.stop) })
	<-fo.done
	fo.file.Close()
}

// drainTo waits until the applied offset (global coordinates) reaches min —
// tailing continues in the background loop — or the timeout expires.
// Promotion after a primary death passes the follower's own offset (nothing
// more can arrive); planned handoff passes the fenced primary's final
// durable length.
func (fo *follower) drainTo(min int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		fo.mu.Lock()
		applied := fo.base.Bytes + fo.applied - fo.hdrLen
		broken, lastErr := fo.applyBroken, fo.lastErr
		fo.mu.Unlock()
		if broken {
			return fmt.Errorf("cluster: replica %q wedged: %s", fo.jobID, lastErr)
		}
		if applied >= min {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("cluster: replica %q drained to %d of %d before timeout (last error: %s)",
				fo.jobID, applied, min, lastErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ReplicaStats is the JSON shape of one follower's replication state (the
// node /statsz and /v1/replicate/{id} responses). Byte and record offsets
// are in the journal's global (never-truncated) coordinates, so they stay
// continuous across source-side compactions; BaseBytes is where the
// follower's locally staged suffix begins (0 when it holds the stream from
// the start). LagBytes is the journal offset delta to the primary's durable
// length as of last contact.
type ReplicaStats struct {
	ID             string `json:"id"`
	Source         string `json:"source"`
	ShippedBytes   int64  `json:"shipped_bytes"`
	AppliedBytes   int64  `json:"applied_bytes"`
	AppliedRecords int64  `json:"applied_records"`
	BaseBytes      int64  `json:"base_bytes,omitempty"`
	SourceDurable  int64  `json:"source_durable_bytes"`
	LagBytes       int64  `json:"lag_bytes"`
	SourceEpoch    int64  `json:"source_epoch"`
	SourceDeposed  bool   `json:"source_deposed,omitempty"`
	SnapshotRound  int    `json:"snapshot_round"`
	// Error is the last tail/apply error. A source-fetch error is
	// transient (and expected while the primary is down); Wedged means a
	// shipped record failed to apply and the replica must not be promoted.
	Error  string `json:"error,omitempty"`
	Wedged bool   `json:"wedged,omitempty"`
}

func (fo *follower) stats() ReplicaStats {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	applied := fo.base.Bytes + fo.applied - fo.hdrLen
	lag := fo.srcDurable - applied
	if lag < 0 {
		lag = 0
	}
	return ReplicaStats{
		ID:             fo.jobID,
		Source:         fo.source,
		ShippedBytes:   fo.globalShipped(),
		AppliedBytes:   applied,
		AppliedRecords: fo.base.Recs + fo.appliedRecs,
		BaseBytes:      fo.base.Bytes,
		SourceDurable:  fo.srcDurable,
		LagBytes:       lag,
		SourceEpoch:    fo.srcEpoch,
		SourceDeposed:  fo.srcDeposed,
		SnapshotRound:  fo.ap.Snapshot().Round,
		Error:          fo.lastErr,
		Wedged:         fo.applyBroken,
	}
}
