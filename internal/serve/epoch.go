package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Ownership epochs (DESIGN.md §11). In a clustered deployment exactly one
// replica owns a job's write path at any time; ownership is versioned by a
// monotonically increasing epoch. The router stamps every proxied write
// with the epoch it believes is current, and a job rejects writes whose
// epoch does not match — so a deposed primary (fenced at a higher epoch
// after a failover or handoff) can never ack an answer the cluster no
// longer considers durable, and a stale router can never write through a
// promoted replica's back. The epoch state is persisted (atomically, next
// to the spec) so a deposed primary that crashes and recovers stays
// deposed.
//
// Single-node deployments never touch any of this: jobs start as primary
// at epoch 0, unstamped writes skip the equality check, and no epoch file
// is written until the first Fence/Promote.

// ErrFenced rejects a write from a deposed primary or a stale epoch. HTTP
// handlers map it to 409 Conflict.
var ErrFenced = fmt.Errorf("serve: fenced")

const epochFile = "epoch.json"

// epochState is the persisted ownership record.
type epochState struct {
	Epoch int64 `json:"epoch"`
	// Deposed marks a replica that lost ownership: every write is rejected
	// regardless of stamp until a Promote re-establishes it.
	Deposed bool `json:"deposed"`
}

// Epoch returns the job's current ownership epoch.
func (j *Job) Epoch() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch.Epoch
}

// Deposed reports whether the job has been fenced out of the write path.
func (j *Job) Deposed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch.Deposed
}

// Fence deposes the job at the given epoch: ingestion is rejected with
// ErrFenced until a Promote. The epoch must not regress. Fencing an
// already-deposed job at a higher epoch is allowed (repeated failovers).
func (j *Job) Fence(epoch int64) error {
	return j.setEpoch(epochState{Epoch: epoch, Deposed: true})
}

// Promote (re-)establishes the job as the primary at the given epoch. The
// epoch must not regress; promoting at the current epoch is idempotent.
func (j *Job) Promote(epoch int64) error {
	return j.setEpoch(epochState{Epoch: epoch, Deposed: false})
}

func (j *Job) setEpoch(next epochState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if next.Epoch < j.epoch.Epoch {
		return fmt.Errorf("%w: epoch %d behind current %d", ErrFenced, next.Epoch, j.epoch.Epoch)
	}
	prev := j.epoch
	j.epoch = next
	if j.dir != "" {
		raw, err := json.Marshal(next)
		if err != nil {
			j.epoch = prev
			return err
		}
		if err := writeFileAtomic(filepath.Join(j.dir, epochFile), raw, j.sync); err != nil {
			j.epoch = prev
			return fmt.Errorf("serve: persisting epoch: %w", err)
		}
	}
	return nil
}

// checkEpochLocked gates one write attempt. stamp < 0 means the write
// carries no epoch (single-node clients); it still must not land on a
// deposed replica. Called with j.mu held.
func (j *Job) checkEpochLocked(stamp int64) error {
	if j.epoch.Deposed {
		return fmt.Errorf("%w: job %q deposed at epoch %d", ErrFenced, j.spec.ID, j.epoch.Epoch)
	}
	if stamp >= 0 && stamp != j.epoch.Epoch {
		return fmt.Errorf("%w: write stamped epoch %d, job at %d", ErrFenced, stamp, j.epoch.Epoch)
	}
	return nil
}

// WriteEpochState persists an ownership record into a job directory that is
// being materialised out of band — a cluster follower staging its shipped
// journal for adoption writes the promotion epoch before handing the
// directory to Registry.AdoptJob, so the adopted job comes up owning the
// write path at the right epoch (or stays deposed if the promotion never
// completes). sync makes the write durable against power loss, as under
// Config.SyncJournal.
func WriteEpochState(dir string, epoch int64, deposed, sync bool) error {
	raw, err := json.Marshal(epochState{Epoch: epoch, Deposed: deposed})
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, epochFile), raw, sync)
}

// loadEpochState reads a job directory's persisted epoch record. A missing
// file is the zero state (primary at epoch 0).
func loadEpochState(dir string) (epochState, error) {
	raw, err := os.ReadFile(filepath.Join(dir, epochFile))
	if os.IsNotExist(err) {
		return epochState{}, nil
	}
	if err != nil {
		return epochState{}, fmt.Errorf("reading epoch state: %w", err)
	}
	var st epochState
	if err := json.Unmarshal(raw, &st); err != nil {
		return epochState{}, fmt.Errorf("decoding epoch state: %w", err)
	}
	return st, nil
}
