package serve

import (
	"sync"

	"cpa/internal/core"
)

// Worker-trajectory sampling bounds. A ring of trajLen samples per worker,
// recorded every trajEvery publications, lets an operator see a sleeper
// worker turn — the two-coin reliability and blended vote weight drifting —
// rather than only the consensus absorbing it. Jobs beyond trajMaxWorkers
// skip sampling entirely: the point of the cap is that the O(workers) sweep
// and the retained rings stay trivial next to the model itself.
const (
	trajLen        = 16
	trajEvery      = 4
	trajMaxWorkers = 4096
)

// TrajPoint is one sampled view of a worker's trust at a fit round.
type TrajPoint struct {
	Round int64 `json:"round"`
	// VoteWeight is the blended per-label vote weight the consensus search
	// uses (0 until rates exist); Reliability the two-coin posterior mean.
	VoteWeight  float64 `json:"vote_weight"`
	Reliability float64 `json:"reliability"`
}

// WorkerTrajectory is one worker's recent trust samples, oldest first.
type WorkerTrajectory struct {
	Worker int         `json:"worker"`
	Points []TrajPoint `json:"points"`
}

// workerTraj accumulates the samples. Every sample covers every worker at
// the same round, so the rounds are kept once, in a ring of up to trajLen
// stamps, and the values in one flat slice, per worker a ring of the same
// slots (allocated by the first sample, so a job that never publishes pays
// nothing). The fitter records (it owns the model at publication time);
// /statsz readers copy under the mutex.
type workerTraj struct {
	mu      sync.Mutex
	workers int
	rounds  [trajLen]int64 // ring slot → sampled round
	start   int            // slot of the oldest sample
	n       int            // samples held, at most trajLen
	// vals[(u·trajLen+s)·2] and the entry after it are worker u's vote
	// weight and reliability at the round in ring slot s.
	vals []float64
}

func newWorkerTraj(workers int) *workerTraj {
	return &workerTraj{workers: workers}
}

// maybeRecord samples every worker's reliability at the given round if the
// sampling cadence is due. Fitter goroutine only (reads the live model).
func (w *workerTraj) maybeRecord(round int64, m *core.Model) {
	if round%trajEvery != 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n > 0 && w.rounds[(w.start+w.n-1)%trajLen] == round {
		return // recovery republish at an already-sampled round
	}
	if w.vals == nil {
		w.vals = make([]float64, w.workers*trajLen*2)
	}
	s := (w.start + w.n) % trajLen
	if w.n == trajLen {
		w.start = (w.start + 1) % trajLen // overwrite the oldest
	} else {
		w.n++
	}
	w.rounds[s] = round
	for u := 0; u < w.workers; u++ {
		v := w.vals[(u*trajLen+s)*2:]
		v[0], v[1] = m.WorkerVoteWeight(u), m.WorkerReliability(u)
	}
}

// trajectories copies out every worker's samples, oldest first: none
// before the first sample, since every sample covers every worker.
func (w *workerTraj) trajectories() []WorkerTrajectory {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]WorkerTrajectory, 0, w.workers)
	if w.n == 0 {
		return out
	}
	points := make([]TrajPoint, w.workers*w.n)
	for u := 0; u < w.workers; u++ {
		pts := points[u*w.n : (u+1)*w.n : (u+1)*w.n]
		for k := range pts {
			s := (w.start + k) % trajLen
			v := w.vals[(u*trajLen+s)*2:]
			pts[k] = TrajPoint{Round: w.rounds[s], VoteWeight: v[0], Reliability: v[1]}
		}
		out = append(out, WorkerTrajectory{Worker: u, Points: pts})
	}
	return out
}
