package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. The spans of one request share Req; a
// visible span's parent is the http.post of the same request. Clock names
// the time base of StartUs/EndUs: "live" spans count from the pass's first
// request, "replay" and "recovery" spans from the start of the offline
// stopwatch that timed them.
type span struct {
	Name    string  `json:"name"`
	Clock   string  `json:"clock"`
	Req     int64   `json:"req,omitempty"`
	Parent  string  `json:"parent,omitempty"`
	Job     int     `json:"job"`
	Round   int     `json:"round,omitempty"`
	DueUs   float64 `json:"due_us,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// requestSpans returns an http.post or http.get span per sent request and a
// visible span per acked, measured POST.
func (p *pass) requestSpans() []span {
	var t0 time.Time
	for _, q := range p.reqs {
		if q.attempted() && (t0.IsZero() || q.sent.Before(t0)) {
			t0 = q.sent
		}
	}
	var out []span
	for _, q := range p.reqs {
		if !q.attempted() {
			continue
		}
		name := "http.post"
		if q.ans == nil {
			name = "http.get"
		}
		out = append(out, span{Name: name, Clock: "live", Req: q.id, Job: q.job,
			DueUs: us(q.due.Sub(t0)), StartUs: us(q.sent.Sub(t0)), EndUs: us(q.done.Sub(t0))})
		if v, ok := p.visible[q]; ok {
			out = append(out, span{Name: "visible", Clock: "live", Req: q.id, Parent: "http.post", Job: q.job,
				StartUs: us(q.done.Sub(t0)), EndUs: us(q.done.Add(v).Sub(t0))})
		}
	}
	return out
}

// roundSpans returns the core.partialfit, core.publish and persist.save
// spans of each replayed round.
func roundSpans(rounds []round) []span {
	var out []span
	for _, r := range rounds {
		at := r.start
		for _, st := range []struct {
			name string
			d    time.Duration
			ok   bool
		}{{"core.partialfit", r.fit, true}, {"core.publish", r.pub, true}, {"persist.save", r.save, r.saved}} {
			if !st.ok {
				continue
			}
			out = append(out, span{Name: st.name, Clock: "replay", Job: r.job, Round: r.index,
				StartUs: us(at), EndUs: us(at + st.d)})
			at += st.d
		}
	}
	return out
}

// recoverySpans returns the recover.* stage spans of each timed recovery;
// Round numbers the recovery.
func recoverySpans(recs []recovery) []span {
	var out []span
	for i, r := range recs {
		at := time.Duration(0)
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"recover.checkpoint_load", r.load}, {"recover.journal_scan", r.scan}, {"recover.replay", r.replay}, {"recover.publish", r.publish}} {
			out = append(out, span{Name: st.name, Clock: "recovery", Round: i + 1, StartUs: us(at), EndUs: us(at + st.d)})
			at += st.d
		}
	}
	return out
}

// traceFile is the span file a traced run writes when it ends.
type traceFile struct {
	Runs []traceRun `json:"runs"`
}

type traceRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
