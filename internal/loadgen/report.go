package loadgen

import (
	"fmt"
	"strings"

	"cpa/internal/serve"
)

// Invariant statuses.
const (
	StatusPass    = "pass"
	StatusFail    = "fail"
	StatusSkipped = "skipped"
)

// InvariantResult is one behavioural check's outcome.
type InvariantResult struct {
	// Name identifies the invariant class: served-equals-replay,
	// acked-answers-durable, crash-recovery-exact, snapshot-monotonic,
	// staleness-bounded, no-job-failure.
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// TenantPhasePR is one tenant's consensus quality at a phase boundary.
type TenantPhasePR struct {
	Job       string  `json:"job"`
	Round     int     `json:"round"`
	Answers   int     `json:"answers"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	// DriftItems counts items whose served label set changed since the
	// previous phase boundary.
	DriftItems int `json:"drift_items"`
}

// PhaseStats aggregates one phase of the run.
type PhaseStats struct {
	Name          string      `json:"name"`
	Answers       int         `json:"answers"`
	Requests      int64       `json:"requests"`
	DurationSec   float64     `json:"duration_seconds"`
	AnswersPerSec float64     `json:"answers_per_second"`
	Ingest        HistSummary `json:"ingest_latency"`
	Reads         HistSummary `json:"read_latency"`
	// Publish summarises the server-side snapshot-publication latencies of
	// the phase, diffed from the cumulative per-job log₂ bucket counters the
	// serve layer exports — the behavioural witness that publish cost stays
	// O(batch) as streams grow (a linear-cost regression shows up here as
	// bucket drift across phases). MaxMs is the run-wide maximum observed so
	// far, not a per-phase value (the exported counters are cumulative).
	Publish HistSummary     `json:"publish_latency"`
	PR      []TenantPhasePR `json:"pr"`
}

// KillEvent records one chaos kill point.
type KillEvent struct {
	AtAnswers int    `json:"at_answers"`
	Phase     string `json:"phase"`
	// RecoveredJobs is how many jobs the restarted registry recovered.
	RecoveredJobs int `json:"recovered_jobs"`
}

// TenantReport describes one job of the run.
type TenantReport struct {
	ID      string `json:"id"`
	Profile string `json:"profile"`
	Items   int    `json:"items"`
	Workers int    `json:"workers"`
	Labels  int    `json:"labels"`
	Answers int    `json:"answers"`
	Deleted bool   `json:"deleted,omitempty"`

	// Spec and JournalPath expose the replay inputs to callers (tests);
	// they are not part of the JSON schema.
	Spec        serve.JobSpec `json:"-"`
	JournalPath string        `json:"-"`
}

// Report is the machine-readable outcome of one scenario run — the
// cpaload -json row family, sharing the envelope conventions of
// cpabench -json (generated_at / seed / go_version / gomaxprocs) so both
// artifacts live side by side in CI.
//
// A cpaload -json array can mix two row shapes: these scenario rows and
// ClusterReport rows (cluster-* scenarios). The per-phase ingest_latency /
// read_latency / publish_latency summaries share one HistSummary shape.
type Report struct {
	GeneratedAt string  `json:"generated_at"`
	Scenario    string  `json:"scenario"`
	Description string  `json:"description"`
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	// Target is "in-process" or the external base URL.
	Target string `json:"target"`

	Tenants    []TenantReport    `json:"tenants"`
	Phases     []PhaseStats      `json:"phases"`
	Kills      []KillEvent       `json:"kills,omitempty"`
	Invariants []InvariantResult `json:"invariants"`

	TotalAnswers int     `json:"total_answers"`
	Requests     int64   `json:"requests"`
	Rejected429  int64   `json:"rejected_429"`
	ReadErrors   int64   `json:"read_errors"`
	MaxStaleness int     `json:"max_staleness_rounds"`
	DurationSec  float64 `json:"duration_seconds"`

	// FinalSnapshots holds each surviving (or pre-delete) tenant's last
	// served snapshot, for callers that re-check invariants; not part of
	// the JSON schema.
	FinalSnapshots map[string]*serve.Snapshot `json:"-"`
	// DataDir is the server data directory the run used (in-process mode).
	DataDir string `json:"-"`
}

// Failed returns the invariants that failed.
func (r *Report) Failed() []InvariantResult {
	var out []InvariantResult
	for _, iv := range r.Invariants {
		if iv.Status == StatusFail {
			out = append(out, iv)
		}
	}
	return out
}

// Summary renders a short human-readable digest for CLI output.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %-14s %6d answers  %5d req  %4d×429  %.1fs",
		r.Scenario, r.TotalAnswers, r.Requests, r.Rejected429, r.DurationSec)
	if len(r.Kills) > 0 {
		fmt.Fprintf(&b, "  kills=%d", len(r.Kills))
	}
	pass, fail, skip := 0, 0, 0
	for _, iv := range r.Invariants {
		switch iv.Status {
		case StatusPass:
			pass++
		case StatusFail:
			fail++
		default:
			skip++
		}
	}
	fmt.Fprintf(&b, "  invariants: %d pass", pass)
	if skip > 0 {
		fmt.Fprintf(&b, ", %d skipped", skip)
	}
	if fail > 0 {
		fmt.Fprintf(&b, ", %d FAIL", fail)
	}
	for _, p := range r.Phases {
		for _, pr := range p.PR {
			fmt.Fprintf(&b, "\n  phase %-12s %-16s round %4d  P=%.3f R=%.3f F1=%.3f drift=%d  p50=%.2fms p99=%.2fms pub50=%.2fms",
				p.Name, pr.Job, pr.Round, pr.Precision, pr.Recall, pr.F1, pr.DriftItems,
				p.Ingest.P50Ms, p.Ingest.P99Ms, p.Publish.P50Ms)
		}
	}
	for _, iv := range r.Failed() {
		fmt.Fprintf(&b, "\n  FAIL %s[%s]: %s", iv.Name, iv.Job, iv.Detail)
	}
	return b.String()
}
