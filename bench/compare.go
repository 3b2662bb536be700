package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// benchmarkSpec is what BENCHMARK.json, at the repository root, says about
// the metrics. It is the one list of the gated end-to-end metrics, with the
// share by which each may worsen on any workload, and of the per-layer
// metrics a traced run reports.
type benchmarkSpec struct {
	Workloads []listedWorkload `json:"workloads"`
	EndToEnd  []gatedMetric    `json:"end_to_end"`
	PerLayer  []listedMetric   `json:"per_layer"`
}

type listedWorkload struct {
	Name string `json:"name"`
}

type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// regression reports how much worse now is than base, and how much worse
// the bound allows.
func (g gatedMetric) regression(base, now float64) (worse, allowed float64) {
	worse = now - base
	if g.Better == "higher" {
		worse = -worse
	}
	return worse, g.Bound * math.Abs(base)
}

func readReportFile(path string) (*reportFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// medianOf returns the median of a metric over a file's runs of a workload,
// and how many runs reported it.
func (f *reportFile) medianOf(workload, name string) (float64, int) {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return median(xs), len(xs)
}

// compareReports compares the median of every gated end-to-end metric on
// every workload of a new report with a base report, and returns how many
// regressed. Reports run at different GOMAXPROCS are not comparable and are
// refused.
func compareReports(w io.Writer, b *benchmarkSpec, basePath, newPath string) (int, error) {
	base, err := readReportFile(basePath)
	if err != nil {
		return 0, err
	}
	now, err := readReportFile(newPath)
	if err != nil {
		return 0, err
	}
	if base.Env.GOMAXPROCS != now.Env.GOMAXPROCS {
		return 0, fmt.Errorf("refusing to compare reports run at gomaxprocs %d and %d",
			base.Env.GOMAXPROCS, now.Env.GOMAXPROCS)
	}
	regressed := 0
	for _, g := range b.EndToEnd {
		for _, wl := range b.Workloads {
			bv, nb := base.medianOf(wl.Name, g.Name)
			nv, nn := now.medianOf(wl.Name, g.Name)
			if nb == 0 || nn == 0 {
				continue
			}
			worse, allowed := g.regression(bv, nv)
			verdict := "ok"
			if worse > allowed {
				verdict = "REGRESSION"
				regressed++
			}
			fmt.Fprintf(w, "%s %s base=%s (%d runs) new=%s (%d runs) worse_by=%s allowed=%s %s %s\n",
				wl.Name, g.Name, fmtFloat(bv), nb, fmtFloat(nv), nn, fmtFloat(worse), fmtFloat(allowed), g.Unit, verdict)
		}
	}
	return regressed, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
