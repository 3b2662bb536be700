// Command cpacli aggregates crowd answers from a JSON or CSV dataset file
// and prints the consensus label set per item. When the input carries ground
// truth it also reports precision/recall.
//
// Usage:
//
//	cpacli -in answers.json -method cpa
//	cpacli -in answers.csv -format csv -method cbcc -out consensus.csv
//
// Methods: cpa (batch VI), cpa-online (streaming SVI), mv, em, bcc, cbcc,
// noz, nol.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"cpa/internal/answers"
	"cpa/internal/baselines"
	"cpa/internal/core"
	"cpa/internal/metrics"
)

func main() {
	var (
		in     = flag.String("in", "", "input dataset file (required; '-' for stdin)")
		format = flag.String("format", "json", "input format: json or csv")
		method = flag.String("method", "cpa", "aggregation method: cpa, cpa-online, mv, em, bcc, cbcc, noz, nol")
		out    = flag.String("out", "", "write consensus CSV here instead of stdout")
		seed   = flag.Int64("seed", 1, "random seed for the model")
		par    = flag.Int("parallelism", 0, "map-reduce shards for fitting and predicting with the CPA methods (0 = GOMAXPROCS, 1 = serial); results are bit-identical for every value (block-order reductions)")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "cpacli: %v\n", err)
		os.Exit(1)
	}
	if *in == "" {
		fatal(fmt.Errorf("missing -in"))
	}

	var reader io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		reader = f
	}
	var ds *answers.Dataset
	var err error
	switch *format {
	case "json":
		ds, err = answers.ReadJSON(reader)
	case "csv":
		ds, err = answers.ReadCSV("input", reader)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}

	if *par <= 0 {
		*par = runtime.GOMAXPROCS(0)
	}
	agg, err := pickMethod(*method, *seed, *par)
	if err != nil {
		fatal(err)
	}
	pred, err := agg.Aggregate(ds)
	if err != nil {
		fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"item", "consensus"}); err != nil {
		fatal(err)
	}
	for i, s := range pred {
		members := s.Slice()
		parts := make([]string, len(members))
		for j, c := range members {
			parts[j] = strconv.Itoa(c)
		}
		if err := cw.Write([]string{strconv.Itoa(i), strings.Join(parts, ";")}); err != nil {
			fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		fatal(err)
	}

	if ds.TruthCount() > 0 {
		pr, err := metrics.Evaluate(ds, pred)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cpacli: %s on %d items: precision %.3f, recall %.3f, F1 %.3f (truth on %d items)\n",
			agg.Name(), ds.NumItems, pr.Precision, pr.Recall, pr.F1(), pr.Items)
	}
}

func pickMethod(name string, seed int64, parallelism int) (baselines.Aggregator, error) {
	cfg := core.Config{Seed: seed, Parallelism: parallelism}
	switch name {
	case "cpa":
		return core.NewAggregator(cfg), nil
	case "cpa-online":
		return core.NewOnlineAggregator(cfg), nil
	case "noz":
		return core.NewNoZAggregator(cfg), nil
	case "nol":
		return core.NewNoLAggregator(cfg), nil
	case "mv":
		return baselines.NewMajorityVote(), nil
	case "em":
		return baselines.NewDawidSkene(), nil
	case "bcc":
		return baselines.NewBCC(), nil
	case "cbcc":
		return baselines.NewCBCC(), nil
	default:
		return nil, fmt.Errorf("unknown method %q", name)
	}
}
