// Command benchmark measures the govfm simulator and monitor end to end and
// layer by layer on six workloads. Run it from the repository root:
//
//	go -C benchmark run . [-workload all|name,...] [-seed N] [-seconds S] [-trace 0|1]
//	                      [-out results.json] [-trace-out spans.json]
//	go -C benchmark run . -compare a.json b.json
//
// or through benchmark/run.sh, which keeps every build product inside the
// checkout. See benchmark/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one measurement: which workloads, how long, and which pass.
type config struct {
	workloads []workload
	seed      int64
	perLoad   time.Duration // measured time per workload, split over its lanes
	trace     bool
}

// report is the outcome of one measurement.
type report struct {
	cfg     config
	lanes   []*lane
	results results
}

// specFile holds the workloads, metrics and bounds, at the repository root.
const specFile = "BENCHMARK.json"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads, or all")
	seed := fs.Int64("seed", 1, "input seed; 1 gives the nominal sizes")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced, untraced and obs runs interleaved")
	out := fs.String("out", "", "write every metric with its distribution to this JSON file")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans of each workload's first traced run here, in Chrome trace_event format")
	cmp := fs.Bool("compare", false, "compare two -out files given as arguments against the bounds in "+specFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		ok, err := compare(specFile, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	cfg := config{seed: *seed, perLoad: time.Duration(*seconds * float64(time.Second)), trace: *traceMode == 1}
	var err error
	switch {
	case fs.NArg() != 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case *traceMode != 0 && *traceMode != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case *traceOut != "" && !cfg.trace:
		err = fmt.Errorf("-trace-out needs -trace 1")
	case *seconds <= 0:
		err = fmt.Errorf("-seconds must be positive")
	}
	if err == nil {
		cfg.workloads, err = selectWorkloads(*names)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	r, err := measureAll(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *out != "" {
		if err = writeResults(*out, &r.results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if *traceOut != "" {
		if err = writeSpans(*traceOut, r.lanes); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	correct := r.print(stdout)
	if !correct {
		return 1
	}
	return 0
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		i := workloadIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, workloads[i])
	}
	return out, nil
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

// measureAll prepares every selected workload, checks it against its
// interpreter oracle, measures its lanes interleaved, and computes the
// metrics of the pass.
func measureAll(cfg config, log io.Writer) (*report, error) {
	variants := []variant{plain}
	if cfg.trace {
		variants = []variant{plain, traced, observed}
	}
	r := &report{cfg: cfg, results: results{
		Seed: cfg.seed, Seconds: cfg.perLoad.Seconds(), Trace: cfg.trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Workloads: map[string]*workloadResult{},
	}}
	for _, w := range cfg.workloads {
		p, err := prepare(w, cfg.seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s: oracle %d instructions, %d steps\n", w.name, p.instret, p.steps/2)
		for _, v := range variants {
			l, err := newLane(p, v)
			if err != nil {
				return nil, err
			}
			r.lanes = append(r.lanes, l)
		}
	}
	measure(r.lanes, cfg.perLoad*time.Duration(len(cfg.workloads)), log)

	for i := 0; i < len(r.lanes); i += len(variants) {
		ls := r.lanes[i : i+len(variants)]
		wr := &workloadResult{}
		for _, l := range ls {
			wr.Attempted += l.attempted
			wr.Failed += l.failed
			if wr.Failure == "" && l.failure != "" {
				wr.Failure = fmt.Sprintf("%v: %s", l.v, l.failure)
			}
		}
		if wr.Failed > 0 || len(ls[0].runNs) == 0 {
			wr.Metrics = map[string]value{}
		} else if cfg.trace {
			wr.Metrics = perLayerValues(ls[0], ls[1], ls[2])
		} else {
			wr.Metrics = endToEndValues(ls[0], ls[0].heapBytes())
		}
		name := ls[0].w.name
		r.results.Order = append(r.results.Order, name)
		r.results.Workloads[name] = wr
	}
	return r, nil
}

// print writes a table of every workload's metrics, then, as the last line,
// one JSON object with the run's correctness, run counts and metrics. With
// one workload the metrics carry their plain names; with several each is
// prefixed by its workload. It reports whether every run was correct.
func (r *report) print(w io.Writer) bool {
	schema := endToEnd
	if r.cfg.trace {
		schema = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	res := &r.results
	fmt.Fprintf(w, "seed %d, %v per workload, trace %v, %s, nproc %d\n",
		res.Seed, r.cfg.perLoad, res.Trace, res.GoVersion, res.NProc)
	for _, name := range res.Order {
		wr := res.Workloads[name]
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		fmt.Fprintf(w, "%s: %d runs, %d failed\n", name, wr.Attempted, wr.Failed)
		if wr.Failed > 0 || len(wr.Metrics) == 0 {
			line.Correct = false
			fmt.Fprintf(w, "  FAILED: %s\n", wr.Failure)
			continue
		}
		for _, d := range schema {
			v := wr.Metrics[d.name]
			fmt.Fprintf(w, "  %-24s %14.6g %-6s", d.name, v.Value, d.unit)
			if v.Dist != nil {
				fmt.Fprintf(w, "  n=%d p2=%.6g p10=%.6g p50=%.6g p90=%.6g", v.Dist.N, v.Dist.P2, v.Dist.P10, v.Dist.P50, v.Dist.P90)
			}
			fmt.Fprintln(w)
			key := d.name
			if len(res.Order) > 1 {
				key = name + "/" + d.name
			}
			line.Metrics[key] = metric{Value: v.Value, Unit: v.Unit}
		}
	}
	line.Correct = line.Correct && line.Failed == 0 && line.Attempted > 0
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // every metric is a finite number by construction
	}
	fmt.Fprintln(w, string(b))
	return line.Correct
}

func writeResults(path string, res *results) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
