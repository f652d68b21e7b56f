package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions (a test holds the two equal) and adds
// each end-to-end metric's regression bound.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},           // cold construction, 2nd percentile: assemble, build, load, attach, boot (fork: spawn + fork)
	{"run_ms.p2", "ms", "lower"},        // Machine.Run to guest-exit-pass, 2nd percentile (p10, p50, p90 and n printed beside it)
	{"guest_mips", "MIPS", "higher"},    // instructions one run retires / run_ms.p2
	{"alloc_mb_per_run", "MB", "lower"}, // Go bytes allocated per run, set-up included
	{"heap_mb", "MB", "lower"},          // live heap one finished machine holds, after a full GC
}

// perLayer are the per-layer metrics of the traced pass. Times are means per
// run; counts are exact per run.
var perLayer = []metricDef{
	{"asm.build_us", "us", "lower"},
	{"hart.new_machine_us", "us", "lower"},
	{"core.attach_boot_us", "us", "lower"},
	{"mem.spawn_us", "us", "lower"},
	{"core.fork_us", "us", "lower"},
	{"mem.snapshot_ms", "ms", "lower"},
	{"hart.run_ms", "ms", "lower"},
	{"hart.self_ms", "ms", "lower"},
	{"hart.self_ns_per_instr", "ns", "lower"},
	{"hart.instret", "count", "lower"},
	{"hart.cycles", "count", "lower"},
	{"hart.traps", "count", "lower"},
	{"hart.decode_hit_pct", "%", "higher"},
	{"hart.decode_misses", "count", "lower"},
	{"hart.sb_retired_pct", "%", "higher"},
	{"hart.sb_translations", "count", "lower"},
	{"hart.sb_guard_miss_pct", "%", "lower"},
	{"hart.sb_aborts", "count", "lower"},
	{"mmu.tlb_hit_pct", "%", "higher"},
	{"mmu.page_walks", "count", "lower"},
	{"pmp.checks", "count", "lower"},
	{"pmp.fast_hit_pct", "%", "higher"},
	{"core.mtrap_count", "count", "lower"},
	{"core.mtrap_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"core.mtrap_ns.p50", "ns", "lower"},
	{"core.mtrap_ns.p99", "ns", "lower"},
	{"core.fastpath_count", "count", "lower"},
	{"core.emulate_count", "count", "lower"},
	{"core.worldswitch_count", "count", "lower"},
	{"core.fastpath_ns_mean", "ns", "lower"},
	{"core.emulate_ns_mean", "ns", "lower"},
	{"core.worldswitch_ns_mean", "ns", "lower"},
	{"policy.calls", "count", "lower"},
	{"policy.ms", "ms", "lower"},
	{"mem.touched_pages", "count", "lower"},
	{"mem.cow_copies", "count", "lower"},
	{"go.gc_cycles_per_run", "count", "lower"},
	{"go.gc_pause_ms_per_run", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"obs.overhead_pct", "%", "lower"},
}

// gatedQ is the quantile the gated timings report. On the 2-vCPU Xeon
// development host, runs alternate between a fast mode and phases about 2.2x
// slower, and a 15 s window can be up to 98% slow; the 2nd percentile stays
// in the fast mode through that, where the median and p90 swing with the
// share of slow runs (README.md).
const gatedQ = 0.02

// dist summarises a metric's per-run samples.
type dist struct {
	N   int     `json:"n"`
	P2  float64 `json:"p2"`
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *dist   `json:"dist,omitempty"`
}

// workloadResult is one workload's outcome in a results file.
type workloadResult struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failure   string           `json:"failure,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// results is what -out writes and -compare reads.
type results struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	GoVersion string                     `json:"go_version"`
	NProc     int                        `json:"nproc"`
	Order     []string                   `json:"order"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// quantile returns the q-quantile of samples by nearest rank.
func quantile(samples []int64, q float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

// distOf summarises samples in nanoseconds, scaled by unit nanoseconds.
func distOf(ns []int64, unit float64) *dist {
	return &dist{N: len(ns), P2: quantile(ns, gatedQ) / unit, P10: quantile(ns, 0.10) / unit,
		P50: quantile(ns, 0.50) / unit, P90: quantile(ns, 0.90) / unit}
}

// endToEndValues computes a plain lane's end-to-end metrics.
func endToEndValues(l *lane, heap uint64) map[string]value {
	setup, run := distOf(l.setupNs, 1e9), distOf(l.runNs, 1e6)
	v := map[string]value{
		"setup_s":          {Value: setup.P2, Dist: setup},
		"run_ms.p2":        {Value: run.P2, Dist: run},
		"guest_mips":       {Value: float64(l.w.instret) / (run.P2 * 1e3)},
		"alloc_mb_per_run": {Value: float64(l.allocBytes) / float64(l.sliceRuns) / 1e6},
		"heap_mb":          {Value: float64(heap) / 1e6},
	}
	return withUnits(v, endToEnd)
}

// perLayerValues computes a workload's per-layer metrics from its traced
// lane, with the Go runtime figures and overheads taken against the plain
// and observed lanes that ran interleaved with it.
func perLayerValues(pl, tl, ol *lane) map[string]value {
	lt := tl.lt
	n := float64(lt.runs)
	c := lt.count
	per := func(x uint64) float64 { return float64(x) / n }
	pct := func(x, of uint64) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(x) / float64(of)
	}
	var trapN, trapNs int64
	for i := range lt.trapN {
		trapN += lt.trapN[i]
		trapNs += lt.trapNs[i]
	}
	selfNs := lt.runNs - trapNs
	m := map[string]float64{
		"hart.run_ms":            float64(lt.runNs) / n / 1e6,
		"hart.self_ms":           float64(selfNs) / n / 1e6,
		"hart.self_ns_per_instr": float64(selfNs) / float64(max(c[cInstret], 1)),
		"hart.instret":           per(c[cInstret]),
		"hart.cycles":            per(c[cCycles]),
		"hart.traps":             per(c[cTraps]),
		"hart.decode_hit_pct":    pct(c[cDecodeHits], c[cDecodeHits]+c[cDecodeMisses]),
		"hart.decode_misses":     per(c[cDecodeMisses]),
		"hart.sb_retired_pct":    pct(c[cSBRetired], c[cInstret]),
		"hart.sb_translations":   per(c[cSBTranslations]),
		"hart.sb_guard_miss_pct": pct(c[cSBGuardMisses], c[cSBHits]+c[cSBGuardMisses]),
		"hart.sb_aborts":         per(c[cSBAborts]),
		"mmu.tlb_hit_pct":        pct(c[cTLBHits], c[cTLBHits]+c[cTLBMisses]),
		"mmu.page_walks":         per(c[cPageWalks]),
		"pmp.checks":             per(c[cPMPChecks]),
		"pmp.fast_hit_pct":       pct(c[cPMPFastHits], c[cPMPChecks]),
		"core.mtrap_count":       float64(trapN) / n,
		"core.mtrap_ms":          float64(trapNs) / n / 1e6,
		"core.self_ms":           float64(trapNs-lt.hookInNs) / n / 1e6,
		"core.mtrap_ns.p50":      lt.trapHist.quantile(0.50),
		"core.mtrap_ns.p99":      lt.trapHist.quantile(0.99),
		"policy.calls":           float64(lt.hookN) / n,
		"policy.ms":              float64(lt.hookNs) / n / 1e6,
		"mem.touched_pages":      per(c[cTouchedPages]),
		"mem.cow_copies":         per(c[cCOWCopies]),
		"go.gc_cycles_per_run":   float64(pl.gcs) / float64(pl.sliceRuns),
		"go.gc_pause_ms_per_run": float64(pl.gcPauseNs) / float64(pl.sliceRuns) / 1e6,
		"trace.overhead_pct":     overheadPct(tl, pl),
		"obs.overhead_pct":       overheadPct(ol, pl),
		"mem.snapshot_ms":        0,
	}
	for i, name := range stepNames {
		m[name+"_us"] = float64(lt.stepNs[i]) / n / 1e3
	}
	for i, name := range classNames[:classOther] {
		m["core."+name+"_count"] = float64(lt.trapN[i]) / n
		m["core."+name+"_ns_mean"] = 0
		if lt.trapN[i] > 0 {
			m["core."+name+"_ns_mean"] = float64(lt.trapNs[i]) / float64(lt.trapN[i])
		}
	}
	if pl.fork != nil {
		m["mem.snapshot_ms"] = float64(pl.fork.snapshotNs) / 1e6
	}
	v := make(map[string]value, len(m))
	for k, x := range m {
		v[k] = value{Value: x}
	}
	return withUnits(v, perLayer)
}

// overheadPct is how much slower a lane's gated run time is than the plain
// lane's, in percent.
func overheadPct(l, plain *lane) float64 {
	return 100 * (quantile(l.runNs, gatedQ)/quantile(plain.runNs, gatedQ) - 1)
}

// withUnits fills in each metric's unit from the schema. A schema metric
// with no value, or a value outside the schema, is a bug in this file.
func withUnits(v map[string]value, schema []metricDef) map[string]value {
	if len(v) != len(schema) {
		panic(fmt.Sprintf("computed %d metrics, schema has %d", len(v), len(schema)))
	}
	for _, d := range schema {
		x, ok := v[d.name]
		if !ok {
			panic("no value for metric " + d.name)
		}
		x.Unit = d.unit
		v[d.name] = x
	}
	return v
}

// benchmarkFile is BENCHMARK.json: the workloads and metrics, and each
// end-to-end metric's regression bound.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints every (workload, end-to-end metric) pair of two results
// files with the ratio b/a and PASS or FAIL against the metric's bound in
// the spec, and reports whether every pair passed. A metric or workload
// missing from b fails.
func compare(specPath, aPath, bPath string, w io.Writer) (bool, error) {
	var spec benchmarkFile
	var a, b results
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-17s %14s %14s %7s %6s\n", "workload", "metric", "a", "b", "b/a", "bound")
	for _, name := range a.Order {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range spec.EndToEnd {
			va, okA := wa.Metrics[m.Name]
			vb, okB := value{}, false
			if wb != nil {
				vb, okB = wb.Metrics[m.Name]
			}
			ratio := vb.Value / va.Value
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "PASS"
			if !okA || !okB || !(worse <= m.Bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-14s %-17s %14.6g %14.6g %7.3f %6.2f %s\n", name, m.Name, va.Value, vb.Value, ratio, m.Bound, verdict)
		}
	}
	return ok, nil
}
