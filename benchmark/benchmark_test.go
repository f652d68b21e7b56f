package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// preparedOnce caches prepared workloads by name and seed across tests: the
// interpreter oracles are the slow part of the suite.
var preparedOnce sync.Map

type cachedPrep struct {
	once sync.Once
	p    *prepared
	err  error
}

// mustPrepare seeds a workload and runs its interpreter oracle, once per
// name and seed.
func mustPrepare(t *testing.T, name string, seed int64) *prepared {
	t.Helper()
	i := workloadIndex(name)
	if i < 0 {
		t.Fatalf("no workload %q", name)
	}
	v, _ := preparedOnce.LoadOrStore(fmt.Sprintf("%s/%d", name, seed), &cachedPrep{})
	c := v.(*cachedPrep)
	c.once.Do(func() { c.p, c.err = prepare(workloads[i], seed) })
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.p
}

func mustLane(t *testing.T, p *prepared, v variant) *lane {
	t.Helper()
	l, err := newLane(p, v)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Every workload reaches guest-exit-pass on seeds 1 and 2, and its fast runs
// (host caches and superblocks on) reproduce the interpreter oracle exactly.
func TestWorkloadsMatchOracle(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				t.Parallel()
				p := mustPrepare(t, w.name, seed)
				if p.oracle.halt != "guest-exit-pass" || p.instret == 0 {
					t.Fatalf("oracle %q after %d instructions", p.oracle.halt, p.instret)
				}
				l := mustLane(t, p, plain)
				for i := 0; i < 2; i++ {
					l.once(true)
				}
				if l.failed != 0 || len(l.runNs) != 2 {
					t.Errorf("%d of %d runs failed: %s", l.failed, l.attempted, l.failure)
				}
			})
		}
	}
}

// A traced run leaves every simulated counter and the monitor's Stats
// exactly as an untraced run does, while its wrappers see the traps and the
// policy hooks.
func TestTracingIsInvisible(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			p := mustPrepare(t, w.name, 1)
			pl, tl := mustLane(t, p, plain), mustLane(t, p, traced)
			tl.lt.reset()
			pl.once(true)
			tl.once(true)
			if pl.failed+tl.failed != 0 {
				t.Fatalf("plain %q, traced %q", pl.failure, tl.failure)
			}
			lt := tl.lt
			var traps int64
			for _, n := range lt.trapN {
				traps += n
			}
			if lt.runs != 1 || traps == 0 || lt.hookN == 0 {
				t.Errorf("traced %d runs, %d traps, %d policy calls", lt.runs, traps, lt.hookN)
			}
			if lt.count[cInstret] != p.instret {
				t.Errorf("traced run counted %d instructions, oracle %d", lt.count[cInstret], p.instret)
			}
			if len(lt.spans) == 0 || lt.spans[0].name != "run" || lt.spans[0].parent != -1 {
				t.Errorf("recorded spans start with %+v", lt.spans[:min(1, len(lt.spans))])
			}
		})
	}
}

// A traced campaign still forks: Monitor.Fork accepts the policy wrapper only
// because it forwards core.PolicyForker, and the child gets a wrapped fork.
func TestTracedForkCampaignForks(t *testing.T) {
	l := mustLane(t, mustPrepare(t, "fork-campaign", 1), traced)
	sys := l.once(true)
	if sys == nil {
		t.Fatalf("traced fork run failed: %s", l.failure)
	}
	if _, ok := sys.mon.Policy.(*tracedPolicy); !ok {
		t.Errorf("forked monitor's policy is %T, want *tracedPolicy", sys.mon.Policy)
	}
	if l.lt.stepNs[stepSpawn] == 0 || l.lt.stepNs[stepFork] == 0 {
		t.Errorf("spawn and fork steps were not timed: %v", l.lt.stepNs)
	}
}

// sameMetrics reports whether the schema and BENCHMARK.json list the same
// metrics, in order, with the same units and directions.
func sameMetrics(defs []metricDef, spec []specMetric) bool {
	return slices.EqualFunc(defs, spec, func(d metricDef, m specMetric) bool {
		return d.name == m.Name && d.unit == m.Unit && d.better == m.Better
	})
}

// The metric schema is frozen: the workloads and metrics the benchmark
// prints, with their units and directions, are exactly those BENCHMARK.json
// names, in both passes.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var spec benchmarkFile
	if err := readJSON(filepath.Join("..", specFile), &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: benchmark has %q (%q), %s lists %+v", i, w.name, w.why, specFile, spec.Workloads)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%s lists %d workloads, the benchmark has %d", specFile, len(spec.Workloads), len(workloads))
	}
	if !sameMetrics(endToEnd, spec.EndToEnd) {
		t.Errorf("end-to-end metrics differ:\nbenchmark %v\n%s %v", endToEnd, specFile, spec.EndToEnd)
	}
	if !sameMetrics(perLayer, spec.PerLayer) {
		t.Errorf("per-layer metrics differ:\nbenchmark %v\n%s %v", perLayer, specFile, spec.PerLayer)
	}

	for _, trace := range []bool{false, true} {
		cfg := config{workloads: workloads[4:5], seed: 1, perLoad: 50 * time.Millisecond, trace: trace}
		r, err := measureAll(cfg, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if !r.print(&out) {
			t.Fatalf("trace=%v: measurement not correct:\n%s", trace, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool                      `json:"correct"`
			Attempted int                       `json:"attempted"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			if v, ok := last.Metrics[m.Name]; !ok || v["unit"] != m.Unit {
				t.Errorf("trace=%v: printed %s as %v, want unit %q", trace, m.Name, v, m.Unit)
			}
		}
		if len(last.Metrics) != len(names) || !last.Correct || last.Attempted == 0 {
			t.Errorf("trace=%v: printed %d metrics (correct=%v, attempted=%d), want %v",
				trace, len(last.Metrics), last.Correct, last.Attempted, names)
		}
		if trace {
			checkSpans(t, r)
		}
	}
}

// checkSpans writes the traced pass's spans and checks they load as a
// Chrome trace whose spans nest inside their parents.
func checkSpans(t *testing.T, r *report) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, r.lanes); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := readJSON(path, &trace); err != nil {
		t.Fatal(err)
	}
	var spans []chromeEvent
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	names := map[string]bool{}
	for i, e := range spans {
		names[e.Name] = true
		parent := int(e.Args["parent"].(float64))
		if parent < 0 {
			continue
		}
		p := spans[parent]
		if parent >= i || e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+0.001 {
			t.Fatalf("span %d %s [%v+%v] is not inside its parent %s [%v+%v]", i, e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
		}
	}
	for _, want := range []string{"run", "setup", "asm.build", "hart.run", "core.mtrap", "policy.PolicyPMP"} {
		if !names[want] {
			t.Errorf("no %q span among %v", want, names)
		}
	}
}

// -compare passes identical results and fails a regression beyond a bound.
func TestCompare(t *testing.T) {
	dir, files := t.TempDir(), 0
	res := func(runMs, mips float64) string {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.name] = value{Value: 1, Unit: d.unit}
		}
		m["run_ms.p2"] = value{Value: runMs, Unit: "ms"}
		m["guest_mips"] = value{Value: mips, Unit: "MIPS"}
		files++
		path := filepath.Join(dir, fmt.Sprintf("%d.json", files))
		r := results{Order: []string{"trap-mix"}, Workloads: map[string]*workloadResult{"trap-mix": {Metrics: m}}}
		if err := writeResults(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", specFile)
	base := res(10, 50)
	for _, c := range []struct {
		runMs, mips float64
		pass        bool
	}{{10, 50, true}, {12, 45, true}, {13, 50, false}, {10, 35, false}} {
		var out bytes.Buffer
		ok, err := compare(spec, base, res(c.runMs, c.mips), &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.pass {
			t.Errorf("run_ms.p2 %v, guest_mips %v: pass=%v, want %v\n%s", c.runMs, c.mips, ok, c.pass, out.String())
		}
	}
}

// A histogram percentile lands within the bucket width of the sample.
func TestHistogram(t *testing.T) {
	for _, v := range []int64{0, 1, 7, 8, 15, 16, 100, 999, 12345, 1 << 40} {
		var h hist
		h.add(v)
		if got := h.quantile(0.5); math.Abs(got-float64(v)) > float64(v)/8+0.5 {
			t.Errorf("sample %d: median %v", v, got)
		}
	}
}
