package bench

import (
	"fmt"
	"sort"
	"strings"

	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
	"govfm/internal/obs"
	"govfm/internal/policy/keystone"
	"govfm/internal/trace"
)

// This file regenerates the paper's evaluation figures: each function runs
// the relevant workloads across the three system configurations and
// returns the same rows/series the paper plots, plus a Format method used
// by cmd/benchall and the top-level benchmarks.

// FigRow is one (workload, mode) measurement in a relative-performance
// figure.
type FigRow struct {
	Workload string
	Relative map[Mode]float64 // native-relative score (1.0 = parity)
	TrapRate float64          // traps/s in the native run
}

// FigResult is a whole figure.
type FigResult struct {
	Title string
	Rows  []FigRow
}

// Format renders the figure as an aligned text table.
func (f *FigResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-16s %10s %10s %12s %14s\n",
		"workload", "native", "miralis", "no-offload", "traps/s(nat)")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-16s %10.3f %10.3f %12.3f %14.0f\n",
			r.Workload, r.Relative[Native], r.Relative[Miralis],
			r.Relative[MiralisNoOffload], r.TrapRate)
	}
	return b.String()
}

// relRows runs each workload in all three modes and builds native-relative
// rows.
func relRows(r *Runner, specs []*WorkloadSpec) ([]FigRow, error) {
	rows := make([]FigRow, 0, len(specs))
	for _, w := range specs {
		all, err := r.RunAll(w)
		if err != nil {
			return nil, err
		}
		row := FigRow{
			Workload: w.Name,
			Relative: make(map[Mode]float64, 3),
			TrapRate: all[Native].TrapRate,
		}
		for _, mode := range Modes {
			row.Relative[mode] = RelativeScore(all[Native], all[mode])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10 reproduces the CoreMark-Pro relative scores.
func Fig10(newCfg func() *hart.Config) (*FigResult, error) {
	r := &Runner{NewConfig: newCfg, Sandbox: true}
	rows, err := relRows(r, CoreMarkPro())
	if err != nil {
		return nil, err
	}
	return &FigResult{Title: "Fig. 10: Relative CoreMark-Pro scores", Rows: rows}, nil
}

// Fig11Result holds IOzone throughput in MB/s of simulated time.
type Fig11Result struct {
	Throughput map[string]map[Mode]float64 // read/write -> mode -> MB/s
}

// Format renders Fig. 11.
func (f *Fig11Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11: IOzone throughput (MB/s, 128K records)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %12s\n", "op", "native", "miralis", "no-offload")
	for _, op := range []string{"read", "write"} {
		m := f.Throughput[op]
		fmt.Fprintf(&b, "%-8s %10.1f %10.1f %12.1f\n",
			op, m[Native], m[Miralis], m[MiralisNoOffload])
	}
	return b.String()
}

// Fig11 reproduces the IOzone throughput comparison.
func Fig11(newCfg func() *hart.Config) (*Fig11Result, error) {
	r := &Runner{NewConfig: newCfg, Sandbox: true}
	out := &Fig11Result{Throughput: make(map[string]map[Mode]float64)}
	for op, w := range IOzone() {
		all, err := r.RunAll(w)
		if err != nil {
			return nil, err
		}
		out.Throughput[op] = make(map[Mode]float64, 3)
		for _, mode := range Modes {
			bytes := float64(w.Iterations) * RecordBytes
			out.Throughput[op][mode] = bytes / all[mode].SimTime / 1e6
		}
	}
	return out, nil
}

// Fig12Result is the Memcached latency distribution.
type Fig12Result struct {
	// PercentilesNs maps mode -> percentile -> latency in ns.
	PercentilesNs map[Mode]map[int]float64
}

// Fig12Percentiles are the reported distribution points.
var Fig12Percentiles = []int{25, 50, 75, 90, 95, 99}

// Format renders Fig. 12.
func (f *Fig12Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12: Memcached request latency distribution (ns)\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %12s\n", "pct", "native", "miralis", "no-offload")
	for _, p := range Fig12Percentiles {
		fmt.Fprintf(&b, "p%-5d %10.0f %10.0f %12.0f\n", p,
			f.PercentilesNs[Native][p], f.PercentilesNs[Miralis][p],
			f.PercentilesNs[MiralisNoOffload][p])
	}
	return b.String()
}

// Fig12 reproduces the closed-loop latency distribution.
func Fig12(newCfg func() *hart.Config) (*Fig12Result, error) {
	r := &Runner{NewConfig: newCfg, Sandbox: true}
	cfg := newCfg()
	out := &Fig12Result{PercentilesNs: make(map[Mode]map[int]float64)}
	w := Memcached()
	for _, mode := range Modes {
		met, err := r.Run(w, mode)
		if err != nil {
			return nil, err
		}
		out.PercentilesNs[mode] = make(map[int]float64, len(Fig12Percentiles))
		for _, p := range Fig12Percentiles {
			cyc := Percentile(met.LatencySamples, float64(p))
			out.PercentilesNs[mode][p] = NsPerOp(cfg, float64(cyc))
		}
	}
	return out, nil
}

// Fig13 reproduces the application-workload comparison for one platform.
func Fig13(newCfg func() *hart.Config) (*FigResult, error) {
	r := &Runner{NewConfig: newCfg, Sandbox: true}
	rows, err := relRows(r, Applications())
	if err != nil {
		return nil, err
	}
	cfg := newCfg()
	return &FigResult{
		Title: fmt.Sprintf("Fig. 13: Application workloads (%s)", cfg.Name),
		Rows:  rows,
	}, nil
}

// Fig14Row is one RV8 benchmark: enclave performance relative to a native
// process under the same Miralis+Keystone stack.
type Fig14Row struct {
	Benchmark string
	Relative  float64
}

// Fig14Result is the Keystone RV8 figure.
type Fig14Result struct {
	Rows    []Fig14Row
	Average float64
}

// Format renders Fig. 14.
func (f *Fig14Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14: Keystone enclaves on RV8 (relative to native process)\n")
	fmt.Fprintf(&b, "%-14s %10s\n", "benchmark", "relative")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-14s %10.3f\n", r.Benchmark, r.Relative)
	}
	fmt.Fprintf(&b, "%-14s %10.3f\n", "average", f.Average)
	return b.String()
}

// Fig14 runs each RV8 kernel natively and inside a Keystone enclave, both
// under Miralis with the Keystone policy and a periodic preemption timer.
func Fig14(newCfg func() *hart.Config) (*Fig14Result, error) {
	out := &Fig14Result{}
	var sum float64
	for _, w := range RV8() {
		nat, err := runRV8(newCfg, w, false)
		if err != nil {
			return nil, err
		}
		enc, err := runRV8(newCfg, w, true)
		if err != nil {
			return nil, err
		}
		rel := float64(nat) / float64(enc)
		out.Rows = append(out.Rows, Fig14Row{Benchmark: w.Name, Relative: rel})
		sum += rel
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Benchmark < out.Rows[j].Benchmark })
	out.Average = sum / float64(len(out.Rows))
	return out, nil
}

// runRV8 measures one RV8 kernel's cycles, either as a plain process
// workload or inside an enclave, under Miralis + the Keystone policy.
func runRV8(newCfg func() *hart.Config, w *WorkloadSpec, enclave bool) (uint64, error) {
	cfg := newCfg()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		return 0, err
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	if err := m.LoadImage(core.FirmwareBase, fw.Bytes); err != nil {
		return 0, err
	}
	pol := keystone.New()
	mon, err := core.Attach(m, core.Options{
		Policy: pol, Offload: true, FirmwareEntry: core.FirmwareBase,
	})
	if err != nil {
		return 0, err
	}
	if enclave {
		host := kernel.BuildRV8Host(core.OSBase, kernel.EnclaveBase, kernel.EnclaveSize, 200)
		payload := kernel.BuildRV8Enclave(kernel.EnclaveBase, w.Iterations, w.ComputeN, w.MemN)
		if err := m.LoadImage(core.OSBase, host); err != nil {
			return 0, err
		}
		if err := m.LoadImage(kernel.EnclaveBase, payload); err != nil {
			return 0, err
		}
	} else {
		// The same compute as a plain process: a workload kernel with a
		// matching periodic timer tick.
		spec := *w
		spec.TimerSetEvery = 13 // comparable preemption pressure
		if err := m.LoadImage(core.OSBase, spec.BuildKernel(core.OSBase)); err != nil {
			return 0, err
		}
	}
	mon.Boot()
	m.Run(2_000_000_000)
	if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
		return 0, fmt.Errorf("rv8 %s (enclave=%v) failed: %v %q", w.Name, enclave, ok, reason)
	}
	return m.Harts[0].Cycles, nil
}

// Fig3Result is the windowed trap-cause distribution over the boot.
type Fig3Result struct {
	Collector *trace.Collector
	TopShare  float64
	BootTraps uint64
	// NativeTrapRate is the native boot's traps/s of simulated time
	// (the paper: ~5500/s during boot).
	NativeTrapRate float64
	// WorldSwitchRate is the with-offload world-switch rate during boot
	// (the paper: 1.17/s).
	WorldSwitchRate float64
}

// Format renders Fig. 3 as windowed percentages.
func (f *Fig3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3: M-mode trap causes during boot (windows over mtime)\n")
	// One space wider than the longest bucket name, so no two run together.
	cw := trace.BucketWidth() + 1
	fmt.Fprintf(&b, "%-10s", "window")
	for _, c := range trace.Buckets {
		fmt.Fprintf(&b, "%*s", cw, c)
	}
	fmt.Fprintf(&b, "\n")
	for i, w := range f.Collector.Windows {
		var total uint64
		for _, v := range w.Counts {
			total += v
		}
		fmt.Fprintf(&b, "%-10d", i)
		for _, c := range trace.Buckets {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(w.Counts[c]) / float64(total)
			}
			fmt.Fprintf(&b, "%*.1f%%", cw-1, pct)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "top-5 cause share: %.2f%%   traps: %d   world-switches/s (offload): %.2f\n",
		100*f.TopShare, f.BootTraps, f.WorldSwitchRate)
	return b.String()
}

// Fig3 runs the boot sequence natively, collecting the windowed trap-cause
// distribution, then again under Miralis with offload to measure the
// residual world-switch rate.
func Fig3(newCfg func() *hart.Config, windowTicks uint64) (*Fig3Result, error) {
	cfg := newCfg()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		return nil, err
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	if err := m.LoadImage(core.FirmwareBase, fw.Bytes); err != nil {
		return nil, err
	}
	if err := m.LoadImage(core.OSBase, BootWorkload(1)); err != nil {
		return nil, err
	}
	// Ride the observability event stream rather than the hart trap hook:
	// a storeless tracer delivers every trap instant to the collector
	// without paying for ring storage.
	col := trace.NewCollector(windowTicks, m.Clint.Time)
	evs := obs.NewTracer(0)
	m.Harts[0].Trace = evs
	col.AttachTracer(evs)
	m.Reset(core.FirmwareBase)
	m.Run(2_000_000_000)
	if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
		return nil, fmt.Errorf("boot trace failed: %v %q", ok, reason)
	}
	res := &Fig3Result{Collector: col, TopShare: col.TopShare(), BootTraps: col.TrapsToM}
	if simTime := float64(m.Harts[0].Cycles) / (float64(cfg.FreqMHz) * 1e6); simTime > 0 {
		res.NativeTrapRate = float64(col.TrapsToM) / simTime
	}

	// Offloaded boot for the world-switch rate.
	r := &Runner{NewConfig: newCfg}
	cfg2 := newCfg()
	cfg2.Harts = 1
	m2, err := hart.NewMachine(cfg2, core.DramSize)
	if err != nil {
		return nil, err
	}
	_ = m2.LoadImage(core.FirmwareBase, fw.Bytes)
	_ = m2.LoadImage(core.OSBase, BootWorkload(1))
	mon, err := core.Attach(m2, core.Options{Offload: true, FirmwareEntry: core.FirmwareBase})
	if err != nil {
		return nil, err
	}
	mon.Boot()
	m2.Run(2_000_000_000)
	if ok, reason := m2.Halted(); !ok || reason != "guest-exit-pass" {
		return nil, fmt.Errorf("offloaded boot failed: %v %q", ok, reason)
	}
	simTime := float64(m2.Harts[0].Cycles) / (float64(cfg2.FreqMHz) * 1e6)
	if simTime > 0 {
		res.WorldSwitchRate = float64(mon.TotalStats().WorldSwitches) / simTime
	}
	_ = r
	return res, nil
}

// BootTimeResult compares boot duration across configurations (§8.3.2).
type BootTimeResult struct {
	Seconds map[Mode]float64
}

// Format renders the boot-time comparison.
func (f *BootTimeResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Boot time (simulated seconds)\n")
	fmt.Fprintf(&b, "%-12s %10.4f\n", "native", f.Seconds[Native])
	fmt.Fprintf(&b, "%-12s %10.4f (%+.1f%%)\n", "miralis", f.Seconds[Miralis],
		100*(f.Seconds[Miralis]/f.Seconds[Native]-1))
	fmt.Fprintf(&b, "%-12s %10.4f (%+.1f%%)\n", "no-offload", f.Seconds[MiralisNoOffload],
		100*(f.Seconds[MiralisNoOffload]/f.Seconds[Native]-1))
	return b.String()
}

// BootTime measures the boot sequence in the three configurations.
func BootTime(newCfg func() *hart.Config) (*BootTimeResult, error) {
	out := &BootTimeResult{Seconds: make(map[Mode]float64)}
	for _, mode := range Modes {
		cyc, err := runKernelImage(newCfg, BootWorkload(1), mode)
		if err != nil {
			return nil, err
		}
		cfg := newCfg()
		out.Seconds[mode] = float64(cyc) / (float64(cfg.FreqMHz) * 1e6)
	}
	return out, nil
}

// RVA23Result is the forward-looking ablation of §3.4: on a CPU with a
// hardware time CSR and Sstc, fast-path offloading becomes unnecessary.
type RVA23Result struct {
	// Relative performance without offloading, per platform.
	NoOffloadRelative map[string]float64
	// World switches during the run without offloading, per platform.
	NoOffloadSwitches map[string]uint64
}

// Format renders the ablation.
func (f *RVA23Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RVA23 ablation: Redis-profile workload without fast-path offloading\n")
	fmt.Fprintf(&b, "%-14s %22s %20s\n", "platform", "no-offload relative", "world switches")
	for _, p := range []string{"visionfive2", "rva23"} {
		fmt.Fprintf(&b, "%-14s %22.3f %20d\n", p, f.NoOffloadRelative[p], f.NoOffloadSwitches[p])
	}
	return b.String()
}

// RVA23Ablation runs the Redis-profile workload without offloading on the
// VisionFive 2 (where every clock read and timer deadline traps) and on an
// RVA23-class CPU (hardware time CSR + Sstc): the overhead must vanish on
// the latter, confirming the paper's §3.4 prediction.
func RVA23Ablation() (*RVA23Result, error) {
	out := &RVA23Result{
		NoOffloadRelative: make(map[string]float64),
		NoOffloadSwitches: make(map[string]uint64),
	}
	for _, mkp := range []struct {
		mk   func() *hart.Config
		sstc bool
	}{{hart.VisionFive2, false}, {hart.RVA23, true}} {
		cfg := mkp.mk()
		w := &WorkloadSpec{
			Name: "redis-ablation", Iterations: 1200,
			ComputeN: 1500, MemN: 60, WorkingSet: 1 << 20,
			TimeReadEvery: 1, TimerSetEvery: 101,
			UseSstc: mkp.sstc,
		}
		r := &Runner{NewConfig: mkp.mk}
		nat, err := r.Run(w, Native)
		if err != nil {
			return nil, err
		}
		noo, err := r.Run(w, MiralisNoOffload)
		if err != nil {
			return nil, err
		}
		out.NoOffloadRelative[cfg.Name] = RelativeScore(nat, noo)
		out.NoOffloadSwitches[cfg.Name] = noo.WorldSwitches
	}
	return out, nil
}

// OffloadAblationResult sweeps the fast-path mask on a mixed workload:
// which of the five offloaded operations buys how much (the design-choice
// ablation for §3.4).
type OffloadAblationResult struct {
	// Relative performance vs native per configuration name.
	Relative map[string]float64
	// Order lists the configurations from none to all.
	Order []string
}

// Format renders the ablation.
func (f *OffloadAblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fast-path ablation (memcached profile, relative to native)\n")
	fmt.Fprintf(&b, "%-28s %10s\n", "offloaded operations", "relative")
	for _, name := range f.Order {
		fmt.Fprintf(&b, "%-28s %10.3f\n", name, f.Relative[name])
	}
	return b.String()
}

// OffloadAblation measures the memcached-profile workload with
// progressively more fast paths enabled.
func OffloadAblation(newCfg func() *hart.Config) (*OffloadAblationResult, error) {
	w := Memcached()
	w.Samples = 0
	w.MisalignedEvery = 7 // give the misaligned path traffic too

	cfgs := []struct {
		name string
		mask core.OffloadOp
		off  bool
	}{
		{"none", 0, false},
		{"time-read", core.OffloadTimeRead, true},
		{"time-read+timer", core.OffloadTimeRead | core.OffloadTimer, true},
		{"tr+timer+misaligned", core.OffloadTimeRead | core.OffloadTimer |
			core.OffloadMisaligned, true},
		{"all", core.OffloadAll, true},
	}
	out := &OffloadAblationResult{Relative: make(map[string]float64)}

	// Native baseline (no monitor at all).
	r := &Runner{NewConfig: newCfg}
	natM, err := r.Run(w, Native)
	if err != nil {
		return nil, err
	}
	nat := natM.Cycles
	for _, c := range cfgs {
		cyc, err := runMasked(newCfg, w, c.off, c.mask)
		if err != nil {
			return nil, err
		}
		out.Relative[c.name] = float64(nat) / float64(cyc)
		out.Order = append(out.Order, c.name)
	}
	return out, nil
}

// runMasked boots the workload under the monitor with a specific offload
// mask and returns the cycle count.
func runMasked(newCfg func() *hart.Config, w *WorkloadSpec, offload bool, mask core.OffloadOp) (uint64, error) {
	cfg := newCfg()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		return 0, err
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	if err := m.LoadImage(core.FirmwareBase, fw.Bytes); err != nil {
		return 0, err
	}
	if err := m.LoadImage(core.OSBase, w.BuildKernel(core.OSBase)); err != nil {
		return 0, err
	}
	mon, err := core.Attach(m, core.Options{
		Offload: offload, OffloadMask: mask, FirmwareEntry: core.FirmwareBase,
	})
	if err != nil {
		return 0, err
	}
	mon.Boot()
	m.Run(2_000_000_000)
	if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
		return 0, fmt.Errorf("ablation run (%v/%#x) failed: %v %q", offload, mask, ok, reason)
	}
	return m.Harts[0].Cycles, nil
}
