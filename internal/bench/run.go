package bench

import (
	"fmt"
	"sort"
	"time"

	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
	"govfm/internal/obs"
	"govfm/internal/policy/sandbox"
	"govfm/internal/trace"
)

// Mode selects the system configuration under test (the columns of the
// paper's figures).
type Mode int

const (
	Native Mode = iota // firmware in physical M-mode, no monitor
	Miralis
	MiralisNoOffload
)

func (m Mode) String() string {
	switch m {
	case Native:
		return "native"
	case Miralis:
		return "miralis"
	case MiralisNoOffload:
		return "miralis-no-offload"
	}
	return "?"
}

// Modes lists the three standard configurations.
var Modes = []Mode{Native, Miralis, MiralisNoOffload}

// Metrics is what one run yields.
type Metrics struct {
	Workload string
	Platform string
	Mode     Mode

	Cycles   uint64  // hart-0 cycles to completion
	Instret  uint64  // retired guest instructions
	SimTime  float64 // seconds of simulated time (cycles / frequency)
	HostNs   int64   // host wall time of the run loop (excludes setup)
	MIPS     float64 // host throughput: retired instructions / host µs
	TrapsToM uint64  // traps that entered M-mode
	TrapRate float64 // traps to M per simulated second

	WorldSwitches   uint64
	WorldSwitchRate float64 // per simulated second
	FastPathHits    uint64
	Emulations      uint64
	TopCauseShare   float64 // offloadable-cause share of traps (Fig. 3)
	CauseCounts     map[string]uint64
	LatencySamples  []uint64 // per-iteration cycles (when sampled)
	Collector       *trace.Collector
	Monitor         *core.Monitor
	Machine         *hart.Machine
}

// Runner builds machines for one platform profile.
type Runner struct {
	NewConfig func() *hart.Config
	// Sandbox attaches the firmware sandbox policy on monitored runs
	// (the paper's default evaluation configuration).
	Sandbox bool
	// MaxSteps bounds a run (0 = a generous default).
	MaxSteps uint64
}

// image is a binary to load into RAM at addr.
type image struct {
	addr  uint64
	bytes []byte
}

// bootGosbi builds a one-hart machine from newCfg with gosbi at
// core.FirmwareBase, kern at core.OSBase and the extra images at their
// addresses, and boots it: under a monitor attached with opts, or
// natively, with a nil monitor, when opts is nil.
func bootGosbi(newCfg func() *hart.Config, kern []byte, opts *core.Options, extra ...image) (*hart.Machine, *core.Monitor, error) {
	cfg := newCfg()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		return nil, nil, err
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	for _, img := range append([]image{{core.FirmwareBase, fw.Bytes}, {core.OSBase, kern}}, extra...) {
		if err := m.LoadImage(img.addr, img.bytes); err != nil {
			return nil, nil, err
		}
	}
	if opts == nil {
		m.Reset(core.FirmwareBase)
		return m, nil, nil
	}
	o := *opts
	o.FirmwareEntry = core.FirmwareBase
	mon, err := core.Attach(m, o)
	if err != nil {
		return nil, nil, err
	}
	mon.Boot()
	return m, mon, nil
}

// monitorOptions returns the monitor options of mode, or nil for Native.
func monitorOptions(mode Mode) *core.Options {
	if mode == Native {
		return nil
	}
	return &core.Options{Offload: mode == Miralis}
}

// runToPass runs m for up to steps steps and fails unless the guest
// exited with guest-exit-pass.
func runToPass(m *hart.Machine, steps uint64) error {
	m.Run(steps)
	if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
		return fmt.Errorf("run did not complete cleanly: %v %q (pc=%#x)", ok, reason, m.Harts[0].PC)
	}
	return nil
}

// collectTraps classifies hart 0's traps into a Fig. 3 collector with the
// given window length. It rides the observability event stream: a
// storeless tracer delivers every trap instant to the collector without
// paying for ring storage.
func collectTraps(m *hart.Machine, windowTicks uint64) *trace.Collector {
	col := trace.NewCollector(windowTicks, m.Clint.Time)
	evs := obs.NewTracer(0)
	m.Harts[0].Trace = evs
	col.AttachTracer(evs)
	return col
}

// Run executes the workload in the given mode and returns its metrics.
func (r *Runner) Run(w *WorkloadSpec, mode Mode) (*Metrics, error) {
	opts := monitorOptions(mode)
	if opts != nil && r.Sandbox {
		opts.Policy = sandbox.New(sandbox.Options{})
	}
	m, mon, err := bootGosbi(r.NewConfig, w.BuildKernel(core.OSBase), opts)
	if err != nil {
		return nil, err
	}
	col := collectTraps(m, 0)

	maxSteps := r.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	hostStart := time.Now()
	err = runToPass(m, maxSteps)
	hostNs := time.Since(hostStart).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("bench %s/%s: %w", w.Name, mode, err)
	}

	h, cfg := m.Harts[0], m.Cfg
	met := &Metrics{
		Workload:    w.Name,
		Platform:    cfg.Name,
		Mode:        mode,
		Cycles:      h.Cycles,
		Instret:     h.Instret,
		SimTime:     float64(h.Cycles) / (float64(cfg.FreqMHz) * 1e6),
		HostNs:      hostNs,
		TrapsToM:    col.TrapsToM,
		Collector:   col,
		Monitor:     mon,
		Machine:     m,
		CauseCounts: col.Total,
	}
	if met.SimTime > 0 {
		met.TrapRate = float64(col.TrapsToM) / met.SimTime
	}
	if hostNs > 0 {
		met.MIPS = float64(h.Instret) * 1e3 / float64(hostNs)
	}
	met.TopCauseShare = col.TopShare()
	if mon != nil {
		st := mon.TotalStats()
		met.WorldSwitches = st.WorldSwitches
		met.FastPathHits = st.FastPathHits
		met.Emulations = st.Emulations
		if met.SimTime > 0 {
			met.WorldSwitchRate = float64(st.WorldSwitches) / met.SimTime
		}
	}
	if w.Samples > 0 {
		met.LatencySamples = readSamples(m, w.Samples)
	}
	return met, nil
}

func readSamples(m *hart.Machine, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v, ok := m.Bus.Load(sampleBufAddr+uint64(8*i), 8)
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of the samples.
func Percentile(samples []uint64, p float64) uint64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// RelativeScore returns the workload's performance relative to a baseline:
// baselineCycles / cycles (higher is better, 1.0 = parity), the metric of
// Figs. 10, 13, and 14.
func RelativeScore(baseline, measured *Metrics) float64 {
	if measured.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(measured.Cycles)
}

// NsPerOp converts a cycles-per-op measurement to nanoseconds on the
// platform.
func NsPerOp(cfg *hart.Config, cycles float64) float64 {
	return cycles / float64(cfg.FreqMHz) * 1000
}

// RunAll executes the workload in all three modes.
func (r *Runner) RunAll(w *WorkloadSpec) (map[Mode]*Metrics, error) {
	out := make(map[Mode]*Metrics, len(Modes))
	for _, mode := range Modes {
		met, err := r.Run(w, mode)
		if err != nil {
			return nil, err
		}
		out[mode] = met
	}
	return out, nil
}

// BootWorkload returns the phased boot sequence used by the boot-time
// experiment (§8.3.2) and Fig. 3: bootloader, early init, and a long idle
// tail of timer ticks.
func BootWorkload(harts int) []byte {
	_ = harts
	return kernel.BuildBootTrace(core.OSBase, 200)
}
