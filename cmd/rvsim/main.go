// Command rvsim is the front door for running a system on the simulator.
// By default it boots a vendor firmware (and, for SBI firmware, the
// default boot kernel) under the virtual firmware monitor and reports the
// run's outcome, console output, per-hart counters and monitor
// statistics. -native runs the same firmware in physical M-mode instead —
// the paper's native baseline. With -image it runs a raw binary image on
// the bare machine — no monitor, no default firmware — starting in M-mode
// at the image base; that is the debugging workhorse for firmware and
// kernel images, and it ignores -firmware, -policy, -native and
// -no-offload.
//
// Usage:
//
//	rvsim [-firmware gosbi|minsbi|rtos] [-policy none|sandbox|keystone|ace]
//	      [-native] [-no-offload]
//	      [-image prog.bin] [-base addr] [-platform visionfive2|p550|rva23]
//	      [-harts 1] [-max-steps N] [-trace] [-fastpath=true] [-superblock=true]
//	      [-trace-out boot.json] [-metrics-out metrics.json] [-metrics]
//	      [-cpuprofile prof.out] [-memprofile heap.out]
//
// -trace-out writes the run's structured events as Chrome trace_event
// JSON (open in Perfetto); -metrics-out writes a metrics snapshot as
// JSON; -metrics dumps the snapshot as text on exit. All three record
// simulated time only — cycle counts are unchanged by enabling them.
//
// The exit status is 0 when the run ends in guest-exit-pass, 1 when it
// does not or cannot start, and 2 for a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	govfm "govfm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/obs"
	"govfm/internal/rv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program; it returns the process exit code so tests can
// drive it directly.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("rvsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		fw         = fs.String("firmware", "gosbi", "vendor firmware: gosbi, minsbi, or rtos")
		policy     = fs.String("policy", "none", "isolation policy: none, sandbox, keystone, or ace")
		native     = fs.Bool("native", false, "run the firmware in physical M-mode (no monitor)")
		noOffload  = fs.Bool("no-offload", false, "disable the monitor's fast-path offloading")
		image      = fs.String("image", "", "raw binary image to run on the bare machine")
		base       = fs.Uint64("base", core.FirmwareBase, "load/entry address of -image")
		platform   = fs.String("platform", "visionfive2", "hardware profile")
		harts      = fs.Int("harts", 1, "core count")
		maxSteps   = fs.Uint64("max-steps", 100_000_000, "step budget")
		traceTraps = fs.Bool("trace", false, "print every trap")
		fastpath   = fs.Bool("fastpath", true, "enable host acceleration caches")
		superblock = fs.Bool("superblock", true, "enable the superblock translation tier (requires -fastpath)")
		traceOut   = fs.String("trace-out", "", "write Chrome trace_event JSON to this file")
		metricsOut = fs.String("metrics-out", "", "write a metrics snapshot (JSON) to this file")
		metricsDmp = fs.Bool("metrics", false, "print a metrics dump on exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(errw, "rvsim: %v\n", err)
		return code
	}

	mk, ok := hart.Profiles()[*platform]
	if !ok {
		return fail(2, fmt.Errorf("unknown platform %q", *platform))
	}
	switch govfm.FirmwareKind(*fw) {
	case govfm.Gosbi, govfm.Minsbi, govfm.RTOS:
	default:
		return fail(2, fmt.Errorf("unknown firmware %q", *fw))
	}
	var pol govfm.Policy
	switch *policy {
	case "none":
	case "sandbox":
		pol = govfm.SandboxPolicy()
	case "keystone":
		pol = govfm.KeystonePolicy()
	case "ace":
		pol = govfm.ACEPolicy()
	default:
		return fail(2, fmt.Errorf("unknown policy %q", *policy))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	var ob *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *metricsDmp {
		ob = obs.New(obs.Options{})
	}

	var (
		m   *hart.Machine
		mon *core.Monitor
	)
	if *image == "" {
		sys, err := govfm.New(govfm.Config{
			Platform:   govfm.Platform(*platform),
			Firmware:   govfm.FirmwareKind(*fw),
			Harts:      *harts,
			Virtualize: !*native,
			Offload:    !*noOffload,
			Policy:     pol,
			Obs:        ob,
		})
		if err != nil {
			return fail(1, err)
		}
		m, mon = sys.Machine, sys.Monitor
	} else {
		img, err := os.ReadFile(*image)
		if err != nil {
			return fail(1, err)
		}
		cfg := mk()
		cfg.Harts = *harts
		if m, err = hart.NewMachine(cfg, core.DramSize); err != nil {
			return fail(1, err)
		}
		if err := m.LoadImage(*base, img); err != nil {
			return fail(1, err)
		}
		if ob != nil {
			m.AttachObs(ob)
		}
		m.Reset(*base)
	}
	if *traceTraps {
		for _, h := range m.Harts {
			h.OnTrap = func(t hart.TrapInfo) {
				fmt.Fprintf(out, "trap hart%d cycle=%d %s epc=%#x tval=%#x %v->%v\n",
					t.Hart, t.Cycle, rv.CauseString(t.Cause), t.EPC, t.Tval,
					t.FromMode, t.ToMode)
			}
		}
	}
	m.SetFastPath(*fastpath)
	m.SetSuperblock(*superblock)
	steps, _ := m.Run(*maxSteps)

	fmt.Fprintf(out, "console:\n%s\n", m.Uart.Output())
	halted, reason := m.Halted()
	fmt.Fprintf(out, "steps=%d halted=%v reason=%q\n", steps, halted, reason)
	for _, h := range m.Harts {
		fmt.Fprintf(out, "%v instret=%d\n", h, h.Instret)
	}
	if mon != nil {
		st := mon.TotalStats()
		fmt.Fprintf(out, "monitor: emulations=%d world-switches=%d fast-path=%d "+
			"fw-traps=%d os-traps=%d virt-interrupts=%d\n",
			st.Emulations, st.WorldSwitches, st.FastPathHits,
			st.FirmwareTraps, st.OSTraps, st.VirtInterrupts)
	}
	if ob != nil {
		if *metricsDmp {
			fmt.Fprintf(out, "metrics:\n%s", ob.Metrics.Dump())
		}
		if *metricsOut != "" {
			if err := ob.WriteMetricsFile(*metricsOut); err != nil {
				fmt.Fprintf(errw, "rvsim: %v\n", err)
			}
		}
		if *traceOut != "" {
			if err := ob.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintf(errw, "rvsim: %v\n", err)
			}
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(errw, "rvsim: %v\n", err)
		} else {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(errw, "rvsim: %v\n", err)
			}
			f.Close()
		}
	}
	if !halted || reason != "guest-exit-pass" {
		return 1
	}
	return 0
}
