package main

import (
	"fmt"
	"slices"
	"time"

	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/obs"
	"govfm/internal/policy/sandbox"
)

// variant selects how a run's system is built. Every variant must reach the
// same architectural outcome; only host time may differ.
type variant int

const (
	plain     variant = iota // what the end-to-end metrics time
	traced                   // layer wrappers around the monitor and policy
	observed                 // the program's own observability layer attached
	reference                // interpreter only (no host caches, no superblocks): the oracle
)

func (v variant) String() string {
	return [...]string{"plain", "traced", "observed", "reference"}[v]
}

// system is one monitored machine, built and booted, ready to run.
type system struct {
	m   *hart.Machine
	mon *core.Monitor
}

// boot builds a system from nothing, the way every rvsim invocation does:
// assemble the firmware and kernel, build the machine, load the images,
// attach the monitor and boot it. lt, non-nil only for traced runs, times
// each step and wraps the monitor and policy.
func (s *spec) boot(v variant, lt *layerTrace) (*system, error) {
	var fw, kern []byte
	// The image builders return no errors; they panic on a bug.
	_ = lt.step(stepAsm, func() error {
		fw = firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
			OSEntry: core.OSBase, Harts: s.harts, FirmwareSize: core.FirmwareSize,
		}).Bytes
		kern = s.kernel()
		return nil
	})
	var m *hart.Machine
	err := lt.step(stepNewMachine, func() (err error) {
		cfg := s.profile()
		cfg.Harts = s.harts
		if m, err = hart.NewMachine(cfg, core.DramSize); err != nil {
			return err
		}
		if err = m.LoadImage(core.FirmwareBase, fw); err != nil {
			return err
		}
		return m.LoadImage(core.OSBase, kern)
	})
	if err != nil {
		return nil, err
	}
	var mon *core.Monitor
	err = lt.step(stepAttachBoot, func() (err error) {
		opts := core.Options{Offload: true, FirmwareEntry: core.FirmwareBase}
		if s.sandbox {
			opts.Policy = sandbox.New(sandbox.Options{})
		}
		switch v {
		case traced:
			if opts.Policy, err = lt.wrapPolicy(opts.Policy); err != nil {
				return err
			}
		case observed:
			o := obs.New(obs.Options{})
			m.AttachObs(o)
			opts.Obs = o
		}
		if mon, err = core.Attach(m, opts); err != nil {
			return err
		}
		if v == traced {
			lt.wrapMonitors(m, mon)
		}
		mon.Boot()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if v == reference {
		m.SetFastPath(false)
		m.SetSuperblock(false)
	}
	return &system{m: m, mon: mon}, nil
}

// forkBase is a campaign workload's booted, snapshotted parent.
type forkBase struct {
	img        *hart.Image
	mon        *core.Monitor
	snapshotNs int64 // one-time cost of taking the snapshot
}

// prepareFork boots the workload and snapshots it after warmup steps. A
// traced parent carries the wrapped policy, so every fork goes through the
// wrapper's ForkPolicy.
func (s *spec) prepareFork(v variant, lt *layerTrace, warmup uint64) (*forkBase, error) {
	sys, err := s.boot(v, lt)
	if err != nil {
		return nil, err
	}
	sys.m.Run(warmup)
	if halted, reason := sys.m.Halted(); halted {
		return nil, fmt.Errorf("parent halted during warmup: %q", reason)
	}
	start := time.Now()
	img, err := sys.m.Snapshot()
	if err != nil {
		return nil, err
	}
	return &forkBase{img: img, mon: sys.mon, snapshotNs: time.Since(start).Nanoseconds()}, nil
}

// spawn makes one campaign case: a copy-on-write child of the snapshot with
// a forked monitor, the way bench.ForkLatency does it.
func (f *forkBase) spawn(v variant, lt *layerTrace) (*system, error) {
	var child *hart.Machine
	err := lt.step(stepSpawn, func() (err error) {
		child, err = hart.SpawnFromImage(f.img)
		return err
	})
	if err != nil {
		return nil, err
	}
	var mon *core.Monitor
	err = lt.step(stepFork, func() (err error) {
		if mon, err = f.mon.Fork(child); err != nil {
			return err
		}
		switch v {
		case traced:
			lt.wrapMonitors(child, mon)
		case observed:
			o := obs.New(obs.Options{})
			child.AttachObs(o)
			mon.AttachObs(o)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &system{m: child, mon: mon}, nil
}

// outcome is everything a run must reproduce exactly: how it halted, every
// hart's cycle and instret counters, the console output and the monitor's
// counters.
type outcome struct {
	halt    string
	cycles  []uint64
	instret []uint64
	uart    string
	stats   core.Stats
}

func observe(s *system) outcome {
	_, reason := s.m.Halted()
	o := outcome{halt: reason, uart: s.m.Uart.Output(), stats: s.mon.TotalStats()}
	for _, h := range s.m.Harts {
		o.cycles = append(o.cycles, h.Cycles)
		o.instret = append(o.instret, h.Instret)
	}
	return o
}

// mismatch describes how o differs from want, or returns "" if it does not.
func (o *outcome) mismatch(want *outcome) string {
	switch {
	case o.halt != want.halt:
		return fmt.Sprintf("halted with %q, oracle %q", o.halt, want.halt)
	case !slices.Equal(o.cycles, want.cycles):
		return fmt.Sprintf("cycles %v, oracle %v", o.cycles, want.cycles)
	case !slices.Equal(o.instret, want.instret):
		return fmt.Sprintf("instret %v, oracle %v", o.instret, want.instret)
	case o.uart != want.uart:
		return fmt.Sprintf("console %q, oracle %q", o.uart, want.uart)
	case o.stats != want.stats:
		return fmt.Sprintf("monitor stats %+v, oracle %+v", o.stats, want.stats)
	}
	return ""
}

// Simulator counts read from the machine after a run, summed over harts.
const (
	cInstret = iota
	cCycles
	cTraps
	cDecodeHits
	cDecodeMisses
	cTLBHits
	cTLBMisses
	cPageWalks
	cSBTranslations
	cSBHits
	cSBRetired
	cSBGuardMisses
	cSBAborts
	cPMPChecks
	cPMPFastHits
	cTouchedPages
	cCOWCopies
	numCounters
)

// counters holds one value per simulator count, indexed by the c* constants.
type counters [numCounters]uint64

func readCounters(m *hart.Machine) counters {
	var c counters
	c[cTouchedPages] = m.Bus.TouchedPages()
	c[cCOWCopies] = m.Bus.COWCopies()
	for _, h := range m.Harts {
		p := &h.Perf
		c[cInstret] += h.Instret
		c[cCycles] += h.Cycles
		c[cTraps] += p.Traps
		c[cDecodeHits] += p.DecodeHits
		c[cDecodeMisses] += p.DecodeMisses
		c[cTLBHits] += p.TLBHits
		c[cTLBMisses] += p.TLBMisses
		c[cPageWalks] += p.PageWalks
		c[cSBTranslations] += p.SBTranslations
		c[cSBHits] += p.SBHits
		c[cSBRetired] += p.SBRetired
		c[cSBGuardMisses] += p.SBGuardMisses
		c[cSBAborts] += p.SBAborts
		c[cPMPChecks] += h.CSR.PMP.Perf.Checks
		c[cPMPFastHits] += h.CSR.PMP.Perf.FastHits
	}
	return c
}

// since returns the counts accumulated after before was read.
func (c counters) since(before counters) counters {
	for i := range c {
		c[i] -= before[i]
	}
	return c
}

// add accumulates d into c.
func (c *counters) add(d counters) {
	for i := range c {
		c[i] += d[i]
	}
}
