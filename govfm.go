// Package govfm is a Go reproduction of "The Design and Implementation of
// a Virtual Firmware Monitor" (SOSP 2025): a complete virtual firmware
// monitor in the style of Miralis, together with the full substrate it
// needs — a cycle-accounted RV64 machine simulator with M/S/U privilege
// modes, PMP, Sv39, CLINT/PLIC/UART devices, a programmatic assembler,
// synthetic vendor firmware (an OpenSBI-like, a RustSBI-like, and a
// Zephyr-like RTOS), synthetic guest kernels, three isolation policies
// (firmware sandbox, Keystone enclaves, ACE confidential VMs), an
// executable reference model of the privileged specification, and a
// differential verification harness for the paper's faithful-emulation
// and faithful-execution criteria.
//
// The package is a facade: it assembles the pieces into a runnable System.
//
//	sys, err := govfm.New(govfm.Config{
//		Platform:   govfm.VisionFive2,
//		Virtualize: true,
//		Offload:    true,
//		Policy:     govfm.SandboxPolicy(),
//	})
//	sys.Run(0)
//	fmt.Print(sys.Console())
//
// For direct access to the subsystems, see the internal packages:
// internal/core (the monitor), internal/hart (the simulator),
// internal/firmware, internal/kernel, internal/policy/*, internal/verif,
// and internal/bench (the evaluation harness).
package govfm

import (
	"fmt"

	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
	"govfm/internal/obs"
	"govfm/internal/policy/ace"
	"govfm/internal/policy/keystone"
	"govfm/internal/policy/sandbox"
)

// Platform selects a hardware profile.
type Platform string

// The built-in platform profiles (paper Table 3 plus the forward-looking
// RVA23 profile of §3.4).
const (
	VisionFive2 Platform = "visionfive2"
	PremierP550 Platform = "p550"
	RVA23       Platform = "rva23"
)

// FirmwareKind selects which vendor firmware image to run.
type FirmwareKind string

// The built-in firmware images (paper §8.2).
const (
	Gosbi  FirmwareKind = "gosbi"  // OpenSBI-like full SBI implementation
	Minsbi FirmwareKind = "minsbi" // RustSBI-like minimal implementation
	RTOS   FirmwareKind = "rtos"   // Zephyr-like M-mode RTOS (no OS payload)
)

// Memory layout constants, re-exported for kernel/image authors.
const (
	FirmwareBase = core.FirmwareBase
	OSBase       = core.OSBase
	DramBase     = hart.DramBase
)

// Policy is an isolation policy module (paper §5).
type Policy = core.Policy

// SandboxPolicy returns the firmware sandbox policy (§5.2) with the
// standard memory layout.
func SandboxPolicy() Policy { return sandbox.New(sandbox.Options{}) }

// KeystonePolicy returns the Keystone enclave policy (§5.3).
func KeystonePolicy() Policy { return keystone.New() }

// ACEPolicy returns the ACE confidential-VM policy (§5.4).
func ACEPolicy() Policy { return ace.New() }

// Config describes a system to build.
type Config struct {
	// Platform selects the hardware profile (default VisionFive2).
	Platform Platform
	// Harts overrides the platform's core count (0 = profile default).
	Harts int

	// Firmware selects the vendor firmware (default Gosbi). FirmwareImage,
	// when non-nil, supplies an opaque binary instead (the paper's Star64
	// scenario) and takes precedence.
	Firmware      FirmwareKind
	FirmwareImage []byte

	// Kernel is the S-mode payload loaded at OSBase. Nil selects the
	// default boot kernel (ignored for the RTOS firmware, which has no OS).
	Kernel []byte

	// Virtualize runs the firmware under the monitor in virtual M-mode;
	// false is the paper's "Native" baseline.
	Virtualize bool
	// Offload enables fast-path offloading of the five hot operations
	// (§3.4); only meaningful when virtualizing.
	Offload bool
	// Policy is the isolation policy (nil = none); only meaningful when
	// virtualizing.
	Policy Policy

	// Containment enables the monitor's crash containment and recovery:
	// firmware double faults, lockups, and watchdog expiries restart the
	// virtual firmware from its boot snapshot (or divert to degraded-mode
	// SBI once the OS runs) instead of wedging the machine. Only
	// meaningful when virtualizing.
	Containment bool
	// WatchdogBudget is the per-entry firmware cycle budget the watchdog
	// enforces when Containment is on (0 disables the watchdog).
	WatchdogBudget uint64

	// Obs, when non-nil, attaches the observability layer: the machine's
	// perf counters and the monitor's dispatch/world-switch/SBI metrics
	// register with Obs.Metrics, and structured events (traps, world
	// switches, boot, faults) flow to Obs.Trace. Observability never
	// charges simulated cycles — counts are bit-identical with it on or
	// off.
	Obs *obs.Observer

	// VirtualizePLIC enables the experimental virtual PLIC (paper §4.3).
	VirtualizePLIC bool
	// IOPMP adds an IOPMP unit to the machine and virtualizes it (§4.3);
	// DMA masters are then checked against monitor, policy, and firmware
	// rules. Implies a 16-entry PMP file (IOPMP-era silicon).
	IOPMP bool
}

// System is a ready-to-run machine.
type System struct {
	Machine  *hart.Machine
	Monitor  *core.Monitor // nil when not virtualizing
	Platform *hart.Config
}

// New builds a system: machine, firmware, kernel, and (optionally) the
// monitor with its policy.
func New(cfg Config) (*System, error) {
	name := cfg.Platform
	if name == "" {
		name = VisionFive2
	}
	mk, ok := hart.Profiles()[string(name)]
	if !ok {
		return nil, fmt.Errorf("govfm: unknown platform %q", name)
	}
	if _, sb := cfg.Policy.(*sandbox.Policy); sb && cfg.Virtualize &&
		cfg.Firmware == RTOS && cfg.FirmwareImage == nil {
		// The sandbox protects an S-mode OS from the firmware: in the OS
		// world it revokes the firmware's range. The RTOS has no OS and
		// runs its U-mode app from that range, so the app would fault and
		// the run end in guest-exit-fail.
		return nil, fmt.Errorf("govfm: the sandbox policy cannot run the rtos firmware: " +
			"it revokes the firmware range, from which the RTOS runs its U-mode app")
	}
	pcfg := mk()
	if cfg.Harts > 0 {
		pcfg.Harts = cfg.Harts
	}
	if cfg.IOPMP {
		pcfg.HasIOPMP = true
		if pcfg.NumPMP < 16 {
			pcfg.NumPMP = 16
		}
	}
	m, err := hart.NewMachine(pcfg, core.DramSize)
	if err != nil {
		return nil, err
	}

	img := cfg.FirmwareImage
	needKernel := true
	if img == nil {
		switch cfg.Firmware {
		case "", Gosbi:
			img = firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
				OSEntry: core.OSBase, Harts: pcfg.Harts, FirmwareSize: core.FirmwareSize,
			}).Bytes
		case Minsbi:
			img = firmware.BuildMinsbi(core.FirmwareBase, firmware.Options{
				OSEntry: core.OSBase, FirmwareSize: core.FirmwareSize,
			}).Bytes
		case RTOS:
			img = firmware.BuildRTOS(core.FirmwareBase).Bytes
			needKernel = false
		default:
			return nil, fmt.Errorf("govfm: unknown firmware %q", cfg.Firmware)
		}
	}
	if err := m.LoadImage(core.FirmwareBase, img); err != nil {
		return nil, err
	}
	if needKernel {
		kern := cfg.Kernel
		if kern == nil {
			kern = kernel.BuildBoot(core.OSBase, kernel.BootOptions{
				Harts: pcfg.Harts, TimeReads: 10, TimerSets: 1, Misaligned: 3,
				Paging: true,
			})
		}
		if err := m.LoadImage(core.OSBase, kern); err != nil {
			return nil, err
		}
	}

	sys := &System{Machine: m, Platform: pcfg}
	if cfg.Obs != nil {
		m.AttachObs(cfg.Obs)
	}
	if cfg.Virtualize {
		mon, err := core.Attach(m, core.Options{
			Policy:          cfg.Policy,
			Offload:         cfg.Offload,
			FirmwareEntry:   core.FirmwareBase,
			VirtualizePLIC:  cfg.VirtualizePLIC,
			VirtualizeIOPMP: cfg.IOPMP,
			Containment:     cfg.Containment,
			WatchdogBudget:  cfg.WatchdogBudget,
			Obs:             cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		sys.Monitor = mon
		mon.Boot()
	} else {
		m.Reset(core.FirmwareBase)
	}
	return sys, nil
}

// Run executes the system until it halts or maxSteps machine steps elapse
// (0 = a generous default). It returns whether the machine halted and the
// halt reason ("guest-exit-pass" is the clean shutdown).
func (s *System) Run(maxSteps uint64) (bool, string) {
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	s.Machine.Run(maxSteps)
	return s.Machine.Halted()
}

// Console returns everything the guest wrote to the UART.
func (s *System) Console() string { return s.Machine.Uart.Output() }

// Stats returns the monitor's aggregate counters (zero when native).
func (s *System) Stats() core.Stats {
	if s.Monitor == nil {
		return core.Stats{}
	}
	return s.Monitor.TotalStats()
}

// Cycles returns hart 0's cycle count.
func (s *System) Cycles() uint64 { return s.Machine.Harts[0].Cycles }

// BootKernel builds the default boot kernel with the given operation
// counts, for callers who want a custom payload.
func BootKernel(harts, timeReads, timerSets, misaligned int) []byte {
	return kernel.BuildBoot(core.OSBase, kernel.BootOptions{
		Harts: harts, TimeReads: timeReads, TimerSets: timerSets,
		Misaligned: misaligned,
	})
}
