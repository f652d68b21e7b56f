// Package core implements Miralis, the virtual firmware monitor: it runs
// unmodified firmware images in a virtual M-mode (physical U-mode) through
// trap-and-emulate, multiplexes the physical PMP file between its own
// protection, policy protection, and the firmware's virtual PMP registers,
// emulates the CLINT, injects virtual interrupts, performs world switches
// between the firmware and the natively executing OS, and offloads the five
// hot SBI/emulation paths (paper §3.4) when fast-path offloading is on.
//
// The monitor attaches to a simulated machine through the hart.Monitor
// hook: every trap that architecturally enters M-mode is delivered to Go
// code here, exactly the position the Rust Miralis occupies on hardware.
package core

import (
	"fmt"

	"govfm/internal/hart"
	"govfm/internal/mmu"
	"govfm/internal/obs"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// Memory layout of the monitored machine. The regions are naturally
// aligned powers of two so single NAPOT entries cover them.
const (
	MiralisBase  = hart.DramBase              // monitor text/data/stacks
	MiralisSize  = 0x10_0000                  // 1 MiB
	FirmwareBase = MiralisBase + MiralisSize  // virtual firmware image
	FirmwareSize = 0x10_0000                  // 1 MiB
	OSBase       = hart.DramBase + 0x800_0000 // OS region
	OSSize       = 0x800_0000                 // 128 MiB
	DramSize     = 0x1000_0000                // 256 MiB total
)

// Physical PMP layout (paper Fig. 5). Entries in priority order:
//
//	0             Miralis self-protection (no permissions)
//	1             virtual-device MMIO (the CLINT)
//	2, 3          policy slots (higher priority than the virtual PMP)
//	4             hardwired address-0 entry: ToR base for virtual PMP 0
//	5 .. n-2      virtual PMP entries
//	n-1           all-memory entry: RWX in vM-mode (M ignores unlocked
//	              PMP), execute-only under MPRV emulation, off for the OS
const (
	pmpSelf     = 0
	pmpDevices  = 1
	pmpOverhead = 6 // self + devices + 2 policy + zero + all-memory
	PolicySlots = 2
)

// Dynamic layout accessors: virtualizing the PLIC consumes one extra
// physical entry for its MMIO window, shifting everything below it.
func (m *Monitor) pmpPlic() int {
	if !m.Opts.VirtualizePLIC {
		return -1
	}
	return 2
}

func (m *Monitor) pmpIOPMP() int {
	if !m.Opts.VirtualizeIOPMP {
		return -1
	}
	i := 2
	if m.Opts.VirtualizePLIC {
		i++
	}
	return i
}

func (m *Monitor) pmpPolicy0() int {
	i := 2
	if m.Opts.VirtualizePLIC {
		i++
	}
	if m.Opts.VirtualizeIOPMP {
		i++
	}
	return i
}

func (m *Monitor) pmpZero() int      { return m.pmpPolicy0() + PolicySlots }
func (m *Monitor) pmpVirtFirst() int { return m.pmpZero() + 1 }

func (m *Monitor) overheadEntries() int {
	n := pmpOverhead
	if m.Opts.VirtualizePLIC {
		n++
	}
	if m.Opts.VirtualizeIOPMP {
		n++
	}
	return n
}

// World identifies which side of the world switch a hart is executing.
type World int

const (
	WorldFirmware World = iota // virtual M-mode (physical U)
	WorldOS                    // direct execution (physical S/U)
)

func (w World) String() string {
	if w == WorldFirmware {
		return "firmware"
	}
	return "os"
}

// Action is a policy hook's verdict.
type Action int

const (
	// ActDefault lets the monitor's default handling proceed.
	ActDefault Action = iota
	// ActHandled means the policy fully handled the event; the monitor
	// resumes without its default behaviour.
	ActHandled
	// ActBlock denies the operation: the monitor stops the machine (the
	// paper's development behaviour for sandbox violations).
	ActBlock
)

// PMPRule is a policy-owned physical PMP entry.
type PMPRule struct {
	Cfg  byte
	Addr uint64
}

// Policy is the isolation-policy module interface (paper §5.1): seven
// optional hooks — three for firmware events, three for OS events, one for
// interrupts — plus policy PMP slots with priority over the virtual PMPs.
// Embed BasePolicy to implement only the hooks a policy needs.
type Policy interface {
	Name() string
	// OnFirmwareEcall runs when the virtual firmware executes ecall.
	OnFirmwareEcall(c *HartCtx) Action
	// OnFirmwareTrap runs on any other trap taken while in vM-mode.
	OnFirmwareTrap(c *HartCtx, cause, tval uint64) Action
	// OnOSEcall runs when the OS performs an SBI call.
	OnOSEcall(c *HartCtx) Action
	// OnOSTrap runs on any other trap from the OS that reaches M-mode.
	OnOSTrap(c *HartCtx, cause, tval uint64) Action
	// OnInterrupt runs when a physical M-mode interrupt is intercepted.
	OnInterrupt(c *HartCtx, code uint64) Action
	// OnWorldSwitch runs on every transition between worlds, after the
	// monitor's own bookkeeping and before CSR installation; to is the
	// world being entered.
	OnWorldSwitch(c *HartCtx, to World)
	// OnFirmwareMisbehavior runs when the monitor detects that the virtual
	// firmware can no longer be trusted to make progress: watchdog budget
	// exhaustion, a virtual double fault, a hopeless wfi, or a panic inside
	// emulation performed on the firmware's behalf. ActDefault lets the
	// monitor contain the fault (restart the firmware, or answer SBI calls
	// itself in degraded mode); ActHandled claims the recovery (the budget
	// is re-armed); ActBlock stops the machine.
	OnFirmwareMisbehavior(c *HartCtx, f *MonitorFault) Action
	// PolicyPMP returns the policy's physical PMP slots (at most
	// PolicySlots rules) for the given world.
	PolicyPMP(c *HartCtx, w World) []PMPRule
}

// BasePolicy is a no-op Policy for embedding.
type BasePolicy struct{}

// Name implements Policy.
func (BasePolicy) Name() string { return "default" }

// OnFirmwareEcall implements Policy.
func (BasePolicy) OnFirmwareEcall(*HartCtx) Action { return ActDefault }

// OnFirmwareTrap implements Policy.
func (BasePolicy) OnFirmwareTrap(*HartCtx, uint64, uint64) Action { return ActDefault }

// OnOSEcall implements Policy.
func (BasePolicy) OnOSEcall(*HartCtx) Action { return ActDefault }

// OnOSTrap implements Policy.
func (BasePolicy) OnOSTrap(*HartCtx, uint64, uint64) Action { return ActDefault }

// OnInterrupt implements Policy.
func (BasePolicy) OnInterrupt(*HartCtx, uint64) Action { return ActDefault }

// OnWorldSwitch implements Policy.
func (BasePolicy) OnWorldSwitch(*HartCtx, World) {}

// OnFirmwareMisbehavior implements Policy.
func (BasePolicy) OnFirmwareMisbehavior(*HartCtx, *MonitorFault) Action { return ActDefault }

// PolicyPMP implements Policy.
func (BasePolicy) PolicyPMP(*HartCtx, World) []PMPRule { return nil }

// OffloadOp selects individual fast-path operations for the offload
// ablation (paper §3.4 lists the five; each is 10-100 lines of monitor
// code).
type OffloadOp uint32

// The five offloadable operation classes.
const (
	OffloadTimeRead OffloadOp = 1 << iota
	OffloadTimer
	OffloadIPI
	OffloadRfence
	OffloadMisaligned

	// OffloadAll enables every fast path.
	OffloadAll = OffloadTimeRead | OffloadTimer | OffloadIPI |
		OffloadRfence | OffloadMisaligned
)

// Options configures the monitor.
type Options struct {
	// Policy is the isolation policy module; nil means BasePolicy.
	Policy Policy
	// Offload enables fast-path offloading of the five hot operations.
	Offload bool
	// OffloadMask restricts offloading to a subset of the operations
	// (zero means all five). Used by the fast-path ablation.
	OffloadMask OffloadOp
	// VirtualizePLIC enables the experimental virtual PLIC (paper §4.3):
	// the PLIC MMIO region is trapped, M-context accesses are mediated,
	// and M-mode external interrupts are re-injected virtually. It costs
	// one physical PMP entry (one fewer virtual PMP for the firmware).
	VirtualizePLIC bool
	// VirtualizeIOPMP virtualizes the platform's IOPMP (paper §4.3): the
	// firmware programs virtual DMA-protection entries, multiplexed onto
	// the physical unit below the monitor's and the policy's rules. The
	// machine must have been built with hart.Config.HasIOPMP. Costs one
	// physical PMP entry for the MMIO window.
	VirtualizeIOPMP bool
	// FirmwareEntry is the virtual firmware's entry point.
	FirmwareEntry uint64
	// Obs, when non-nil, receives the monitor's metrics (via registry
	// collectors) and structured events (world spans, SBI instants,
	// containment outcomes) on the simulated timeline. Purely
	// observational: attaching it never changes cycle counts.
	Obs *obs.Observer

	// Containment enables crash containment and recovery: double faults
	// and fatal conditions in the virtual firmware restart it from the
	// boot snapshot (or divert to degraded-mode SBI once the OS runs)
	// instead of wedging the simulation, and monitor panics become
	// structured MonitorFaults. It is off by default because containment
	// intentionally departs from faithful emulation — the lockstep fuzzer
	// must see the reference machine's behaviour, wedges included.
	Containment bool
	// WatchdogBudget, when non-zero and Containment is on, is the cycle
	// budget the firmware world may consume per entry before the watchdog
	// declares it stuck and fires OnFirmwareMisbehavior. A firmware idling
	// in wfi with a wakeup source armed re-arms the budget (it is waiting,
	// not stuck).
	WatchdogBudget uint64
	// MaxRestarts caps containment-driven firmware reinitializations per
	// hart before the monitor gives up and halts (0 means a default of 8).
	MaxRestarts int

	// Divergence hooks for differential harnesses (internal/verif/fuzz):
	// they observe the emulation path without perturbing it, letting a
	// lockstep fuzzer attribute architectural-state changes to monitor
	// decisions and feed its coverage signal.

	// OnEmulate, when non-nil, is called after the monitor emulates a
	// privileged instruction (or rejects it as illegal) for the virtual
	// hart, with the raw encoding that trapped.
	OnEmulate func(c *HartCtx, raw uint32)
	// OnVirtTrap, when non-nil, is called on every virtual trap injection
	// with the virtual cause and tval, before the entry mutates the
	// virtual state.
	OnVirtTrap func(c *HartCtx, cause, tval uint64)
	// OnWorldSwitch, when non-nil, is called on every world switch with
	// the world being entered (in addition to any Policy hook).
	OnWorldSwitch func(c *HartCtx, to World)
}

// Stats aggregates per-hart monitor counters.
type Stats struct {
	FirmwareTraps  uint64 // traps taken while in vM-mode
	OSTraps        uint64 // traps from the OS intercepted by the monitor
	Emulations     uint64 // privileged instructions emulated
	WorldSwitches  uint64 // world-switch transitions (each direction counts)
	FastPathHits   uint64 // traps absorbed by the fast path
	VirtInterrupts uint64 // virtual interrupts injected into vM-mode
	MMIOEmulations uint64 // device-window accesses emulated (CLINT, PLIC, IOPMP)

	FirmwareRestarts uint64 // containment-driven firmware reinitializations
	WatchdogFires    uint64 // watchdog budget exhaustions
	DegradedCalls    uint64 // SBI calls answered by the degraded-mode fallback

	WallChecks uint64 // Dorami-wall invariant checks passed after world switches
	WallProbes uint64 // behavioural wall probes run by those checks (one per new PMP view)
}

// HartCtx is the monitor's per-hart state.
type HartCtx struct {
	Mon  *Monitor
	Hart *hart.Hart
	V    *VirtCSRs

	// VirtMode is the virtual machine's current privilege mode: M while
	// the firmware executes (vM), S/U during direct execution of the OS.
	VirtMode rv.Mode

	// VirtV is the virtual machine's virtualization mode (hypervisor
	// extension): true while the guest of the virtualized hypervisor runs
	// in VS/VU. Always false in vM; during direct execution it mirrors the
	// physical V bit and is resynchronized from mstatus.MPV on trap entry.
	VirtV bool

	// VirtWaiting marks that the virtual firmware executed wfi.
	VirtWaiting bool

	// osSIE caches nothing — the OS's sie lives in V.Mie S bits while in
	// firmware world (see world switch); this field tracks the physical
	// mstatus S bits saved across the firmware world.
	Stats Stats

	// mprvActive mirrors whether the MPRV emulation window is installed.
	mprvActive bool

	// protFile holds only the monitor's and policy's protections (self,
	// virtual devices, policy slots, then allow-all); it is rebuilt with
	// every PMP install and consulted when the monitor performs a memory
	// access on the firmware's behalf (MPRV, hlv/hsv).
	protFile *pmp.File

	// env is the reused translation env of those accesses.
	env mmu.Env

	// wall holds the PMP views the wall probe passed on; a world switch
	// onto one of them checks only the wall entry's fields.
	wall wallVerdicts

	// resumeOverride, when set by a policy hook that returns ActHandled,
	// replaces the default resume PC for the current trap.
	resumeOverride *uint64

	// vTrapDepth counts nested virtual M-mode trap entries that have not
	// been matched by a virtual mret: an exception from vM at depth ≥ 1 is
	// a virtual double fault.
	vTrapDepth int

	// Degraded marks that the firmware has been written off: the monitor
	// answers the OS's SBI calls itself and the firmware world is never
	// re-entered.
	Degraded bool

	// osLive records that the firmware has handed control to the OS at
	// least once; containment before that point restarts the firmware from
	// boot, after it diverts to degraded mode.
	osLive bool

	// osEntry is where the OS resumes if the firmware dies while the
	// monitor is in the firmware world: the OS PC and mode captured at the
	// last OS→firmware switch.
	osEntry osResume

	// pendingSBI holds the OS's in-flight SBI call while the firmware
	// services it, so containment can answer it in degraded mode.
	pendingSBI *pendingCall

	// fwEnterCycles is the hart cycle count when the firmware world was
	// last entered (or the watchdog budget last re-armed).
	fwEnterCycles uint64

	// lastOSInstret / osProgressCycles drive the OS-starvation clock: once
	// the OS is live, the watchdog charges its budget against cycles spent
	// without a single instruction retired *in the OS world*, regardless
	// of which world currently holds the hart. This catches livelocks no
	// per-entry budget can: trap ping-pong between the worlds (each
	// firmware entry is short, the OS never advances) and fully-delegated
	// fault loops that never re-enter the monitor at all. lastOSInstret is
	// a baseline of Hart.Instret resynced on every OS-world entry, so
	// firmware-world retirement never masquerades as OS progress; the
	// cycle clock only slides on retirement beyond that baseline.
	lastOSInstret    uint64
	osProgressCycles uint64

	// EmuByOp counts emulated instructions by decoded class; SBIByExt
	// counts OS SBI calls by extension label. Both are surfaced through
	// the metrics collector registered by attachObs.
	EmuByOp  [emuNumOps]uint64
	SBIByExt map[string]uint64
}

// osResume is the OS-side resume point captured at an OS→firmware switch.
type osResume struct {
	PC   uint64
	Mode rv.Mode
}

// pendingCall is an OS SBI call the firmware was servicing.
type pendingCall struct {
	Cause uint64    // ecall-from-S or ecall-from-U
	EPC   uint64    // the ecall's PC
	Args  [8]uint64 // a0..a7 at the call
}

// OverrideResume makes the current trap resume at pc; meaningful only from
// a policy hook that returns ActHandled.
func (c *HartCtx) OverrideResume(pc uint64) {
	c.resumeOverride = &pc
}

func (c *HartCtx) takeOverride(def uint64) uint64 {
	if c.resumeOverride != nil {
		pc := *c.resumeOverride
		c.resumeOverride = nil
		return pc
	}
	return def
}

// World reports which world the hart is in, derived from the virtual mode.
func (c *HartCtx) World() World {
	if c.VirtMode == rv.ModeM {
		return WorldFirmware
	}
	return WorldOS
}

// Monitor is the virtual firmware monitor instance for one machine.
type Monitor struct {
	Machine *hart.Machine
	Opts    Options
	Policy  Policy

	Ctx []*HartCtx

	vclint *VirtClint
	vplic  *VirtPlic  // non-nil when Options.VirtualizePLIC
	viopmp *VirtIOPMP // non-nil when Options.VirtualizeIOPMP

	// Halted latches a monitor-initiated stop (policy ActBlock).
	HaltedReason string

	// Faults is the bounded log of structured fault records (see fault.go);
	// FaultCount is the unbounded total.
	Faults     []*MonitorFault
	FaultCount int

	// forceOffload makes every fast path eligible regardless of Options,
	// while the degraded-mode fallback answers an SBI call.
	forceOffload bool

	// Boot snapshot for crash containment: the firmware image bytes and
	// per-hart state captured at Boot, restored when containment
	// reinitializes a crashed firmware.
	bootFW    []byte
	bootSnaps []*hart.Snapshot

	// obsv/fwResidency hold the attached observer (see obs.go).
	obsv        *obs.Observer
	fwResidency *obs.Histogram
}

// Attach installs a monitor on every hart of the machine. The machine must
// have been created but not yet started; call Boot afterwards.
func Attach(m *hart.Machine, opts Options) (*Monitor, error) {
	if opts.Policy == nil {
		opts.Policy = BasePolicy{}
	}
	mon := &Monitor{
		Machine: m,
		Opts:    opts,
		Policy:  opts.Policy,
		vclint:  NewVirtClint(m.Clint, m.Cfg.Harts),
	}
	if opts.VirtualizePLIC {
		mon.vplic = NewVirtPlic(m.Plic, m.Cfg.Harts)
	}
	if opts.VirtualizeIOPMP {
		if m.IOPMP == nil {
			return nil, fmt.Errorf("core: VirtualizeIOPMP requires a platform with an IOPMP")
		}
		mon.viopmp = NewVirtIOPMP(m.IOPMP)
	}
	nvpmp := m.Cfg.NumPMP - mon.overheadEntries()
	if nvpmp < 1 {
		return nil, fmt.Errorf("core: platform has %d PMP entries; at least %d required",
			m.Cfg.NumPMP, mon.overheadEntries()+1)
	}
	for _, h := range m.Harts {
		ctx := &HartCtx{
			Mon:      mon,
			Hart:     h,
			V:        newVirtCSRs(nvpmp),
			VirtMode: rv.ModeM,
			SBIByExt: map[string]uint64{},
		}
		if h.Cfg.HasH {
			ctx.V.enableH()
		}
		mon.Ctx = append(mon.Ctx, ctx)
		h.Monitor = &hartMonitor{mon: mon, ctx: ctx}
	}
	if opts.Obs != nil {
		mon.attachObs(opts.Obs)
	}
	return mon, nil
}

// hartMonitor adapts the per-hart hook to the monitor.
type hartMonitor struct {
	mon *Monitor
	ctx *HartCtx
}

// HandleMTrap implements hart.Monitor. It is the monitor's outermost panic
// boundary: a Go panic anywhere in trap handling is converted into a
// structured MonitorFault and a machine halt instead of killing the
// process — the software analogue of a machine-check handler.
func (hm *hartMonitor) HandleMTrap(h *hart.Hart) {
	m, ctx := hm.mon, hm.ctx
	if m.Opts.Containment {
		defer func() {
			if r := recover(); r != nil {
				m.recordFault(m.newFault(ctx, FaultPanic,
					fmt.Sprintf("panic in monitor trap handler: %v", r)))
				m.halt(ctx, fmt.Sprintf("monitor panic: %v", r))
			}
		}()
	}
	m.handleTrap(ctx)
}

// NumVirtPMP returns the number of virtual PMP entries exposed to the
// firmware.
func (m *Monitor) NumVirtPMP() int { return m.Machine.Cfg.NumPMP - m.overheadEntries() }

// Boot resets the machine and enters the virtual firmware on every hart:
// physical U-mode at the firmware entry with a0 = hartid, monitor PMP
// installed, and well-defined physical CSR values — the state Miralis
// leaves the machine in when it jumps to the second firmware stage
// (paper Fig. 9).
func (m *Monitor) Boot() {
	m.Machine.Reset(m.Opts.FirmwareEntry)
	for _, ctx := range m.Ctx {
		h := ctx.Hart
		ctx.VirtMode = rv.ModeM
		h.Mode = rv.ModeU
		h.PC = m.Opts.FirmwareEntry
		ctx.wall = wallVerdicts{} // a rebooted system probes every view afresh
		m.installPhysCSRs(ctx, WorldFirmware)
		m.installPMP(ctx, WorldFirmware)
		m.installIOPMP(ctx)
	}
	m.observeBoot()
	if m.Opts.Containment {
		// Capture the boot snapshot containment restores a crashed firmware
		// from: the image bytes plus each hart's post-install state.
		fw, err := m.Machine.Bus.ReadBytes(FirmwareBase, FirmwareSize)
		if err == nil {
			m.bootFW = fw
		}
		m.bootSnaps = m.bootSnaps[:0]
		for _, ctx := range m.Ctx {
			m.bootSnaps = append(m.bootSnaps, ctx.Hart.Checkpoint())
			ctx.fwEnterCycles = ctx.Hart.Cycles
			ctx.Hart.Watchdog = m.watchdogHook(ctx)
		}
	}
}

// halt stops the machine with a monitor-attributed reason. Under
// containment every monitor-initiated stop also leaves a structured fault
// record (unless the triggering path just recorded one).
func (m *Monitor) halt(ctx *HartCtx, reason string) {
	if m.Opts.Containment && !m.faultJustRecorded(ctx) {
		m.recordFault(m.newFault(ctx, FaultHalt, reason))
	}
	m.HaltedReason = reason
	ctx.Hart.Halt("miralis: " + reason)
}

// TotalStats sums the per-hart counters.
func (m *Monitor) TotalStats() Stats {
	var t Stats
	for _, c := range m.Ctx {
		t.FirmwareTraps += c.Stats.FirmwareTraps
		t.OSTraps += c.Stats.OSTraps
		t.Emulations += c.Stats.Emulations
		t.WorldSwitches += c.Stats.WorldSwitches
		t.FastPathHits += c.Stats.FastPathHits
		t.VirtInterrupts += c.Stats.VirtInterrupts
		t.MMIOEmulations += c.Stats.MMIOEmulations
		t.FirmwareRestarts += c.Stats.FirmwareRestarts
		t.WatchdogFires += c.Stats.WatchdogFires
		t.DegradedCalls += c.Stats.DegradedCalls
		t.WallChecks += c.Stats.WallChecks
		t.WallProbes += c.Stats.WallProbes
	}
	return t
}
