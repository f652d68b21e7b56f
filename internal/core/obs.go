package core

import (
	"govfm/internal/obs"
	"govfm/internal/rv"
)

// Observability wiring for the monitor: metric collectors over the Stats
// the monitor already keeps, per-extension SBI and per-op emulation
// counters, and structured events on the simulated timeline — world
// residency spans, SBI instants, containment/watchdog/fault instants.
// Everything here follows the invisibility discipline: no simulated
// cycles are charged and no architectural or virtual state is touched,
// so runs are bit-identical with an observer attached or not.

// emuNumOps is the number of EmuOp values (EmuHLSV is the last).
const emuNumOps = int(EmuHLSV) + 1

// emuOpNames labels each EmuOp for metrics.
var emuOpNames = [emuNumOps]string{
	EmuIllegal: "illegal",
	EmuCSRRW:   "csrrw",
	EmuCSRRS:   "csrrs",
	EmuCSRRC:   "csrrc",
	EmuCSRRWI:  "csrrwi",
	EmuCSRRSI:  "csrrsi",
	EmuCSRRCI:  "csrrci",
	EmuMRET:    "mret",
	EmuSRET:    "sret",
	EmuWFI:     "wfi",
	EmuECALL:   "ecall",
	EmuEBREAK:  "ebreak",
	EmuSFENCE:  "sfence",
	EmuFENCE:   "fence",
	EmuFENCEI:  "fencei",
	EmuLoad:    "load",
	EmuStore:   "store",
	EmuAmo:     "amo",
	EmuHFenceV: "hfence.vvma",
	EmuHFenceG: "hfence.gvma",
	EmuHLSV:    "hlsv",
}

// sbiExtNames labels the SBI extensions the guests exercise; unknown EIDs
// fall back to "other". The table doubles as the precomputed event-name
// source so the per-call paths never build strings.
var sbiExtNames = map[uint64]string{
	rv.SBIExtBase:          "BASE",
	rv.SBIExtTimer:         "TIME",
	rv.SBIExtIPI:           "IPI",
	rv.SBIExtRfence:        "RFNC",
	rv.SBIExtHSM:           "HSM",
	rv.SBIExtReset:         "SRST",
	rv.SBIExtDebug:         "DBCN",
	rv.SBILegacySetTimer:   "legacy-timer",
	rv.SBILegacyConsolePut: "legacy-putchar",
	rv.SBILegacyConsoleGet: "legacy-getchar",
	rv.SBILegacyClearIPI:   "legacy-clear-ipi",
	rv.SBILegacySendIPI:    "legacy-send-ipi",
	rv.SBILegacyShutdown:   "legacy-shutdown",
	rv.SBIExtKeystone:      "keystone",
	rv.SBIExtCoveHost:      "COVH",
	rv.SBIExtCoveGuest:     "COVG",
}

// sbiEventNames precomputes the "sbi:<ext>" instant names.
var sbiEventNames = func() map[uint64]string {
	m := make(map[uint64]string, len(sbiExtNames))
	for eid, n := range sbiExtNames {
		m[eid] = "sbi:" + n
	}
	return m
}()

func sbiExtName(eid uint64) string {
	if n, ok := sbiExtNames[eid]; ok {
		return n
	}
	return "other"
}

// faultEventNames precomputes the "fault:<kind>" instant names.
var faultEventNames = func() map[FaultKind]string {
	m := map[FaultKind]string{}
	for _, k := range []FaultKind{FaultPanic, FaultDoubleFault, FaultWatchdog, FaultLockup, FaultHalt, FaultWallBreach} {
		m[k] = "fault:" + k.String()
	}
	return m
}()

// World span names, precomputed.
var worldSpanNames = [2]string{WorldFirmware: "world:firmware", WorldOS: "world:os"}

// worldTrack returns hart id's world-residency track.
func worldTrack(id int) int32 { return obs.WorldTrackBase + int32(id) }

// tr returns the tracer, or nil when no observer is attached (all tracer
// methods are nil-safe, so call sites stay unconditional).
func (m *Monitor) tr() *obs.Tracer {
	if m.obsv == nil {
		return nil
	}
	return m.obsv.Trace
}

// attachObs wires an observer into the monitor (called from Attach when
// Options.Obs is set): the registry learns a collector over the per-hart
// Stats and SBI/emulation breakdowns, and the firmware-residency
// histogram is created.
func (m *Monitor) attachObs(o *obs.Observer) {
	m.obsv = o
	r := o.Metrics
	if r == nil {
		return
	}
	m.fwResidency = r.Histogram("mon.fw_residency_cycles")
	r.Collect(func(emit func(name string, value uint64)) {
		s := m.TotalStats()
		emit("mon.fw_traps", s.FirmwareTraps)
		emit("mon.os_traps", s.OSTraps)
		emit("mon.emulations", s.Emulations)
		emit("mon.world_switches", s.WorldSwitches)
		emit("mon.wall_probes", s.WallProbes)
		emit("mon.fastpath_hits", s.FastPathHits)
		emit("mon.virt_interrupts", s.VirtInterrupts)
		emit("mon.mmio_emulations", s.MMIOEmulations)
		emit("mon.fw_restarts", s.FirmwareRestarts)
		emit("mon.watchdog_fires", s.WatchdogFires)
		emit("mon.degraded_calls", s.DegradedCalls)
		emit("mon.faults", uint64(m.FaultCount))
		var contained, degraded uint64
		for _, f := range m.Faults {
			if f.Contained {
				contained++
			}
		}
		emit("mon.faults.contained", contained)
		emuByOp := [emuNumOps]uint64{}
		sbiByExt := map[string]uint64{}
		for _, c := range m.Ctx {
			if c.Degraded {
				degraded++
			}
			for op, n := range c.EmuByOp {
				emuByOp[op] += n
			}
			for ext, n := range c.SBIByExt {
				sbiByExt[ext] += n
			}
		}
		emit("mon.degraded_harts", degraded)
		for op, n := range emuByOp {
			if n != 0 {
				emit("mon.emu."+emuOpNames[op], n)
			}
		}
		for ext, n := range sbiByExt {
			emit("mon.sbi."+ext, n)
		}
	})
}

// observeSBI counts an OS SBI call by extension and emits its instant on
// the monitor track (args: EID, FID, a0).
func (m *Monitor) observeSBI(ctx *HartCtx, ext, fn, a0 uint64) {
	if ctx.SBIByExt != nil {
		ctx.SBIByExt[sbiExtName(ext)]++
	}
	t := m.tr()
	if t == nil {
		return
	}
	name, ok := sbiEventNames[ext]
	if !ok {
		name = "sbi:other"
	}
	t.Emit(obs.Event{
		Kind: obs.KInstant, Track: obs.MonitorTrack, TS: ctx.Hart.Cycles,
		Name: name, Args: [4]uint64{ext, fn, a0, 0},
	})
}

// observeWorldSwitch maintains hart's world-residency span and, when the
// firmware world is being left, feeds the residency histogram. Called
// before switchWorld's own bookkeeping so fwEnterCycles still marks the
// entry point of the span being closed.
func (m *Monitor) observeWorldSwitch(ctx *HartCtx, to World) {
	if to == WorldOS && m.fwResidency != nil &&
		ctx.Hart.Cycles >= ctx.fwEnterCycles {
		m.fwResidency.Observe(ctx.Hart.Cycles - ctx.fwEnterCycles)
	}
	t := m.tr()
	if t == nil {
		return
	}
	wt := worldTrack(ctx.Hart.ID)
	t.End(wt, ctx.Hart.Cycles) // orphan at the first switch; exporter drops it
	t.Begin(wt, ctx.Hart.Cycles, worldSpanNames[to])
}

// observeBoot opens the initial firmware world span for every hart.
func (m *Monitor) observeBoot() {
	t := m.tr()
	if t == nil {
		return
	}
	for _, ctx := range m.Ctx {
		t.Instant(obs.MonitorTrack, ctx.Hart.Cycles, "boot")
		t.Begin(worldTrack(ctx.Hart.ID), ctx.Hart.Cycles, worldSpanNames[WorldFirmware])
	}
}

// observeContain emits a containment-outcome instant on the monitor track.
func (m *Monitor) observeContain(ctx *HartCtx, name string) {
	t := m.tr()
	if t == nil {
		return
	}
	t.Instant(obs.MonitorTrack, ctx.Hart.Cycles, name)
}

// observeFault emits a fault instant; recordFault calls it so every
// structured fault shows on the timeline.
func (m *Monitor) observeFault(f *MonitorFault) {
	t := m.tr()
	if t == nil {
		return
	}
	name, ok := faultEventNames[f.Kind]
	if !ok {
		name = "fault:other"
	}
	t.Emit(obs.Event{
		Kind: obs.KInstant, Track: obs.MonitorTrack, TS: f.Cycles,
		Name: name, Args: [4]uint64{uint64(f.Hart), f.PC, 0, 0},
	})
}
