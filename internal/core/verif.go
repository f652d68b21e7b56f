package core

import "govfm/internal/rv"

// Verification entry points (paper §6): internal/verif drives the
// emulation and PMP-installation subsystems directly through these
// wrappers, comparing every transition against the reference model. They
// exist so the verified surface is exactly the production code paths, not
// test doubles.

// VerifEmulate runs the instruction emulator on the current virtual state
// exactly as a trap from vM-mode would, returning the next virtual PC.
func (m *Monitor) VerifEmulate(ctx *HartCtx, raw uint32, epc uint64) uint64 {
	return m.emulate(ctx, raw, epc)
}

// VerifInjectTrap performs virtual trap entry (the re-injection path).
func (m *Monitor) VerifInjectTrap(ctx *HartCtx, cause, tval, epc uint64) uint64 {
	return m.injectVirtTrap(ctx, cause, tval, epc)
}

// VerifCheckVirtInterrupt runs the post-trap virtual interrupt check.
func (m *Monitor) VerifCheckVirtInterrupt(ctx *HartCtx, vpc uint64) uint64 {
	return m.checkVirtInterrupt(ctx, vpc)
}

// VerifInstallPMP recomputes the physical PMP file for the given world —
// the cfg function of the faithful-execution criterion.
func (m *Monitor) VerifInstallPMP(ctx *HartCtx, w World) {
	m.installPMP(ctx, w)
}

// VClint exposes the virtual CLINT for state setup in verification.
func (m *Monitor) VClint() *VirtClint { return m.vclint }

// ProtectedRegions returns the physical ranges the monitor reserves for
// itself and its virtual devices; faithful execution requires accesses to
// them to fault in every non-monitor context.
func ProtectedRegions() [][2]uint64 {
	return [][2]uint64{
		{MiralisBase, MiralisBase + MiralisSize},
		{clintBase, clintBase + clintSize},
	}
}

// VerifWorldSwitch drives the world-switch CSR save/install path directly.
func (m *Monitor) VerifWorldSwitch(ctx *HartCtx, to World) {
	m.switchWorld(ctx, to)
}

// ReinstallPMP reprograms the physical PMP file for ctx's current world;
// policies call it when their rules change outside a world switch.
func (m *Monitor) ReinstallPMP(ctx *HartCtx) { m.installPMP(ctx, ctx.World()) }

// ReinstallIOPMP reprograms the physical IOPMP (no-op when the platform
// has none or it is not virtualized); policies call it when their DMA rule
// changes.
func (m *Monitor) ReinstallIOPMP(ctx *HartCtx) { m.installIOPMP(ctx) }

// VerifSyncVirtState refreshes the virtual CSR file from the physical hart
// when the hart is executing in the OS world, exactly as the world-switch
// save path would. At a step boundary the copy is idempotent, so
// differential harnesses may call it after every retired instruction to
// obtain the architectural virtual CSRs. It charges no cycles (only a
// world switch or containment pays for the transfer), so inspecting the
// hart does not advance its clock. It leaves the virtual mode alone: only
// trap entry resynchronizes that from the physical hart.
func (m *Monitor) VerifSyncVirtState(ctx *HartCtx) {
	if ctx.World() == WorldOS {
		m.saveOSState(ctx)
	}
}

// VerifInstallState reinstalls the physical CSRs and PMP file for ctx's
// current world, propagating virtual state that a harness wrote directly
// into ctx.V onto the physical hart.
func (m *Monitor) VerifInstallState(ctx *HartCtx) {
	w := ctx.World()
	m.installPhysCSRs(ctx, w)
	m.installPMP(ctx, w)
}

// ResetVirt rewinds ctx's virtual hart to its power-on state: fresh
// virtual CSRs, vM-mode, no pending virtual-device state. Differential
// harnesses use it between test cases; Boot does not reset this state.
func (m *Monitor) ResetVirt(ctx *HartCtx) {
	ctx.V = newVirtCSRs(m.NumVirtPMP())
	if ctx.Hart.Cfg.HasH {
		ctx.V.enableH()
	}
	ctx.VirtMode = rv.ModeM
	ctx.VirtV = false
	ctx.VirtWaiting = false
	ctx.Stats = Stats{}
	ctx.mprvActive = false
	ctx.resumeOverride = nil
	ctx.vTrapDepth = 0
	ctx.Degraded = false
	ctx.osLive = false
	ctx.osEntry = osResume{}
	ctx.pendingSBI = nil
	ctx.fwEnterCycles = ctx.Hart.Cycles
	ctx.lastOSInstret = ctx.Hart.Instret
	ctx.osProgressCycles = ctx.Hart.Cycles
	m.vclint.Reset(ctx.Hart.ID)
	m.HaltedReason = ""
	m.Faults = nil
	m.FaultCount = 0
}

// EmulateMisaligned performs the monitor's misaligned load/store emulation
// on behalf of a policy (paper §5.2: the sandbox policy implements
// misaligned emulation directly instead of letting the confined firmware
// reach through OS memory). Returns the resume PC and whether the trap was
// handled.
func (m *Monitor) EmulateMisaligned(ctx *HartCtx, code, tval, epc uint64) (uint64, bool) {
	return m.fastPathMisaligned(ctx, code, tval, epc)
}
