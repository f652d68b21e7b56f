package core

// Monitor forking: the monitor half of the cheap-fork contract. A machine
// image (hart.Image) carries only architectural state; a monitored system
// also has host-side monitor state — virtual CSR files, virtual device
// registers, world/containment bookkeeping — that must travel with a fork
// for the child to continue bit-identically. Monitor.Fork deep-copies all
// of it onto a child machine spawned from the parent's image.

import (
	"fmt"

	"govfm/internal/hart"
	"govfm/internal/obs"
)

// PolicyForker is implemented by stateful policies that know how to clone
// themselves for a forked monitor. The stateless BasePolicy needs no
// clone; any other policy must implement this for Monitor.Fork to accept
// it, because sharing mutable policy state between a parent and a child
// that run concurrently would be a data race.
type PolicyForker interface {
	// ForkPolicy returns an independent copy of the policy's state.
	ForkPolicy() Policy
}

// clone deep-copies a virtual CSR file, including the custom-CSR map and
// the virtual PMP file.
func (v *VirtCSRs) clone() *VirtCSRs {
	nv := *v
	if v.Custom != nil {
		nv.Custom = make(map[uint16]uint64, len(v.Custom))
		for k, val := range v.Custom {
			nv.Custom[k] = val
		}
	}
	if v.PMP != nil {
		nv.PMP = v.PMP.Clone()
	}
	return &nv
}

// forkOnto copies the virtual CLINT's register state over a child
// machine's physical CLINT.
func (v *VirtClint) forkOnto(m *hart.Machine) *VirtClint {
	return &VirtClint{
		phys:       m.Clint,
		vmtimecmp:  append([]uint64(nil), v.vmtimecmp...),
		vmsip:      append([]uint32(nil), v.vmsip...),
		osDeadline: append([]uint64(nil), v.osDeadline...),
		ipiReason:  append([]uint32(nil), v.ipiReason...),
	}
}

// forkOnto copies the virtual PLIC's mediation state over a child
// machine's physical PLIC.
func (v *VirtPlic) forkOnto(m *hart.Machine) *VirtPlic {
	return &VirtPlic{phys: m.Plic, harts: v.harts, Writes: v.Writes, Loads: v.Loads}
}

// forkOnto copies the virtual IOPMP entry file over a child machine's
// physical unit.
func (v *VirtIOPMP) forkOnto(m *hart.Machine) *VirtIOPMP {
	return &VirtIOPMP{phys: m.IOPMP, virt: v.virt.Clone(), Writes: v.Writes}
}

// forkOnto deep-copies one hart's monitor context onto the matching child
// hart.
func (c *HartCtx) forkOnto(nm *Monitor, h *hart.Hart) *HartCtx {
	nc := &HartCtx{
		Mon:              nm,
		Hart:             h,
		V:                c.V.clone(),
		VirtMode:         c.VirtMode,
		VirtV:            c.VirtV,
		VirtWaiting:      c.VirtWaiting,
		Stats:            c.Stats,
		mprvActive:       c.mprvActive,
		vTrapDepth:       c.vTrapDepth,
		Degraded:         c.Degraded,
		osLive:           c.osLive,
		osEntry:          c.osEntry,
		fwEnterCycles:    c.fwEnterCycles,
		lastOSInstret:    c.lastOSInstret,
		osProgressCycles: c.osProgressCycles,
		EmuByOp:          c.EmuByOp,
		SBIByExt:         make(map[string]uint64, len(c.SBIByExt)),
	}
	for k, v := range c.SBIByExt {
		nc.SBIByExt[k] = v
	}
	if c.protFile != nil {
		nc.protFile = c.protFile.Clone()
	}
	// The child's PMP file comes from the parent's image and shares its
	// intern table, so the parent's wall verdicts hold for it; under any
	// other table they vouch for nothing.
	nc.wall = c.wall
	if c.resumeOverride != nil {
		pc := *c.resumeOverride
		nc.resumeOverride = &pc
	}
	if c.pendingSBI != nil {
		call := *c.pendingSBI
		nc.pendingSBI = &call
	}
	return nc
}

// Fork clones this monitor onto child, a machine spawned from an image of
// m.Machine (Machine.Fork / hart.SpawnFromImage with the same shape). The
// child monitor gets deep copies of every virtual CSR file, virtual
// device, and per-hart context, so parent and child may run concurrently
// and diverge freely afterwards.
//
// Host-side hooks deliberately do not travel, mirroring hart.Image's
// contract: the child's Opts carry no Obs and no Trace/divergence
// callbacks (attach an observer with AttachObs, set callbacks on the
// returned monitor's Opts before running). The policy must be the
// stateless BasePolicy or implement PolicyForker.
func (m *Monitor) Fork(child *hart.Machine) (*Monitor, error) {
	if len(child.Harts) != len(m.Machine.Harts) {
		return nil, fmt.Errorf("core: fork onto a %d-hart machine, monitor has %d harts",
			len(child.Harts), len(m.Machine.Harts))
	}
	if m.viopmp != nil && child.IOPMP == nil {
		return nil, fmt.Errorf("core: fork of an IOPMP-virtualizing monitor onto a machine without an IOPMP")
	}
	pol := m.Policy
	switch p := pol.(type) {
	case BasePolicy:
		// Stateless: safe to share.
	case PolicyForker:
		pol = p.ForkPolicy()
	default:
		return nil, fmt.Errorf("core: policy %q holds state and does not implement PolicyForker", pol.Name())
	}

	opts := m.Opts
	opts.Policy = pol
	opts.Obs = nil
	opts.OnEmulate = nil
	opts.OnVirtTrap = nil
	opts.OnWorldSwitch = nil

	nm := &Monitor{
		Machine:      child,
		Opts:         opts,
		Policy:       pol,
		vclint:       m.vclint.forkOnto(child),
		HaltedReason: m.HaltedReason,
		Faults:       append([]*MonitorFault(nil), m.Faults...),
		FaultCount:   m.FaultCount,
		forceOffload: m.forceOffload,
		bootFW:       m.bootFW, // immutable after Boot: shared
		bootSnaps:    m.bootSnaps,
	}
	if m.vplic != nil {
		nm.vplic = m.vplic.forkOnto(child)
	}
	if m.viopmp != nil {
		nm.viopmp = m.viopmp.forkOnto(child)
	}
	for i, c := range m.Ctx {
		nc := c.forkOnto(nm, child.Harts[i])
		nm.Ctx = append(nm.Ctx, nc)
		child.Harts[i].Monitor = &hartMonitor{mon: nm, ctx: nc}
		if m.Opts.Containment && c.Hart.Watchdog != nil {
			child.Harts[i].Watchdog = nm.watchdogHook(nc)
		}
	}
	return nm, nil
}

// AttachObs attaches an observer to the monitor after the fact — a forked
// monitor deliberately does not inherit its parent's observer, since
// metric collectors register against a specific machine's timeline.
func (m *Monitor) AttachObs(o *obs.Observer) {
	m.Opts.Obs = o
	m.attachObs(o)
}
