package core

import (
	"govfm/internal/dev/iopmp"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// Virtual IOPMP (paper §4.3): "On platforms with IOPMP support, Miralis
// would virtualize the IOPMP to restrict which memory regions can be
// accessed through DMA by the firmware, similarly to how Miralis restricts
// direct memory accesses through PMP virtualization." The paper's boards
// lacked the hardware; the simulated platform can have one
// (hart.Config.HasIOPMP), and this file implements exactly the design the
// paper sketches:
//
//   - the IOPMP MMIO region is protected with a PMP entry, so firmware
//     accesses trap and are emulated against a *virtual* entry file;
//   - the physical unit is multiplexed like the CPU's PMP (Fig. 5):
//     entry 0 denies DMA into monitor memory, entry 1 carries the
//     policy's DMA rule, the firmware's virtual entries follow at lower
//     priority, and a final allow-all entry keeps legitimate OS DMA
//     working once the unit is enabled;
//   - overhead accrues only on IOPMP modification (each trapped write
//     reinstall), matching the paper's cost claim.

// DMAPolicy is the optional policy extension supplying an IOPMP rule with
// priority over the firmware's virtual entries.
type DMAPolicy interface {
	// PolicyIOPMP returns the policy's DMA rule; a zero rule means none.
	PolicyIOPMP(c *HartCtx) PMPRule
}

// viopmpReserved counts the physical entries the monitor keeps for itself:
// self-protection, the policy rule, and the trailing allow-all.
const viopmpReserved = 3

// VirtIOPMP is the virtual entry file exposed to the firmware.
type VirtIOPMP struct {
	phys *iopmp.IOPMP
	virt *pmp.File

	// Writes counts mediated firmware stores (each one reinstalls the
	// physical unit).
	Writes uint64
}

// NewVirtIOPMP wraps the physical unit.
func NewVirtIOPMP(phys *iopmp.IOPMP) *VirtIOPMP {
	n := phys.NumEntries() - viopmpReserved
	if n < 1 {
		n = 1
	}
	return &VirtIOPMP{phys: phys, virt: pmp.NewFile(n)}
}

// NumVirtEntries returns the number of virtual IOPMP entries.
func (v *VirtIOPMP) NumVirtEntries() int { return v.virt.NumEntries() }

// Virt exposes the virtual file (tests).
func (v *VirtIOPMP) Virt() *pmp.File { return v.virt }

// load reads the virtual register file with the device's layout.
func (v *VirtIOPMP) load(off uint64, size int) (uint64, bool) {
	if size != 8 || off%8 != 0 {
		return 0, false
	}
	switch {
	case off >= iopmp.CfgOff && off < iopmp.CfgOff+uint64(v.virt.NumEntries()):
		return v.virt.CfgReg(int(off-iopmp.CfgOff) / 4), true
	case off >= iopmp.AddrOff && off < iopmp.AddrOff+uint64(8*v.virt.NumEntries()):
		return v.virt.Addr(int(off-iopmp.AddrOff) / 8), true
	}
	return 0, false
}

// store writes the virtual register file.
func (v *VirtIOPMP) store(off uint64, size int, val uint64) bool {
	if size != 8 || off%8 != 0 {
		return false
	}
	v.Writes++
	switch {
	case off >= iopmp.CfgOff && off < iopmp.CfgOff+uint64(v.virt.NumEntries()):
		v.virt.SetCfgReg(int(off-iopmp.CfgOff)/4, val)
		return true
	case off >= iopmp.AddrOff && off < iopmp.AddrOff+uint64(8*v.virt.NumEntries()):
		v.virt.SetAddr(int(off-iopmp.AddrOff)/8, val)
		return true
	}
	return false
}

// installIOPMP programs the physical unit: monitor rule, policy rule,
// virtual entries, allow-all backstop. The unit stays unprogrammed (and
// thus permissive) until either the policy or the firmware wants rules, so
// platforms that never use it pay nothing (§4.3).
func (m *Monitor) installIOPMP(ctx *HartCtx) {
	if m.viopmp == nil {
		return
	}
	f := m.viopmp.phys.File()
	var policyRule PMPRule
	if dp, ok := m.Policy.(DMAPolicy); ok {
		policyRule = dp.PolicyIOPMP(ctx)
	}
	virtActive := false
	for i := 0; i < m.viopmp.virt.NumEntries(); i++ {
		if pmp.AMode(m.viopmp.virt.Cfg(i)) != pmp.AOff {
			virtActive = true
			break
		}
	}
	if policyRule == (PMPRule{}) && !virtActive {
		for i := 0; i < f.NumEntries(); i++ {
			f.ForceCfg(i, 0)
		}
		return
	}
	// Entry 0: no DMA into monitor memory, ever.
	f.ForceAddr(0, pmp.NAPOTAddr(MiralisBase, MiralisSize))
	f.ForceCfg(0, pmp.ANapot<<3)
	// Entry 1: the policy's DMA rule.
	f.ForceAddr(1, policyRule.Addr)
	f.ForceCfg(1, policyRule.Cfg)
	// Firmware's virtual entries.
	for i := 0; i < m.viopmp.virt.NumEntries(); i++ {
		f.ForceAddr(2+i, m.viopmp.virt.Addr(i))
		f.ForceCfg(2+i, m.viopmp.virt.Cfg(i))
	}
	// Backstop: everything not explicitly constrained stays reachable for
	// legitimate OS-driven DMA.
	last := f.NumEntries() - 1
	f.ForceAddr(last, rv.Mask(54))
	f.ForceCfg(last, pmp.CfgR|pmp.CfgW|pmp.ANapot<<3)
	ctx.Hart.ChargeCycles(uint64(f.NumEntries()) * ctx.Hart.Cfg.Cost.PMPWrite)
}
