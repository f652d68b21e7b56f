package core

import (
	"govfm/internal/dev/plic"
	"govfm/internal/rv"
)

// VirtPlic is the experimental virtual PLIC (paper §4.3): the PLIC MMIO
// region is protected with a PMP entry so firmware accesses trap, the
// monitor mediates them, and M-mode external interrupts are intercepted
// and re-injected into vM-mode.
//
// The mediation model follows §3.3's access-control taxonomy: the firmware
// programs real interrupt routing (priorities, its machine-context enables
// and thresholds, claim/complete are forwarded so devices actually work),
// but the monitor observes everything, can filter, and owns the physical
// MEIP delivery: the hardware line always vectors to the monitor, which
// re-injects a virtual machine-external interrupt when the virtual state
// allows.
type VirtPlic struct {
	phys  *plic.Plic
	harts int

	// Writes/Loads count mediated firmware accesses (tracing/tests).
	Writes uint64
	Loads  uint64
}

// NewVirtPlic wraps the physical controller.
func NewVirtPlic(phys *plic.Plic, harts int) *VirtPlic {
	return &VirtPlic{phys: phys, harts: harts}
}

// VirtPending returns the virtual mip contribution (vMEIP) for hart: the
// physical machine-context line, re-exposed virtually.
func (v *VirtPlic) VirtPending(hartID int) uint64 {
	return v.phys.Pending(hartID) & (1 << rv.IntMExt)
}

// Load mediates a firmware read of the PLIC region.
func (v *VirtPlic) Load(hartID int, off uint64, size int) (uint64, bool) {
	v.Loads++
	return v.phys.Load(off, size)
}

// Store mediates a firmware write of the PLIC region. Writes are forwarded
// — the firmware legitimately configures interrupt routing — except writes
// to *other* harts' machine contexts, which a confined firmware has no
// business touching on behalf of this hart.
func (v *VirtPlic) Store(hartID int, off uint64, size int, val uint64) bool {
	v.Writes++
	foreignMCtx := func(ctx int) bool { return ctx%2 == 0 && ctx/2 != hartID }
	switch {
	case off >= plic.ContextOff:
		if foreignMCtx(int((off - plic.ContextOff) / plic.ContextSize)) {
			// Filtered: accepted and ignored (paper §3.3).
			return true
		}
	case off >= plic.EnableOff:
		if foreignMCtx(int((off - plic.EnableOff) / 0x80)) {
			return true
		}
	}
	return v.phys.Store(off, size, val)
}
