package core

import (
	"fmt"

	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/rv"
)

// Emulated accesses. The monitor performs a load, store, LR, SC or AMO on
// the firmware's behalf in three cases: a vM-mode access that trapped on a
// virtual device window (the CLINT; the PLIC and the IOPMP when they are
// virtualized, paper §4.3), any access under the virtual MPRV (paper §4.2:
// the monitor "installs the page tables and performs the access on behalf
// of the firmware using MPRV itself"; here the software page-table walk
// makes the equivalence explicit), and a virtual hlv/hlvx/hsv. All three
// take one path. Each side of the access (its read, its write) is resolved
// once: translated when MPRV or hlv/hsv asks for it, through the env the
// hart itself would build (mmu.Env.Set), checked against the virtual PMP at
// the access's effective privilege, and routed by physical address to a
// device's registers or to guest memory behind the protection view. The
// operation then runs once against what lives there.

// target is what lives at an emulated access's physical address.
type target uint8

const (
	targetMem target = iota
	targetClint
	targetPlic
	targetIOPMP
)

// targetAt routes a physical address to a virtual device window or memory.
func targetAt(pa uint64) target {
	switch {
	case pa >= clintBase && pa < clintBase+clintSize:
		return targetClint
	case pa >= plicBase && pa < plicBase+plicSize:
		return targetPlic
	case pa >= iopmpBase && pa < iopmpBase+iopmpSize:
		return targetIOPMP
	}
	return targetMem
}

// emuAccess is one access the monitor performs for the firmware.
type emuAccess struct {
	// ins is the operation: Op is EmuLoad, EmuStore or EmuAmo (its funct5
	// in Raw), with Size, Signed, Rd and Rs2.
	ins EmuInstr
	va  uint64
	// priv and virt are the access's effective privilege and
	// virtualization mode; xlate translates at them (hlvx as for
	// mmu.Env.Set). An access that does not translate is a plain vM-mode
	// access at privilege M.
	priv              rv.Mode
	virt, hlvx, xlate bool
	// walk and each are the MemAccess charges of the page walk and of each
	// memory operation; a device window costs neither.
	walk, each uint64
}

// sides reports what a's operation does: loads and LR read, stores and SC
// write, and a read-modify-write AMO reads then writes.
func (a *emuAccess) sides() (reads, writes bool) {
	f5 := a.ins.Raw >> 27 // an AMO's funct5
	return a.ins.Op == EmuLoad || a.ins.Op == EmuAmo && f5 != rv.AmoSc,
		a.ins.Op == EmuStore || a.ins.Op == EmuAmo && f5 != rv.AmoLr
}

// emulateMemTrap handles a load/store access fault from vM-mode: an access
// to a virtual device window, or any access under the virtual MPRV.
// Returns the next virtual PC and whether the trap was consumed; a plain
// access outside the device windows is not, and the caller's policy switch
// handles it.
func (m *Monitor) emulateMemTrap(ctx *HartCtx, addr, epc uint64) (uint64, bool) {
	h := ctx.Hart
	ins := decode(m.fetchGuestInstr(ctx, epc))
	if ins.Op != EmuLoad && ins.Op != EmuStore && ins.Op != EmuAmo {
		return 0, false
	}
	h.ChargeCycles(h.Cfg.Cost.EmuOp)
	if f5 := ins.Raw >> 27; ins.Op == EmuAmo && f5 != rv.AmoLr && f5 != rv.AmoSc {
		if _, ok := rv.AmoCompute(f5, ins.Size, 0, 0); !ok {
			return 0, false // not an AMO the hart could have executed
		}
	}
	a := emuAccess{ins: ins, va: addr, priv: rv.ModeM}
	if ctx.mprvActive {
		a.priv, a.virt = rv.DataPriv(ctx.V.Mstatus, rv.ModeM, false, h.Cfg.HasH)
	}
	if a.priv != rv.ModeM {
		a.xlate, a.walk, a.each = true, 2, 1
	} else if targetAt(addr) == targetMem {
		return 0, false
	}
	return m.emulateAccess(ctx, &a, epc), true
}

// emulateAccess runs a's operation and returns the next virtual PC. Each
// side is resolved on its own, as the hart's MemAccess calls are. The
// charge comes once the access's last resolve has passed, before its last
// operation; a store kills every hart's reservation on its doubleword, as
// MemAccess does.
func (m *Monitor) emulateAccess(ctx *HartCtx, a *emuAccess, epc uint64) uint64 {
	h := ctx.Hart
	ins := &a.ins
	f5 := ins.Raw >> 27 // an AMO's funct5
	reads, writes := a.sides()
	if a.va%uint64(ins.Size) != 0 && !h.Cfg.HWMisaligned {
		cause := rv.ExcStoreAddrMisaligned
		if reads {
			cause = rv.ExcLoadAddrMisaligned
		}
		return m.injectVirtTrap(ctx, cause, a.va, epc)
	}
	charge := a.walk
	if reads {
		charge += a.each
	}
	if writes {
		charge += a.each
	}
	var old uint64
	if reads {
		pa, t, vpc, ok := m.resolve(ctx, a, mem.Read, epc)
		if !ok {
			return vpc
		}
		if !writes {
			h.ChargeCycles(charge * h.Cfg.Cost.MemAccess)
		}
		if old, ok = m.targetLoad(ctx, t, pa, ins.Size); !ok {
			return m.injectVirtTrap(ctx, rv.ExcLoadAccessFault, a.va, epc)
		}
		if ins.Signed {
			old = rv.SignExtend(old, uint(8*ins.Size))
		}
	}
	if writes {
		pa, t, vpc, ok := m.resolve(ctx, a, mem.Write, epc)
		if !ok {
			return vpc
		}
		h.ChargeCycles(charge * h.Cfg.Cost.MemAccess)
		val := h.Reg(ins.Rs2)
		if reads {
			val, _ = rv.AmoCompute(f5, ins.Size, old, val)
		}
		if !m.targetStore(ctx, t, pa, ins.Size, val) {
			return m.injectVirtTrap(ctx, rv.ExcStoreAccessFault, a.va, epc)
		}
		h.KillReservations(pa)
	}
	if ins.Op == EmuAmo && f5 == rv.AmoLr {
		h.SetReservation(a.va)
	}
	if ins.Op != EmuStore {
		// An SC writes 0: the hart traps only an SC whose reservation was
		// valid, and it consumed the reservation on the way out.
		h.SetReg(ins.Rd, old)
	}
	return epc + 4
}

// resolve translates, checks and routes one side (acc) of a. On a fault it
// injects the virtual trap, or halts per policy, and returns ok=false with
// the next virtual PC.
func (m *Monitor) resolve(ctx *HartCtx, a *emuAccess, acc mem.AccessType, epc uint64) (pa uint64, t target, vpc uint64, ok bool) {
	h, v := ctx.Hart, ctx.V
	pa = a.va
	if a.xlate {
		env := ctx.env.Set(h.Bus, v.PMP, mmu.Regs{
			Satp: v.Satp, Vsatp: v.Vsatp, Hgatp: v.Hgatp,
			Mstatus: v.Mstatus, Vsstatus: v.Vsstatus,
		}, a.priv, a.virt, a.hlvx)
		res := mmu.Translate(env, a.va, acc)
		if !res.OK {
			return 0, 0, m.injectVirtTrapG(ctx, res.Cause, a.va, res.GPA>>2, epc), false
		}
		pa = res.PA
	}
	cause := uint64(rv.ExcLoadAccessFault)
	if acc == mem.Write {
		cause = rv.ExcStoreAccessFault
	}
	// The virtual PMP at the access's privilege: for a plain vM-mode
	// access that is M, so only locked entries bind.
	if !v.PMP.Check(pa, a.ins.Size, acc, a.priv) {
		return 0, 0, m.injectVirtTrap(ctx, cause, a.va, epc), false
	}
	switch t = targetAt(pa); {
	case t == targetPlic && m.vplic == nil, t == targetIOPMP && m.viopmp == nil:
		return 0, 0, m.injectVirtTrap(ctx, cause, a.va, epc), false
	case t == targetMem && ctx.protFile != nil &&
		!ctx.protFile.Check(pa, a.ins.Size, acc, a.priv):
		// The policy PMP and the monitor's wall still bind: the protection
		// view holds them without the trap windows (on hardware the
		// monitor would perform the access with its PMP reconfigured for
		// exactly this).
		if m.Policy.OnFirmwareTrap(ctx, cause, a.va) == ActBlock {
			m.halt(ctx, fmt.Sprintf("policy blocked emulated access to %#x", pa))
			return 0, 0, epc, false
		}
		return 0, 0, m.injectVirtTrap(ctx, cause, a.va, epc), false
	default:
		if reads, _ := a.sides(); t != targetMem && (acc == mem.Read || !reads) {
			ctx.Stats.MMIOEmulations++ // once per access, on its first side
		}
	}
	return pa, t, 0, true
}

// targetLoad reads size bytes at pa from t.
func (m *Monitor) targetLoad(ctx *HartCtx, t target, pa uint64, size int) (uint64, bool) {
	h := ctx.Hart
	switch t {
	case targetClint:
		return m.vclint.Load(h.ID, pa-clintBase, size)
	case targetPlic:
		return m.vplic.Load(h.ID, pa-plicBase, size)
	case targetIOPMP:
		return m.viopmp.load(pa-iopmpBase, size)
	}
	return h.Bus.Load(pa, size)
}

// targetStore writes size bytes at pa to t, with the device's side effect:
// a reprogrammed virtual comparator re-arms the timer interception, a
// PLIC write (a re-route or a completion) re-arms the external one, and an
// IOPMP write reinstalls the physical unit.
func (m *Monitor) targetStore(ctx *HartCtx, t target, pa uint64, size int, val uint64) bool {
	h := ctx.Hart
	switch t {
	case targetClint:
		if !m.vclint.Store(h.ID, pa-clintBase, size, val) {
			return false
		}
		m.unmaskMTimer(ctx)
	case targetPlic:
		if !m.vplic.Store(h.ID, pa-plicBase, size, val) {
			return false
		}
		h.CSR.Mie |= 1 << rv.IntMExt
	case targetIOPMP:
		if !m.viopmp.store(pa-iopmpBase, size, val) {
			return false
		}
		m.installIOPMP(ctx)
	default:
		return h.Bus.Store(pa, size, val)
	}
	return true
}
