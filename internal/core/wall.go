package core

import (
	"fmt"
	"hash/fnv"

	"govfm/internal/mem"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// The Dorami wall (PAPERS.md, "Privilege Separating Security Monitor on
// RISC-V TEEs"): the monitor's own memory — fault ring, boot snapshots,
// vPMP shadow, everything in [MiralisBase, MiralisBase+MiralisSize) — is
// covered by a LOCKED zero-permission PMP entry. A locked entry binds
// M-mode too, so even a hosted firmware that somehow reached physical
// M-mode privileges could not read or corrupt monitor state; only the
// monitor's own Force* reprogramming path (the hardware reset analogue)
// can touch the entry. After every world switch the monitor re-checks the
// entry's fields on the live PMP file, and probes its verdicts once per
// PMP view (see checkWallAfterSwitch); a breach means the monitor can no
// longer trust its own state and the machine is halted.

// wallCfg is the exact cfg byte the wall entry must hold: locked, NAPOT
// address matching, no permissions.
const wallCfg = pmp.CfgL | pmp.ANapot<<3

// CheckWall asserts the Dorami-wall invariant on one hart's physical PMP
// file: the self-protection entry is present, locked, correctly sized,
// and actually denies access to monitor memory in every simulated mode.
// Returns nil when the wall holds. It always runs the full behavioural
// probe; the world-switch path runs it once per view.
func (m *Monitor) CheckWall(ctx *HartCtx) error {
	phys := ctx.Hart.CSR.PMP
	if err := wallFields(phys); err != nil {
		return err
	}
	return wallProbe(phys)
}

// wallFields checks the wall entry's cfg and address.
func wallFields(phys *pmp.File) error {
	if phys.NumEntries() <= pmpSelf {
		return fmt.Errorf("wall: PMP file has no entry %d", pmpSelf)
	}
	if cfg := phys.Cfg(pmpSelf); cfg != wallCfg {
		return fmt.Errorf("wall: entry %d cfg=%#x, want %#x (locked NAPOT, no perms)",
			pmpSelf, cfg, wallCfg)
	}
	if addr := phys.Addr(pmpSelf); addr != pmp.NAPOTAddr(MiralisBase, MiralisSize) {
		return fmt.Errorf("wall: entry %d addr=%#x, want %#x (Miralis region)",
			pmpSelf, addr, pmp.NAPOTAddr(MiralisBase, MiralisSize))
	}
	return nil
}

// wallProbe is the behavioural probe: the cfg/addr fields could be right
// while a higher-priority artifact still grants access, so it asks the
// file for actual verdicts at the region's edges and middle. A locked
// match constrains every mode, M included. The verdicts depend on the
// file's contents alone.
func wallProbe(phys *pmp.File) error {
	for _, addr := range []uint64{
		MiralisBase,
		MiralisBase + MiralisSize/2,
		MiralisBase + MiralisSize - 8,
	} {
		for _, acc := range []mem.AccessType{mem.Read, mem.Write, mem.Exec} {
			for _, mode := range []rv.Mode{rv.ModeU, rv.ModeS, rv.ModeM} {
				if phys.Check(addr, 8, acc, mode) {
					return fmt.Errorf("wall: %v %v allowed at %#x", mode, acc, addr)
				}
			}
		}
	}
	return nil
}

// wallVerdicts is the set of PMP views on which a hart's wall probe
// passed. A view ID names contents only within the intern table that
// issued it, so the set holds that table and vouches for nothing under
// another. It is indexed from the table's first live ID (pmp.Views.First)
// and vouches for nothing once the table has been cleared since, so it
// never holds more than pmp.ViewCap bits.
type wallVerdicts struct {
	views *pmp.Views
	first uint64                   // views.First when the set was started
	ok    [pmp.ViewCap / 64]uint64 // bit id-first set: the probe passed on view id
}

// vouches reports whether the probe passed on view id of views.
func (w *wallVerdicts) vouches(views *pmp.Views, id uint64) bool {
	if w.views != views || w.first != views.First() || id < w.first || id-w.first >= pmp.ViewCap {
		return false
	}
	i := id - w.first
	return w.ok[i>>6]&(1<<(i&63)) != 0
}

// add records a passing probe on view id of views.
func (w *wallVerdicts) add(views *pmp.Views, id uint64) {
	if first := views.First(); w.views != views || w.first != first {
		*w = wallVerdicts{views: views, first: first}
	}
	if id < w.first || id-w.first >= pmp.ViewCap {
		return // issued before a clear that has happened since
	}
	i := id - w.first
	w.ok[i>>6] |= 1 << (i & 63)
}

// MonitorStateHash fingerprints the monitor state the Dorami wall
// protects: the boot firmware image copy and the per-hart boot snapshots
// containment restarts from. Nothing the hosted firmware or OS does may
// ever change this value; the chaos campaign's TEE deck compares it before and
// after every fault sweep. (The fault ring is deliberately excluded — it
// legitimately grows as faults are recorded.)
func (m *Monitor) MonitorStateHash() uint64 {
	fh := fnv.New64a()
	fh.Write(m.bootFW)
	for _, s := range m.bootSnaps {
		if s == nil {
			continue
		}
		fmt.Fprintf(fh, "%v %v %v %v %v %v %v %v",
			s.Regs, s.PC, s.Mode, s.CSR.Mstatus, s.CSR.Mtvec, s.CSR.Mepc,
			s.CSR.Medeleg, s.CSR.Satp)
		for i := 0; i < s.CSR.PMP.NumEntries(); i++ {
			fmt.Fprintf(fh, ";%d:%x:%x", i, s.CSR.PMP.Cfg(i), s.CSR.PMP.Addr(i))
		}
	}
	return fh.Sum64()
}

// checkWallAfterSwitch runs the wall invariant on the world-switch path:
// the entry's fields on every switch, and the behavioural probe on a view
// the hart's verdicts do not vouch for yet. A passing check bumps the
// per-hart counter (campaigns assert WallChecks == WorldSwitches); a
// failing one records a FaultWallBreach and halts the machine.
func (m *Monitor) checkWallAfterSwitch(ctx *HartCtx) {
	phys := ctx.Hart.CSR.PMP
	err := wallFields(phys)
	if views, id := phys.Views(), phys.View(); err == nil && !ctx.wall.vouches(views, id) {
		ctx.Stats.WallProbes++
		if err = wallProbe(phys); err == nil {
			ctx.wall.add(views, id)
		}
	}
	if err != nil {
		f := m.newFault(ctx, FaultWallBreach, err.Error())
		m.recordFault(f)
		m.halt(ctx, "monitor wall breached: "+err.Error())
		return
	}
	ctx.Stats.WallChecks++
}
