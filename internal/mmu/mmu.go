// Package mmu implements Sv39 virtual-address translation for the simulated
// hart: the three-level page-table walk, permission checks (including SUM,
// MXR, and the U bit), hardware A/D-bit update, and superpage alignment
// rules. Page-table accesses are themselves checked against PMP, as the
// privileged spec requires.
package mmu

import (
	"govfm/internal/mem"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// PTE bits.
const (
	PteV = 1 << 0
	PteR = 1 << 1
	PteW = 1 << 2
	PteX = 1 << 3
	PteU = 1 << 4
	PteG = 1 << 5
	PteA = 1 << 6
	PteD = 1 << 7
)

// PageSize is the base page size.
const PageSize = 4096

// Result of a translation attempt.
type Result struct {
	PA    uint64 // physical address; valid when Cause == 0 and OK
	Cause uint64 // exception cause on failure
	OK    bool

	// GPA is the faulting guest-physical address when Cause is one of the
	// guest-page-fault codes; trap entry writes GPA>>2 into htval/mtval2.
	GPA uint64

	// Walk records the physical address of each PTE read during the walk
	// (root first; under two-stage translation, both stages' PTEs). A TLB
	// caching this translation watches the pages these live on so software
	// page-table edits invalidate the cached entry. Two-stage walks read at
	// most 3 VS-stage PTEs, each G-translated through up to 3 G-stage PTEs,
	// plus 3 for the final G-stage walk: 15 total.
	Walk    [15]uint64
	WalkLen int
}

func fault(acc mem.AccessType, pageFault bool) Result {
	var cause uint64
	switch acc {
	case mem.Read:
		cause = rv.ExcLoadAccessFault
		if pageFault {
			cause = rv.ExcLoadPageFault
		}
	case mem.Write:
		cause = rv.ExcStoreAccessFault
		if pageFault {
			cause = rv.ExcStorePageFault
		}
	case mem.Exec:
		cause = rv.ExcInstrAccessFault
		if pageFault {
			cause = rv.ExcInstrPageFault
		}
	}
	return Result{Cause: cause}
}

// Env carries the translation-relevant machine state. Set fills it for an
// access; tests may build one by hand.
type Env struct {
	Bus  *mem.Bus // PTE reads and A/D updates
	PMP  *pmp.File
	Satp uint64
	Priv rv.Mode // effective privilege of the access (after MPRV)
	SUM  bool
	MXR  bool

	// Two-stage translation state (hypervisor extension). When V is set,
	// Vsatp is the VS-stage root, Hgatp the G-stage root, and Priv is the
	// guest privilege (VS for ModeS, VU for ModeU). HLVX makes the VS-stage
	// check execute permission in place of read (hlvx.hu/wu).
	V     bool
	Vsatp uint64
	Hgatp uint64
	HLVX  bool
}

// Regs holds the CSR values translation reads: the three roots, and the
// status registers whose SUM and MXR bits apply (mstatus at V=0, vsstatus
// at V=1).
type Regs struct {
	Satp, Vsatp, Hgatp uint64
	Mstatus, Vsstatus  uint64
}

// Set fills e for an access at (priv, virt) over r, walking bus and
// checking the walk's own accesses against p, and returns e. hlvx is the
// hlvx.hu/wu variant of a V=1 load. The hart and the monitor both build
// their envs here, so an access the monitor performs for the firmware is
// translated exactly as the hart would translate it.
func (e *Env) Set(bus *mem.Bus, p *pmp.File, r Regs, priv rv.Mode, virt, hlvx bool) *Env {
	status := r.Mstatus
	if virt {
		status = r.Vsstatus
	}
	*e = Env{
		Bus: bus, PMP: p, Satp: r.Satp, Priv: priv,
		SUM: rv.Bit(status, rv.MstatusSUM) != 0,
		MXR: rv.Bit(status, rv.MstatusMXR) != 0,
		V:   virt, Vsatp: r.Vsatp, Hgatp: r.Hgatp, HLVX: hlvx,
	}
	return e
}

// Active reports whether an access at (priv, virt) translates: its
// privilege is below M, and satp selects Sv39 or, at V=1, vsatp selects
// Sv39 or hgatp Sv39x4.
func Active(priv rv.Mode, virt bool, satp, vsatp, hgatp uint64) bool {
	if priv == rv.ModeM {
		return false
	}
	if virt {
		return vsatp>>60 == rv.SatpModeSv39 || hgatp>>60 == rv.HgatpModeSv39x4
	}
	return satp>>60 == rv.SatpModeSv39
}

// gFault builds a guest-page-fault result for the original access type.
func gFault(acc mem.AccessType, gpa uint64) Result {
	var cause uint64
	switch acc {
	case mem.Read:
		cause = rv.ExcLoadGuestPageFault
	case mem.Write:
		cause = rv.ExcStoreGuestPageFault
	case mem.Exec:
		cause = rv.ExcInstrGuestPageFault
	}
	return Result{Cause: cause, GPA: gpa}
}

// gTranslate maps a guest-physical address through the G-stage (hgatp,
// Sv39x4: a 16KiB root table indexed by an 11-bit VPN[2]). G-stage leaves
// must be user pages (the guest access is treated as user-level), and the
// walker updates A/D bits like the VS stage. acc is the ORIGINAL access
// type: implicit VS-stage PTE reads that fault at the G-stage report a
// guest page fault matching the original access, as the spec requires.
// write selects the permission actually needed from the leaf.
func gTranslate(e *Env, res *Result, gpa uint64, acc mem.AccessType, write bool) (uint64, Result) {
	if rv.SatpMode(e.Hgatp) != rv.HgatpModeSv39x4 {
		return gpa, Result{OK: true}
	}
	// Sv39x4 widens the address space to 41 bits; higher bits must be zero.
	if gpa>>41 != 0 {
		return 0, gFault(acc, gpa)
	}
	a := rv.SatpPPN(e.Hgatp) &^ 3 * PageSize // 16KiB-aligned root
	for level := 2; level >= 0; level-- {
		hi := uint(12 + 9*level + 8)
		if level == 2 {
			hi += 2 // the root level absorbs the two extra address bits
		}
		vpn := rv.Bits(gpa, hi, uint(12+9*level))
		pteAddr := a + vpn*8
		if res.WalkLen < len(res.Walk) {
			res.Walk[res.WalkLen] = pteAddr
			res.WalkLen++
		}
		if !e.PMP.Check(pteAddr, 8, mem.Read, rv.ModeS) {
			return 0, fault(acc, false)
		}
		pte, ok := e.Bus.Load(pteAddr, 8)
		if !ok {
			return 0, fault(acc, false)
		}
		if pte&PteV == 0 || (pte&PteR == 0 && pte&PteW != 0) {
			return 0, gFault(acc, gpa)
		}
		if pte&(PteR|PteX) == 0 {
			a = rv.Bits(pte, 53, 10) * PageSize
			continue
		}
		// G-stage leaf: the guest access behaves as user-level.
		if pte&PteU == 0 {
			return 0, gFault(acc, gpa)
		}
		need := uint64(PteR)
		if write {
			need = PteW
		}
		if pte&need == 0 {
			return 0, gFault(acc, gpa)
		}
		ppn := rv.Bits(pte, 53, 10)
		if level > 0 && ppn&rv.Mask(uint(9*level)) != 0 {
			return 0, gFault(acc, gpa)
		}
		newPte := pte | PteA
		if write {
			newPte |= PteD
		}
		if newPte != pte {
			if !e.PMP.Check(pteAddr, 8, mem.Write, rv.ModeS) {
				return 0, fault(acc, false)
			}
			if !e.Bus.Store(pteAddr, 8, newPte) {
				return 0, fault(acc, false)
			}
		}
		pageMask := rv.Mask(uint(12 + 9*level))
		return ppn*PageSize&^pageMask | gpa&pageMask, Result{OK: true}
	}
	return 0, gFault(acc, gpa)
}

// Translate maps virtual address va for an access of the given type.
// When translation is not active the address passes through unchanged
// (PMP checking of the final access is the caller's job in both cases).
// With Env.V set this is the composed two-stage walk: VS-stage PTE
// addresses are guest-physical and are themselves G-translated.
func Translate(e *Env, va uint64, acc mem.AccessType) Result {
	if !Active(e.Priv, e.V, e.Satp, e.Vsatp, e.Hgatp) {
		return Result{PA: va, OK: true}
	}
	root := e.Satp
	if e.V {
		root = e.Vsatp
	}
	res := Result{}
	// HLVX checks execute permission at the VS-stage leaf in place of read,
	// but reported faults keep the original (load) access type.
	vsAcc := acc
	if e.HLVX {
		vsAcc = mem.Exec
	}
	if e.V && rv.SatpMode(root) != rv.SatpModeSv39 {
		// VS-stage Bare: the virtual address IS the guest-physical address.
		pa, g := gTranslate(e, &res, va, acc, acc == mem.Write)
		if !g.OK {
			g.Walk, g.WalkLen = res.Walk, res.WalkLen
			return g
		}
		res.PA, res.OK = pa, true
		return res
	}
	// Sv39 canonical check: bits 63:39 must equal bit 38.
	if rv.SignExtend(va, 39) != va {
		return fault(acc, true)
	}
	a := rv.SatpPPN(root) * PageSize
	for level := 2; level >= 0; level-- {
		vpn := rv.Bits(va, uint(12+9*level+8), uint(12+9*level))
		pteAddr := a + vpn*8
		if e.V {
			// The VS-stage PTE address is guest-physical.
			pa, g := gTranslate(e, &res, pteAddr, acc, false)
			if !g.OK {
				g.Walk, g.WalkLen = res.Walk, res.WalkLen
				return g
			}
			pteAddr = pa
		}
		if res.WalkLen < len(res.Walk) {
			res.Walk[res.WalkLen] = pteAddr
			res.WalkLen++
		}
		// The walker's implicit accesses are checked against PMP with
		// effective privilege S.
		if !e.PMP.Check(pteAddr, 8, mem.Read, rv.ModeS) {
			return fault(acc, false)
		}
		pte, ok := e.Bus.Load(pteAddr, 8)
		if !ok {
			return fault(acc, false)
		}
		if pte&PteV == 0 || (pte&PteR == 0 && pte&PteW != 0) {
			return fault(acc, true)
		}
		if pte&(PteR|PteX) == 0 {
			// Pointer to next level.
			a = rv.Bits(pte, 53, 10) * PageSize
			continue
		}
		// Leaf PTE.
		if !leafPermits(pte, vsAcc, e.Priv, e.SUM, e.MXR) {
			return fault(acc, true)
		}
		ppn := rv.Bits(pte, 53, 10)
		// Superpage alignment: low PPN fields must be zero.
		if level > 0 && ppn&rv.Mask(uint(9*level)) != 0 {
			return fault(acc, true)
		}
		// Hardware A/D update (Svadu-style behaviour). Under two-stage
		// translation the PTE store needs G-stage write permission.
		newPte := pte | PteA
		if acc == mem.Write {
			newPte |= PteD
		}
		if newPte != pte {
			wAddr := pteAddr
			if e.V {
				gpaPte := a + vpn*8
				pa, g := gTranslate(e, &res, gpaPte, acc, true)
				if !g.OK {
					g.Walk, g.WalkLen = res.Walk, res.WalkLen
					return g
				}
				wAddr = pa
			}
			if !e.PMP.Check(wAddr, 8, mem.Write, rv.ModeS) {
				return fault(acc, false)
			}
			if !e.Bus.Store(wAddr, 8, newPte) {
				return fault(acc, false)
			}
		}
		pageMask := rv.Mask(uint(12 + 9*level))
		gpa := ppn*PageSize&^pageMask | va&pageMask
		if e.V {
			pa, g := gTranslate(e, &res, gpa, acc, acc == mem.Write)
			if !g.OK {
				g.Walk, g.WalkLen = res.Walk, res.WalkLen
				return g
			}
			res.PA, res.OK = pa, true
			return res
		}
		res.PA, res.OK = gpa, true
		return res
	}
	// All three levels were pointers: malformed tree.
	return fault(acc, true)
}

func leafPermits(pte uint64, acc mem.AccessType, priv rv.Mode, sum, mxr bool) bool {
	userPage := pte&PteU != 0
	switch priv {
	case rv.ModeU:
		if !userPage {
			return false
		}
	case rv.ModeS:
		if userPage {
			// S-mode may touch user data only with SUM, and never execute it.
			if acc == mem.Exec || !sum {
				return false
			}
		}
	}
	switch acc {
	case mem.Read:
		return pte&PteR != 0 || (mxr && pte&PteX != 0)
	case mem.Write:
		return pte&PteW != 0
	case mem.Exec:
		return pte&PteX != 0
	}
	return false
}
