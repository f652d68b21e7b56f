package fuzz

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"govfm/internal/asm"
	"govfm/internal/hart"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// Shared plumbing of the machine-level comparisons: the
// machine-equivalence harness (machequiv.go) and the lockstep fuzzer's
// interpreter twin (fuzz.go). A harness case confines each hart by locked
// PMP to the program window and the scratch window, starts it from a
// generated hartInit, and compares finished machines with diffMachines.

// closedGenCSRs is the CSR surface generated programs may touch. All of it
// is hart-local plumbing; interrupt-pending and translation CSRs stay off
// the list, so a case stays a closed system.
var closedGenCSRs = []asm.GenCSR{
	{CSR: rv.CSRMscratch, Forms: asm.FormsAll},
	{CSR: rv.CSRSscratch, Forms: asm.FormsAll},
	{CSR: rv.CSRMtvec, Forms: asm.FormsAll},
	{CSR: rv.CSRStvec, Forms: asm.FormsAll},
	{CSR: rv.CSRMepc, Forms: asm.FormsAll},
	{CSR: rv.CSRSepc, Forms: asm.FormsAll},
	{CSR: rv.CSRMcause, Forms: asm.FormsAll},
	{CSR: rv.CSRScause, Forms: asm.FormsAll},
	{CSR: rv.CSRMtval, Forms: asm.FormsAll},
	{CSR: rv.CSRStval, Forms: asm.FormsAll},
	{CSR: rv.CSRMie, Forms: asm.FormsAll},
	{CSR: rv.CSRMedeleg, Forms: asm.FormsAll},
	{CSR: rv.CSRMstatus, Forms: asm.FormsImm},
	{CSR: rv.CSRMhartid, Forms: asm.FormsRead},
}

// edgePage is the page just above the scratch window. It lies outside
// the confinement, so only an unlocked PMP entry ahead of it (a churn
// case's entry 0, machequiv.go) can grant any of it.
const edgePage = ScratchBase + ScratchSize

// caseWindows are the program and scratch windows and the edge page,
// {base, size}: the memory a case can write, and so the memory
// diffMachines compares.
var caseWindows = [][2]uint64{{ProgBase, ProgCap}, {ScratchBase, ScratchSize}, {edgePage, 4096}}

// napotAddr encodes a pmpaddr NAPOT match over [base, base+size) — size a
// power of two ≥ 8, base size-aligned.
func napotAddr(base, size uint64) uint64 { return (base >> 2) | (size>>3 - 1) }

// hartInit is one hart's generated starting state.
type hartInit struct {
	Regs    [32]uint64
	Mstatus uint64
	Mie     uint64
	Medeleg uint64
	Mtvec   uint64
	Stvec   uint64
	Mepc    uint64
	Sepc    uint64

	Mscratch, Sscratch uint64
	Mcause, Scause     uint64
	Mtval, Stval       uint64
}

// progZero and scrZero clear a window before a case loads into it; they
// are only ever read.
var (
	progZero = make([]byte, ProgCap)
	scrZero  = make([]byte, ScratchSize+4096)
)

// loadWindows clears the program and scratch windows and the edge page,
// then writes the program at ProgBase.
func loadWindows(m *hart.Machine, words []uint32) {
	buf := make([]byte, 4*len(words))
	for j, w := range words {
		binary.LittleEndian.PutUint32(buf[4*j:], w)
	}
	m.LoadImage(ProgBase, progZero)
	m.LoadImage(ScratchBase, scrZero)
	m.LoadImage(ProgBase, buf)
}

// startHart puts h in M-mode at ProgBase with the starting state in,
// confined to the case's windows: PMP entry 0 grants the program window,
// entry 1 the scratch window, and entry 2 blankets the rest of the address
// space with no permissions. All three are locked, so they bind M-mode
// too and only a full reset clears them.
func startHart(h *hart.Hart, in *hartInit) {
	h.Regs = in.Regs
	h.Regs[0] = 0
	h.PC = ProgBase
	h.Mode = rv.ModeM
	c := &h.CSR
	c.WriteMstatus(in.Mstatus)
	c.Mie = in.Mie
	c.Medeleg = in.Medeleg
	c.Mtvec, c.Stvec = in.Mtvec, in.Stvec
	c.Mepc, c.Sepc = in.Mepc, in.Sepc
	c.Mscratch, c.Sscratch = in.Mscratch, in.Sscratch
	c.Mcause, c.Scause = in.Mcause, in.Scause
	c.Mtval, c.Stval = in.Mtval, in.Stval

	confine(c.PMP, 0)
}

// confine locks the case's confinement into PMP entries first..first+2:
// the program window, the scratch window, and no access anywhere else.
func confine(f *pmp.File, first int) {
	rwxNapot := uint8(pmp.CfgL | pmp.CfgR | pmp.CfgW | pmp.CfgX | pmp.ANapot<<3)
	f.ForceAddr(first, napotAddr(ProgBase, ProgCap))
	f.ForceCfg(first, rwxNapot)
	f.ForceAddr(first+1, napotAddr(ScratchBase, ScratchSize))
	f.ForceCfg(first+1, rwxNapot)
	f.ForceAddr(first+2, rv.Mask(54))
	f.ForceCfg(first+2, pmp.CfgL|pmp.ANapot<<3)
}

// diffMachines compares two finished machines and describes their first
// difference, prefixed by label, or returns "". want is the oracle. It
// checks the halt state, mtime and the UART transcript; then per hart the
// counters, pc/mode/wfi/halt, V, the registers, the CSRs (hypervisor and
// custom ones included) and the PMP entries; then caseWindows.
func diffMachines(label string, want, got *hart.Machine) string {
	diff := func(format string, args ...any) string {
		return label + " " + fmt.Sprintf(format, args...)
	}
	wh, wr := want.Halted()
	gh, gr := got.Halted()
	if wh != gh || wr != gr {
		return diff("machine halt: want=%v/%q got=%v/%q", wh, wr, gh, gr)
	}
	if w, g := want.Clint.Time(), got.Clint.Time(); w != g {
		return diff("mtime: want=%d got=%d", w, g)
	}
	if w, g := want.Uart.Output(), got.Uart.Output(); w != g {
		return diff("uart: want=%q got=%q", w, g)
	}
	for i, hW := range want.Harts {
		if d := diffHarts(hW, got.Harts[i]); d != "" {
			return diff("hart%d %s", i, d)
		}
	}
	for _, r := range caseWindows {
		bW, err1 := want.Bus.ReadBytes(r[0], int(r[1]))
		bG, err2 := got.Bus.ReadBytes(r[0], int(r[1]))
		if err1 != nil || err2 != nil {
			return diff("memory at %#x unreadable: want=%v got=%v", r[0], err1, err2)
		}
		if !bytes.Equal(bW, bG) {
			j := 0
			for bW[j] == bG[j] {
				j++
			}
			return diff("memory at %#x: want=%#02x got=%#02x", r[0]+uint64(j), bW[j], bG[j])
		}
	}
	return ""
}

// diffHarts describes the first difference between two harts, or "".
func diffHarts(hW, hG *hart.Hart) string {
	if hW.Cycles != hG.Cycles {
		return fmt.Sprintf("cycles: want=%d got=%d", hW.Cycles, hG.Cycles)
	}
	if hW.Instret != hG.Instret || hW.SInstret != hG.SInstret {
		return fmt.Sprintf("instret: want=%d/%d got=%d/%d",
			hW.Instret, hW.SInstret, hG.Instret, hG.SInstret)
	}
	if hW.PC != hG.PC || hW.Mode != hG.Mode || hW.Waiting != hG.Waiting ||
		hW.Halted != hG.Halted {
		return fmt.Sprintf("pc/mode/wfi/halt: want=%#x/%v/%v/%v got=%#x/%v/%v/%v",
			hW.PC, hW.Mode, hW.Waiting, hW.Halted,
			hG.PC, hG.Mode, hG.Waiting, hG.Halted)
	}
	if hW.V != hG.V {
		return fmt.Sprintf("v: want=%v got=%v", hW.V, hG.V)
	}
	for r := range hW.Regs {
		if hW.Regs[r] != hG.Regs[r] {
			return fmt.Sprintf("x%d: want=%#x got=%#x", r, hW.Regs[r], hG.Regs[r])
		}
	}
	a, b := &hW.CSR, &hG.CSR
	for _, f := range []struct {
		name string
		a, b uint64
	}{
		{"mstatus", a.Mstatus, b.Mstatus}, {"medeleg", a.Medeleg, b.Medeleg},
		{"mideleg", a.Mideleg, b.Mideleg}, {"mie", a.Mie, b.Mie},
		{"mtvec", a.Mtvec, b.Mtvec}, {"mcounteren", a.Mcounteren, b.Mcounteren},
		{"menvcfg", a.Menvcfg, b.Menvcfg}, {"mscratch", a.Mscratch, b.Mscratch},
		{"mepc", a.Mepc, b.Mepc}, {"mcause", a.Mcause, b.Mcause},
		{"mtval", a.Mtval, b.Mtval}, {"mseccfg", a.Mseccfg, b.Mseccfg},
		{"mcountinhibit", a.Mcountinhibit, b.Mcountinhibit},
		{"stvec", a.Stvec, b.Stvec}, {"scounteren", a.Scounteren, b.Scounteren},
		{"senvcfg", a.Senvcfg, b.Senvcfg}, {"sscratch", a.Sscratch, b.Sscratch},
		{"sepc", a.Sepc, b.Sepc}, {"scause", a.Scause, b.Scause},
		{"stval", a.Stval, b.Stval}, {"satp", a.Satp, b.Satp},
		{"stimecmp", a.Stimecmp, b.Stimecmp},
		{"mip", a.Mip(0), b.Mip(0)},
		{"hstatus", a.Hstatus, b.Hstatus}, {"hedeleg", a.Hedeleg, b.Hedeleg},
		{"hideleg", a.Hideleg, b.Hideleg}, {"hie", a.Hie, b.Hie},
		{"hip", a.Hip, b.Hip}, {"hvip", a.Hvip, b.Hvip},
		{"hcounteren", a.Hcounteren, b.Hcounteren}, {"hgeie", a.Hgeie, b.Hgeie},
		{"htval", a.Htval, b.Htval}, {"htinst", a.Htinst, b.Htinst},
		{"hgatp", a.Hgatp, b.Hgatp}, {"henvcfg", a.Henvcfg, b.Henvcfg},
		{"vsstatus", a.Vsstatus, b.Vsstatus}, {"vsie", a.Vsie, b.Vsie},
		{"vstvec", a.Vstvec, b.Vstvec}, {"vsscratch", a.Vsscratch, b.Vsscratch},
		{"vsepc", a.Vsepc, b.Vsepc}, {"vscause", a.Vscause, b.Vscause},
		{"vstval", a.Vstval, b.Vstval}, {"vsip", a.Vsip, b.Vsip},
		{"vsatp", a.Vsatp, b.Vsatp},
		{"mtinst", a.Mtinst, b.Mtinst}, {"mtval2", a.Mtval2, b.Mtval2},
	} {
		if f.a != f.b {
			return fmt.Sprintf("%s: want=%#x got=%#x", f.name, f.a, f.b)
		}
	}
	for _, n := range hW.Cfg.CustomCSRs {
		if a.Custom[n] != b.Custom[n] {
			return fmt.Sprintf("csr%#x: want=%#x got=%#x", n, a.Custom[n], b.Custom[n])
		}
	}
	for i := 0; i < a.PMP.NumEntries(); i++ {
		if a.PMP.Cfg(i) != b.PMP.Cfg(i) || a.PMP.Addr(i) != b.PMP.Addr(i) {
			return fmt.Sprintf("pmp%d: want=%#x/%#x got=%#x/%#x",
				i, a.PMP.Cfg(i), a.PMP.Addr(i), b.PMP.Cfg(i), b.PMP.Addr(i))
		}
	}
	return ""
}
