package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/rv"
)

// TestDiffMachinesNamesEachField changes one compared field on the second
// of two identical machines and requires diffMachines to name it. The
// hypervisor and custom CSRs are changed on p550, which has them.
func TestDiffMachinesNamesEachField(t *testing.T) {
	newMachine := func(profile string) *hart.Machine {
		cfg := hart.Profiles()[profile]()
		cfg.Harts = 2
		m, err := hart.NewMachine(cfg, core.DramSize)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset(ProgBase)
		return m
	}
	h := func(m *hart.Machine) *hart.Hart { return m.Harts[1] }
	c := func(m *hart.Machine) *hart.CSRFile { return &m.Harts[1].CSR }
	type row struct {
		field  string // diffMachines' description after the label
		mutate func(m *hart.Machine)
	}
	vf2 := []row{
		{"machine halt", func(m *hart.Machine) { m.Bus.Store(hart.ExitBase, 4, hart.ExitPass) }},
		{"mtime", func(m *hart.Machine) { m.Clint.Advance(1) }},
		{"uart", func(m *hart.Machine) { m.Bus.Store(hart.UartBase, 1, 'x') }},
		{"hart1 cycles", func(m *hart.Machine) { h(m).Cycles++ }},
		{"hart1 instret", func(m *hart.Machine) { h(m).Instret++ }},
		{"hart1 instret", func(m *hart.Machine) { h(m).SInstret++ }},
		{"hart1 pc/mode/wfi/halt", func(m *hart.Machine) { h(m).PC += 4 }},
		{"hart1 pc/mode/wfi/halt", func(m *hart.Machine) { h(m).Mode = rv.ModeS }},
		{"hart1 pc/mode/wfi/halt", func(m *hart.Machine) { h(m).Waiting = true }},
		{"hart1 pc/mode/wfi/halt", func(m *hart.Machine) { h(m).Halted = true }},
		{"hart1 x31", func(m *hart.Machine) { h(m).Regs[31]++ }},
		{"hart1 mstatus", func(m *hart.Machine) { c(m).Mstatus ^= 1 << rv.MstatusMIE }},
		{"hart1 medeleg", func(m *hart.Machine) { c(m).Medeleg++ }},
		{"hart1 mideleg", func(m *hart.Machine) { c(m).Mideleg ^= 2 }},
		{"hart1 mie", func(m *hart.Machine) { c(m).Mie++ }},
		{"hart1 mtvec", func(m *hart.Machine) { c(m).Mtvec++ }},
		{"hart1 mcounteren", func(m *hart.Machine) { c(m).Mcounteren++ }},
		{"hart1 menvcfg", func(m *hart.Machine) { c(m).Menvcfg++ }},
		{"hart1 mscratch", func(m *hart.Machine) { c(m).Mscratch++ }},
		{"hart1 mepc", func(m *hart.Machine) { c(m).Mepc++ }},
		{"hart1 mcause", func(m *hart.Machine) { c(m).Mcause++ }},
		{"hart1 mtval", func(m *hart.Machine) { c(m).Mtval++ }},
		{"hart1 mseccfg", func(m *hart.Machine) { c(m).Mseccfg++ }},
		{"hart1 mcountinhibit", func(m *hart.Machine) { c(m).Mcountinhibit++ }},
		{"hart1 stvec", func(m *hart.Machine) { c(m).Stvec++ }},
		{"hart1 scounteren", func(m *hart.Machine) { c(m).Scounteren++ }},
		{"hart1 senvcfg", func(m *hart.Machine) { c(m).Senvcfg++ }},
		{"hart1 sscratch", func(m *hart.Machine) { c(m).Sscratch++ }},
		{"hart1 sepc", func(m *hart.Machine) { c(m).Sepc++ }},
		{"hart1 scause", func(m *hart.Machine) { c(m).Scause++ }},
		{"hart1 stval", func(m *hart.Machine) { c(m).Stval++ }},
		{"hart1 satp", func(m *hart.Machine) { c(m).Satp++ }},
		{"hart1 stimecmp", func(m *hart.Machine) { c(m).Stimecmp++ }},
		{"hart1 mip", func(m *hart.Machine) { c(m).SetMip(1 << rv.IntSSoft) }},
		{"hart1 pmp5", func(m *hart.Machine) { c(m).PMP.ForceAddr(5, 0x1234) }},
		{"hart1 pmp5", func(m *hart.Machine) { c(m).PMP.ForceCfg(5, 0x1) }},
		{fmt.Sprintf("memory at %#x", ProgBase+8), func(m *hart.Machine) {
			m.Bus.Store(ProgBase+8, 1, 0xff)
		}},
		{fmt.Sprintf("memory at %#x", ScratchBase+16), func(m *hart.Machine) {
			m.Bus.Store(ScratchBase+16, 1, 0xff)
		}},
	}
	p550 := []row{
		{"hart1 v", func(m *hart.Machine) { h(m).V = true }},
		{"hart1 hstatus", func(m *hart.Machine) { c(m).Hstatus++ }},
		{"hart1 hedeleg", func(m *hart.Machine) { c(m).Hedeleg++ }},
		{"hart1 hideleg", func(m *hart.Machine) { c(m).Hideleg++ }},
		{"hart1 hie", func(m *hart.Machine) { c(m).Hie++ }},
		{"hart1 hip", func(m *hart.Machine) { c(m).Hip++ }},
		{"hart1 hvip", func(m *hart.Machine) { c(m).Hvip++ }},
		{"hart1 hcounteren", func(m *hart.Machine) { c(m).Hcounteren++ }},
		{"hart1 hgeie", func(m *hart.Machine) { c(m).Hgeie++ }},
		{"hart1 htval", func(m *hart.Machine) { c(m).Htval++ }},
		{"hart1 htinst", func(m *hart.Machine) { c(m).Htinst++ }},
		{"hart1 hgatp", func(m *hart.Machine) { c(m).Hgatp++ }},
		{"hart1 henvcfg", func(m *hart.Machine) { c(m).Henvcfg++ }},
		{"hart1 vsstatus", func(m *hart.Machine) { c(m).Vsstatus++ }},
		{"hart1 vsie", func(m *hart.Machine) { c(m).Vsie++ }},
		{"hart1 vstvec", func(m *hart.Machine) { c(m).Vstvec++ }},
		{"hart1 vsscratch", func(m *hart.Machine) { c(m).Vsscratch++ }},
		{"hart1 vsepc", func(m *hart.Machine) { c(m).Vsepc++ }},
		{"hart1 vscause", func(m *hart.Machine) { c(m).Vscause++ }},
		{"hart1 vstval", func(m *hart.Machine) { c(m).Vstval++ }},
		{"hart1 vsip", func(m *hart.Machine) { c(m).Vsip++ }},
		{"hart1 vsatp", func(m *hart.Machine) { c(m).Vsatp++ }},
		{"hart1 mtinst", func(m *hart.Machine) { c(m).Mtinst++ }},
		{"hart1 mtval2", func(m *hart.Machine) { c(m).Mtval2++ }},
		{"hart1 csr0x7c2", func(m *hart.Machine) { c(m).Custom[0x7C2]++ }},
	}
	for profile, rows := range map[string][]row{"visionfive2": vf2, "p550": p550} {
		want := newMachine(profile)
		for _, tc := range rows {
			got := newMachine(profile)
			if d := diffMachines("same", want, got); d != "" {
				t.Fatalf("%s: identical machines differ: %s", profile, d)
			}
			tc.mutate(got)
			d := diffMachines("label", want, got)
			if !strings.HasPrefix(d, "label "+tc.field+":") {
				t.Errorf("%s: changing %s: diffMachines says %q", profile, tc.field, d)
			}
		}
	}
}
