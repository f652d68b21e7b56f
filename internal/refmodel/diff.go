package refmodel

import "fmt"

// Delta is a single architectural field that differs between two states.
type Delta struct {
	Field string
	A, B  uint64
}

func (d Delta) String() string {
	return fmt.Sprintf("%s: %#x vs %#x", d.Field, d.A, d.B)
}

// TakeException performs synchronous-exception trap entry at the current
// PC, honouring medeleg. It is the exported face of the model's internal
// trap-entry rule, used by differential harnesses to advance a shadow
// state past instructions the model does not itself decode (plain loads,
// stores, ALU ops): the harness observes the concrete machine trap and
// replays the architectural consequence here.
func TakeException(c *Config, s *State, cause, tval uint64) Event {
	return takeException(c, s, cause, tval)
}

// Diff compares two states field by field and returns every mismatch.
// The free-running counters (time, cycle, instret) are excluded: they are
// timing artefacts, not architectural results, and differential harnesses
// compare them separately if at all. Hypervisor CSRs other than mtinst and
// mtval2 are compared only when the configuration implements them,
// stimecmp only with Sstc, PMP entries only up to c.PMPCount, and custom
// CSRs only for the documented numbers. Field names are formatted only for
// fields that differ, so two equal states cost no allocation.
func Diff(c *Config, a, b *State) []Delta {
	var ds []Delta
	add := func(f string, x, y uint64) {
		if x != y {
			ds = append(ds, Delta{f, x, y})
		}
	}
	b2u := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for i := 1; i < 32; i++ {
		if a.Regs[i] != b.Regs[i] {
			add(fmt.Sprintf("x%d", i), a.Regs[i], b.Regs[i])
		}
	}
	add("pc", a.PC, b.PC)
	add("priv", uint64(a.Priv), uint64(b.Priv))
	add("mstatus", a.Status.Bits(), b.Status.Bits())
	add("mie", a.Mie, b.Mie)
	add("mideleg", a.Mideleg, b.Mideleg)
	add("medeleg", a.Medeleg, b.Medeleg)
	add("mip.sw", a.MipSW, b.MipSW)
	add("mip.hw", a.MipHW, b.MipHW)
	add("mtvec", a.Mtvec, b.Mtvec)
	add("stvec", a.Stvec, b.Stvec)
	add("mepc", a.Mepc, b.Mepc)
	add("sepc", a.Sepc, b.Sepc)
	add("mcause", a.Mcause, b.Mcause)
	add("scause", a.Scause, b.Scause)
	add("mtval", a.Mtval, b.Mtval)
	add("stval", a.Stval, b.Stval)
	add("mscratch", a.Mscratch, b.Mscratch)
	add("sscratch", a.Sscratch, b.Sscratch)
	add("mcounteren", a.Mcounteren, b.Mcounteren)
	add("scounteren", a.Scounteren, b.Scounteren)
	add("menvcfg", a.Menvcfg, b.Menvcfg)
	add("senvcfg", a.Senvcfg, b.Senvcfg)
	add("mseccfg", a.Mseccfg, b.Mseccfg)
	add("mcountinhibit", a.Mcountinhibit, b.Mcountinhibit)
	add("satp", a.Satp, b.Satp)
	if c.HasSstc {
		add("stimecmp", a.Stimecmp, b.Stimecmp)
	}
	add("wfi", b2u(a.WFI), b2u(b.WFI))
	// M-mode trap entry writes mtinst and mtval2 only with H; without it
	// they must stay zero on both sides, so they are compared everywhere.
	add("mtinst", a.Mtinst, b.Mtinst)
	add("mtval2", a.Mtval2, b.Mtval2)
	for i := 0; i < c.PMPCount && i < len(a.PmpCfg); i++ {
		if a.PmpCfg[i] != b.PmpCfg[i] {
			add(fmt.Sprintf("pmpcfg[%d]", i), uint64(a.PmpCfg[i]), uint64(b.PmpCfg[i]))
		}
		if a.PmpAddr[i] != b.PmpAddr[i] {
			add(fmt.Sprintf("pmpaddr[%d]", i), a.PmpAddr[i], b.PmpAddr[i])
		}
	}
	for _, n := range c.CustomCSRs {
		if x, y := a.Custom[n], b.Custom[n]; x != y {
			add(fmt.Sprintf("custom[%#x]", n), x, y)
		}
	}
	if c.HasH {
		add("v", b2u(a.V), b2u(b.V))
		add("hstatus", a.Hstatus, b.Hstatus)
		add("hedeleg", a.Hedeleg, b.Hedeleg)
		add("hideleg", a.Hideleg, b.Hideleg)
		add("hie", a.Hie, b.Hie)
		add("hcounteren", a.Hcounteren, b.Hcounteren)
		add("hgeie", a.Hgeie, b.Hgeie)
		add("htval", a.Htval, b.Htval)
		add("hip", a.Hip, b.Hip)
		add("hvip", a.Hvip, b.Hvip)
		add("htinst", a.Htinst, b.Htinst)
		add("hgatp", a.Hgatp, b.Hgatp)
		add("henvcfg", a.Henvcfg, b.Henvcfg)
		add("vsstatus", a.Vsstatus, b.Vsstatus)
		add("vsie", a.Vsie, b.Vsie)
		add("vstvec", a.Vstvec, b.Vstvec)
		add("vsscratch", a.Vsscratch, b.Vsscratch)
		add("vsepc", a.Vsepc, b.Vsepc)
		add("vscause", a.Vscause, b.Vscause)
		add("vstval", a.Vstval, b.Vstval)
		add("vsip", a.Vsip, b.Vsip)
		add("vsatp", a.Vsatp, b.Vsatp)
	}
	return ds
}
