package refmodel

import (
	"testing"
	"testing/quick"
)

func cfgVF2() *Config {
	return &Config{PMPCount: 8, Mvendorid: 0x489, Marchid: 7, Mimpid: 1}
}

func TestMstatusRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		m := MstatusFromBits(v)
		m2 := MstatusFromBits(m.Bits())
		return m == m2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodePrivileged(t *testing.T) {
	cases := map[uint32]Op{
		0x00000073: OpECALL,
		0x00100073: OpEBREAK,
		0x30200073: OpMRET,
		0x10200073: OpSRET,
		0x10500073: OpWFI,
		0x12000073: OpSFENCE, // sfence.vma x0, x0
		0x0000100F: OpFENCEI,
		0x0FF0000F: OpFENCE,
		0x34011073: OpCSRRW, // csrw mscratch, x2
		0x30002573: OpCSRRS, // csrr a0, mstatus
		0x30003573: OpCSRRC,
		0x30015073: OpCSRRWI,
		0x30016073: OpCSRRSI,
		0x30017073: OpCSRRCI,
		0x00000013: OpIllegal, // addi: not in the privileged subset
		0xFFFFFFFF: OpIllegal,
		0x30200077: OpIllegal,
	}
	for raw, want := range cases {
		if got := Decode(raw).Op; got != want {
			t.Errorf("Decode(%#x).Op = %d, want %d", raw, got, want)
		}
	}
	ins := Decode(0x34011073)
	if ins.CSR != 0x340 || ins.Rs1 != 2 || ins.Rd != 0 {
		t.Error("csrw field decode")
	}
}

func TestEcallTrapEntry(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Priv = S
	s.PC = 0x1000
	s.Mtvec = 0x2000
	s.Status.MIE = true
	ev := HW(c, s, 0x00000073)
	if ev != EvTrap {
		t.Fatal("ecall must trap")
	}
	if s.Priv != M || s.PC != 0x2000 {
		t.Error("trap must enter M at mtvec")
	}
	if s.Mcause != 9 || s.Mepc != 0x1000 {
		t.Errorf("mcause=%d mepc=%#x", s.Mcause, s.Mepc)
	}
	if s.Status.MPP != S || !s.Status.MPIE || s.Status.MIE {
		t.Error("status stacking wrong")
	}
}

func TestDelegatedEcall(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Priv = U
	s.PC = 0x1000
	s.Stvec = 0x3000
	s.Medeleg = 1 << 8
	s.Status.SIE = true
	if ev := HW(c, s, 0x00000073); ev != EvTrap {
		t.Fatal("must trap")
	}
	if s.Priv != S || s.PC != 0x3000 || s.Scause != 8 {
		t.Error("delegation must land in S")
	}
	if s.Status.SPP != 0 || !s.Status.SPIE || s.Status.SIE {
		t.Error("sstatus stacking wrong")
	}
	// Ecall from M never delegates.
	s2 := NewState()
	s2.Medeleg = 0xB3FF
	s2.Mtvec = 0x4000
	if HW(c, s2, 0x00000073); s2.Priv != M || s2.PC != 0x4000 {
		t.Error("M-mode ecall must stay in M")
	}
}

func TestMretSemantics(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Status.MPP = U
	s.Status.MPIE = true
	s.Status.MPRV = true
	s.Mepc = 0x5000
	if ev := HW(c, s, 0x30200073); ev != EvRetired {
		t.Fatal("mret must retire")
	}
	if s.Priv != U || s.PC != 0x5000 {
		t.Error("mret destination")
	}
	if !s.Status.MIE || !s.Status.MPIE || s.Status.MPP != U {
		t.Error("mret status update")
	}
	if s.Status.MPRV {
		t.Error("mret to non-M must clear MPRV")
	}
	// mret from S is illegal.
	s2 := NewState()
	s2.Priv = S
	s2.Mtvec = 0x100
	if ev := HW(c, s2, 0x30200073); ev != EvTrap || s2.Mcause != 2 {
		t.Error("mret from S must be illegal")
	}
}

func TestSretTSR(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Priv = S
	s.Status.TSR = true
	s.Mtvec = 0x100
	if ev := HW(c, s, 0x10200073); ev != EvTrap {
		t.Error("sret with TSR must trap")
	}
	s2 := NewState()
	s2.Priv = S
	s2.Status.SPP = 0
	s2.Sepc = 0x900
	if ev := HW(c, s2, 0x10200073); ev != EvRetired || s2.Priv != U || s2.PC != 0x900 {
		t.Error("sret to U failed")
	}
}

func TestWFIRules(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Priv = U
	s.Mtvec = 0x100
	if ev := HW(c, s, 0x10500073); ev != EvTrap {
		t.Error("wfi from U must be illegal")
	}
	s2 := NewState()
	s2.Priv = S
	s2.Status.TW = true
	s2.Mtvec = 0x100
	if ev := HW(c, s2, 0x10500073); ev != EvTrap {
		t.Error("wfi from S with TW must be illegal")
	}
	s3 := NewState()
	if ev := HW(c, s3, 0x10500073); ev != EvWFI || !s3.WFI {
		t.Error("wfi from M must wait")
	}
}

func TestCSRPrivilegeChecks(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Priv = S
	s.Mtvec = 0x100
	// S-mode read of mstatus is illegal.
	if ev := HW(c, s, 0x30002573); ev != EvTrap || s.Mcause != 2 {
		t.Error("S read of mstatus must trap")
	}
	// Write to a read-only CSR (mvendorid = 0xF11) is illegal even in M.
	s2 := NewState()
	s2.Mtvec = 0x100
	raw := uint32(0xF11)<<20 | 1<<15 | 1<<12 | 0x73 // csrrw x0, mvendorid, x1
	if ev := HW(c, s2, raw); ev != EvTrap {
		t.Error("write to read-only CSR must trap")
	}
	// csrrs with rs1=x0 to a read-only CSR is a pure read and is legal.
	s3 := NewState()
	raw = uint32(0xF11)<<20 | 0<<15 | 2<<12 | 10<<7 | 0x73
	if ev := HW(c, s3, raw); ev != EvRetired || s3.Regs[10] != 0x489 {
		t.Error("read of mvendorid failed")
	}
}

func TestCSRWriteSemantics(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Regs[5] = 0xFFFF_FFFF_FFFF_FFFF
	// csrrw x0, medeleg, x5: write all ones, read back the WARL mask.
	HW(c, s, uint32(0x302)<<20|5<<15|1<<12|0x73)
	if s.Medeleg != 0xB3FF {
		t.Errorf("medeleg = %#x", s.Medeleg)
	}
	// mideleg masks to S-interrupt bits.
	HW(c, s, uint32(0x303)<<20|5<<15|1<<12|0x73)
	if s.Mideleg != 0x222 {
		t.Errorf("mideleg = %#x", s.Mideleg)
	}
	// mtvec reserved mode legalizes to direct.
	s.Regs[6] = 0x8003
	HW(c, s, uint32(0x305)<<20|6<<15|1<<12|0x73)
	if s.Mtvec != 0x8000 {
		t.Errorf("mtvec = %#x", s.Mtvec)
	}
	// mepc clears the low two bits.
	s.Regs[7] = 0x1007
	HW(c, s, uint32(0x341)<<20|7<<15|1<<12|0x73)
	if s.Mepc != 0x1004 {
		t.Errorf("mepc = %#x", s.Mepc)
	}
	// MPP=2 write keeps the old MPP.
	s.Status.MPP = S
	s.Regs[8] = 2 << 11
	HW(c, s, uint32(0x300)<<20|8<<15|1<<12|0x73)
	if s.Status.MPP != S {
		t.Errorf("MPP legalization: %d", s.Status.MPP)
	}
	// satp with a reserved mode is ignored entirely.
	s.Satp = 0
	s.Regs[9] = 5 << 60
	HW(c, s, uint32(0x180)<<20|9<<15|1<<12|0x73)
	if s.Satp != 0 {
		t.Error("satp reserved mode must be ignored")
	}
}

func TestPendingInterruptPriority(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	s.Priv = M
	s.Status.MIE = true
	s.Mie = 0xAAA
	s.MipHW = 1<<7 | 1<<3 | 1<<11 // MTIP, MSIP, MEIP
	if code := PendingInterrupt(c, s); code != 11 {
		t.Errorf("priority: got %d want MEI(11)", code)
	}
	s.MipHW = 1<<7 | 1<<3
	if code := PendingInterrupt(c, s); code != 3 {
		t.Errorf("priority: got %d want MSI(3)", code)
	}
	s.MipHW = 1 << 7
	if code := PendingInterrupt(c, s); code != 7 {
		t.Errorf("priority: got %d want MTI(7)", code)
	}
	// Disabled globally in M.
	s.Status.MIE = false
	if code := PendingInterrupt(c, s); code != -1 {
		t.Error("M-mode with MIE=0 must not take M interrupts")
	}
	// But from S-mode, M interrupts fire regardless of SIE.
	s.Priv = S
	if code := PendingInterrupt(c, s); code != 7 {
		t.Error("M interrupts always deliverable from below M")
	}
	// Delegated interrupts respect SIE.
	s2 := NewState()
	s2.Priv = S
	s2.Mie = 0xAAA
	s2.Mideleg = 0x222
	s2.MipSW = 1 << 1
	if code := PendingInterrupt(c, s2); code != -1 {
		t.Error("delegated SSI with SIE=0 must wait")
	}
	s2.Status.SIE = true
	if code := PendingInterrupt(c, s2); code != 1 {
		t.Error("delegated SSI with SIE=1 must fire")
	}
	// Delegated interrupts never fire in M-mode.
	s2.Priv = M
	s2.Status.MIE = true
	if code := PendingInterrupt(c, s2); code != -1 {
		t.Error("delegated interrupts must not preempt M-mode")
	}
}

func TestTakeInterruptEntry(t *testing.T) {
	s := NewState()
	s.Priv = S
	s.PC = 0x1234
	s.Mtvec = 0x8001 // vectored
	TakeInterrupt(&Config{}, s, 7)
	if s.Priv != M {
		t.Error("must enter M")
	}
	if s.PC != 0x8000+4*7 {
		t.Errorf("vectored entry PC %#x", s.PC)
	}
	if s.Mcause != 7|1<<63 {
		t.Errorf("mcause %#x", s.Mcause)
	}
}

func TestSstcMipComposition(t *testing.T) {
	c := &Config{PMPCount: 8, HasSstc: true}
	s := NewState()
	s.Menvcfg = 1 << 63
	s.Stimecmp = 100
	s.Time = 99
	if s.Mip(c)&(1<<5) != 0 {
		t.Error("STIP before deadline")
	}
	s.Time = 100
	if s.Mip(c)&(1<<5) == 0 {
		t.Error("STIP at deadline")
	}
	// Software writes to STIP are ignored under Sstc.
	writeMip(c, s, 1<<5)
	s.Time = 0
	if s.Mip(c)&(1<<5) != 0 {
		t.Error("STIP must be read-only under Sstc")
	}
}

func TestPMPCheckModel(t *testing.T) {
	c := cfgVF2()
	s := NewState()
	// Entry 0: NAPOT no-perm over [0x1000,0x2000); entry 1 all-RWX.
	s.PmpAddr[0] = 0x1000>>2 | (0x1000/8 - 1)
	s.PmpCfg[0] = 3 << 3
	s.PmpAddr[1] = 1<<54 - 1
	s.PmpCfg[1] = 3<<3 | 7
	if PMPCheck(c, s, 0x1800, 8, AccRead, S) {
		t.Error("denied region must fail for S")
	}
	if !PMPCheck(c, s, 0x1800, 8, AccRead, M) {
		t.Error("unlocked entry must not bind M")
	}
	if !PMPCheck(c, s, 0x2000, 8, AccWrite, U) {
		t.Error("allowed region must pass")
	}
	// Partial overlap fails.
	if PMPCheck(c, s, 0xFFC, 8, AccRead, S) {
		t.Error("straddling access must fail")
	}
	// Locked entry binds M.
	s.PmpCfg[0] = 0x80 | 3<<3
	if PMPCheck(c, s, 0x1800, 8, AccRead, M) {
		t.Error("locked no-perm entry must deny M")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewState()
	s.Custom[0x7C0] = 7
	s.Regs[1] = 1
	c := s.Clone()
	c.Custom[0x7C0] = 9
	c.Regs[1] = 2
	if s.Custom[0x7C0] != 7 || s.Regs[1] != 1 {
		t.Error("clone must not alias")
	}
}

func TestCounterGatingModel(t *testing.T) {
	c := &Config{PMPCount: 8, HasTimeCSR: true}
	s := NewState()
	s.Priv = U
	s.Mtvec = 0x100
	s.Time = 42
	// U read of time with both enables clear: illegal.
	raw := uint32(0xC01)<<20 | 0<<15 | 2<<12 | 10<<7 | 0x73
	if ev := HW(c, s, raw); ev != EvTrap {
		t.Error("gated time read must trap")
	}
	s2 := NewState()
	s2.Priv = U
	s2.Mcounteren = 2
	s2.Scounteren = 2
	s2.Time = 42
	if ev := HW(c, s2, raw); ev != EvRetired || s2.Regs[10] != 42 {
		t.Error("enabled time read must succeed")
	}
}

// TestDiffEqualStatesDoNotAllocate: the lockstep fuzzer diffs three state
// pairs per step, so Diff formats a field name only for a field that
// differs. Equal states on an H configuration with 16 PMP entries and two
// custom CSRs must not pay one allocation per register, PMP entry and
// custom CSR; the bound of two leaves room for the compiler to move
// Diff's closures to the heap.
func TestDiffEqualStatesDoNotAllocate(t *testing.T) {
	c := &Config{PMPCount: 16, HasH: true, HasSstc: true, CustomCSRs: []uint16{0x7C0, 0x7C1}}
	a := NewState()
	for i := range a.Regs {
		a.Regs[i] = uint64(i)
	}
	for i := 0; i < c.PMPCount; i++ {
		a.PmpAddr[i], a.PmpCfg[i] = uint64(i)<<8, uint8(i)
	}
	a.Custom[0x7C0], a.Custom[0x7C1] = 1, 2
	b := a.Clone()
	if n := testing.AllocsPerRun(100, func() {
		if ds := Diff(c, a, b); ds != nil {
			t.Fatalf("equal states differ: %v", ds)
		}
	}); n > 2 {
		t.Fatalf("Diff of equal states: %.0f allocations per call, want <= 2", n)
	}
	b.Regs[5] = 9
	if ds := Diff(c, a, b); len(ds) != 1 || ds[0].Field != "x5" {
		t.Fatalf("Diff = %v, want one delta x5", ds)
	}
}
