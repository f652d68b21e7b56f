package verif

import (
	"flag"
	"math/rand"
	"testing"

	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/mem"
	"govfm/internal/pmp"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
)

// The test suites below mirror the paper's Table 2 verification tasks:
// mret, sret, wfi, the instruction decoder, CSR reads, CSR writes, virtual
// interrupts, and end-to-end emulation — plus faithful execution of loads
// and stores (memory protection) and the §6.5 bug-class corpus.

// seedFlag offsets every randomized suite's seed, so a sweep can be rerun
// over fresh streams (-seed N) without losing per-suite determinism at the
// default of 0.
var seedFlag = flag.Int64("seed", 0, "offset added to each randomized suite's stream seed")

// newRng returns the rng for one randomized suite. Each suite has its own
// stream number so suites stay decorrelated; the effective seed is logged,
// which the test runner surfaces on failure (and under -v) so any failing
// run can be reproduced with -seed.
func newRng(t *testing.T, stream int64) *rand.Rand {
	seed := stream + *seedFlag
	t.Logf("randomized suite: stream %d, effective seed %d (rerun with -seed %d)",
		stream, seed, *seedFlag)
	return rand.New(rand.NewSource(seed))
}

func newHarness(t *testing.T, cfg *hart.Config) *Harness {
	t.Helper()
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// encodeCSROp builds a Zicsr instruction word.
func encodeCSROp(f3 uint32, rd, rs1 uint32, csr uint16) uint32 {
	return uint32(csr)<<20 | rs1<<15 | f3<<12 | rd<<7 | 0x73
}

// interestingCSRs enumerates the virtual CSR space exhaustively: every CSR
// the virtual hardware implements, the virtual PMP registers, the platform
// custom CSRs, and a sample of unimplemented numbers.
func interestingCSRs(h *Harness) []uint16 {
	csrs := []uint16{
		rv.CSRMstatus, rv.CSRMisa, rv.CSRMedeleg, rv.CSRMideleg, rv.CSRMie,
		rv.CSRMtvec, rv.CSRMcounteren, rv.CSRMenvcfg, rv.CSRMcountinhibit,
		rv.CSRMscratch, rv.CSRMepc, rv.CSRMcause, rv.CSRMtval, rv.CSRMip,
		rv.CSRMseccfg, rv.CSRMvendorid, rv.CSRMarchid, rv.CSRMimpid,
		rv.CSRMhartid, rv.CSRMconfigptr, rv.CSRMcycle, rv.CSRMinstret,
		rv.CSRSstatus, rv.CSRSie, rv.CSRStvec, rv.CSRScounteren,
		rv.CSRSenvcfg, rv.CSRSscratch, rv.CSRSepc, rv.CSRScause,
		rv.CSRStval, rv.CSRSip, rv.CSRSatp,
		rv.CSRCycle, rv.CSRTime, rv.CSRInstret, rv.CSRStimecmp,
		rv.CSRMhpmcounter3, rv.CSRMhpmcounter31, rv.CSRMhpmevent3,
		rv.CSRHpmcounter3,
		// Unimplemented samples: hole in M space, F CSRs, debug CSRs.
		0x345, 0x001, 0x002, 0x003, 0x7B0, 0x5A8, 0x9FF,
	}
	for i := 0; i <= h.RefCfg.PMPCount; i++ { // one past the end on purpose
		csrs = append(csrs, rv.CSRPmpaddr0+uint16(i))
	}
	csrs = append(csrs, rv.CSRPmpcfg0, rv.CSRPmpcfg2, rv.CSRPmpcfg0+1)
	csrs = append(csrs, h.Machine.Cfg.CustomCSRs...)
	if h.Machine.Cfg.HasH {
		csrs = append(csrs,
			rv.CSRHstatus, rv.CSRHedeleg, rv.CSRHideleg, rv.CSRHie,
			rv.CSRHcounteren, rv.CSRHgeie, rv.CSRHtval, rv.CSRHip,
			rv.CSRHvip, rv.CSRHtinst, rv.CSRHenvcfg, rv.CSRHgatp,
			rv.CSRHgeip, rv.CSRMtinst, rv.CSRMtval2,
			rv.CSRVsstatus, rv.CSRVsie, rv.CSRVstvec, rv.CSRVsscratch,
			rv.CSRVsepc, rv.CSRVscause, rv.CSRVstval, rv.CSRVsip, rv.CSRVsatp)
	}
	return csrs
}

// valueCorpus are the operand values written through every CSR op.
var valueCorpus = []uint64{
	0, 1, 2, 3, 0x222, 0xAAA, 0xB3FF, 0x1F1F, ^uint64(0), 1 << 63,
	0x8000_0000, rv.SatpModeSv39 << 60, 5 << 60, 3 << 11, 2 << 11,
	0xFFFF_FFFF, 1<<17 | 1<<19,
}

func platforms() map[string]func() *hart.Config {
	return map[string]func() *hart.Config{
		"visionfive2": hart.VisionFive2,
		"p550":        hart.PremierP550,
		"rva23":       hart.RVA23,
	}
}

// TestFaithfulEmulationCSR exhaustively covers every CSR instruction form
// against every implemented (and some unimplemented) CSR, over a corpus of
// states and operand values.
func TestFaithfulEmulationCSR(t *testing.T) {
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk())
			rng := newRng(t, 1)
			csrs := interestingCSRs(h)
			ops := []uint32{rv.F3Csrrw, rv.F3Csrrs, rv.F3Csrrc,
				rv.F3Csrrwi, rv.F3Csrrsi, rv.F3Csrrci}
			checked := 0
			for _, csr := range csrs {
				for _, f3 := range ops {
					for _, regs := range [][2]uint32{{0, 0}, {5, 6}, {10, 0}, {0, 11}, {15, 15}} {
						rd, rs1 := regs[0], regs[1]
						s := h.GenState(rng)
						h.Ctx.VirtMode = rv.ModeM // production emulation context
						s.Priv = refmodel.M
						// Seed rs1 (or the zimm) with a corpus value.
						val := valueCorpus[checked%len(valueCorpus)]
						if f3 < rv.F3Csrrwi {
							h.Machine.Harts[0].SetReg(rs1, val)
							s.SetReg(rs1, val)
						}
						raw := encodeCSROp(f3, rd, rs1, csr)
						if err := h.CheckEmulation(s, raw, 0x1000); err != nil {
							t.Fatalf("csr %s f3=%d rd=%d rs1=%d: %v",
								rv.CSRName(csr), f3, rd, rs1, err)
						}
						checked++
					}
				}
			}
			t.Logf("%d CSR-instruction cases checked", checked)
		})
	}
}

// TestFaithfulEmulationPrivOps covers mret/sret/wfi/sfence/fence/ecall/
// ebreak across modes and status-bit combinations.
func TestFaithfulEmulationPrivOps(t *testing.T) {
	ops := map[string]uint32{
		"mret":    rv.InstrMret,
		"sret":    rv.InstrSret,
		"wfi":     rv.InstrWfi,
		"fence":   rv.InstrFence,
		"fence.i": rv.InstrFenceI,
		"ecall":   rv.InstrEcall,
		"ebreak":  rv.InstrEbreak,
		"sfence":  0x12000073,
	}
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk())
			rng := newRng(t, 2)
			for opName, raw := range ops {
				for i := 0; i < 200; i++ {
					s := h.GenState(rng)
					if err := h.CheckEmulation(s, raw, 0x2000); err != nil {
						t.Fatalf("%s (mode %v, round %d): %v",
							opName, h.Ctx.VirtMode, i, err)
					}
				}
			}
		})
	}
}

// TestFaithfulEmulationDecoder feeds random instruction words to both
// decoders via full emulation: agreement on illegality is part of the
// criterion (an instruction one side decodes and the other rejects would
// diverge in the resulting state).
//
// Plain loads and stores decode in the monitor (for MMIO/MPRV emulation)
// but are not privileged instructions: the emulator must inject illegal
// for them exactly as the reference does.
func TestFaithfulEmulationDecoder(t *testing.T) {
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk())
			rng := newRng(t, 3)
			for i := 0; i < 30000; i++ {
				s := h.GenState(rng)
				raw := rng.Uint32()
				if err := h.CheckEmulation(s, raw, 0x3000); err != nil {
					t.Fatalf("random instr %#x: %v", raw, err)
				}
			}
		})
	}
}

// TestFaithfulEmulationVirtualInterrupts checks the post-trap interrupt
// injection decision against the reference model's rules.
func TestFaithfulEmulationVirtualInterrupts(t *testing.T) {
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk())
			rng := newRng(t, 4)
			for i := 0; i < 5000; i++ {
				s := h.GenState(rng)
				if err := h.CheckInterruptInjection(s, 0x4000); err != nil {
					t.Fatalf("round %d (mode %v): %v", i, h.Ctx.VirtMode, err)
				}
			}
		})
	}
}

// TestFaithfulEmulationTrapEntry checks virtual trap re-injection against
// the reference trap-entry function (refmodel.TakeException) for every
// exception cause, from every virtual mode, V=1 included.
func TestFaithfulEmulationTrapEntry(t *testing.T) {
	causes := []uint64{
		rv.ExcInstrAddrMisaligned, rv.ExcInstrAccessFault, rv.ExcIllegalInstr,
		rv.ExcBreakpoint, rv.ExcLoadAddrMisaligned, rv.ExcLoadAccessFault,
		rv.ExcStoreAddrMisaligned, rv.ExcStoreAccessFault, rv.ExcEcallFromU,
		rv.ExcEcallFromS, rv.ExcEcallFromM, rv.ExcInstrPageFault,
		rv.ExcLoadPageFault, rv.ExcStorePageFault,
	}
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk())
			rng := newRng(t, 5)
			guest := 0
			for _, cause := range causes {
				for i := 0; i < 100; i++ {
					s := h.GenState(rng)
					if s.V {
						guest++
					}
					tval := rng.Uint64()
					epc := rng.Uint64() &^ 3
					s.PC = epc
					refmodel.TakeException(h.RefCfg, s, cause, tval)
					got := h.Mon.VerifInjectTrap(h.Ctx, cause, tval, epc)
					if err := h.Compare(s, got, 0); err != nil {
						t.Fatalf("cause %d round %d: %v", cause, i, err)
					}
				}
			}
			t.Logf("%d trap entries checked, %d from V=1", len(causes)*100, guest)
		})
	}
}

// TestTrapEntryHelperAgreesWithHW anchors refmodel.TakeException to the
// reference model's own ecall on every profile: the cause follows the
// privilege and V (ecall from VS raises cause 10).
func TestTrapEntryHelperAgreesWithHW(t *testing.T) {
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			rng := newRng(t, 6)
			h := newHarness(t, mk())
			for i := 0; i < 500; i++ {
				s := h.GenState(rng)
				s.PC = 0x8000
				ref := s.Clone()
				refmodel.HW(h.RefCfg, s, rv.InstrEcall)
				cause := map[uint8]uint64{refmodel.U: rv.ExcEcallFromU,
					refmodel.S: rv.ExcEcallFromS, refmodel.M: rv.ExcEcallFromM}[ref.Priv]
				if ref.V && ref.Priv == refmodel.S {
					cause = rv.ExcEcallFromVS
				}
				refmodel.TakeException(h.RefCfg, ref, cause, 0)
				if ds := refmodel.Diff(h.RefCfg, ref, s); len(ds) > 0 {
					t.Fatalf("TakeException diverges from HW's ecall at round %d: %v", i, ds)
				}
			}
		})
	}
}

// TestFaithfulEmulationEndToEnd is the full pipeline sweep: every op kind
// with every CSR and random states, across all three platforms (the
// paper's 118-minute Kani run, here as exhaustive enumeration).
func TestFaithfulEmulationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep skipped in -short mode")
	}
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk())
			rng := newRng(t, 7)
			csrs := interestingCSRs(h)
			privOps := []uint32{rv.InstrMret, rv.InstrSret, rv.InstrWfi,
				rv.InstrEcall, rv.InstrEbreak, rv.InstrFence, rv.InstrFenceI,
				0x12000073}
			n := 0
			for round := 0; round < 12; round++ {
				for _, csr := range csrs {
					f3 := []uint32{1, 2, 3, 5, 6, 7}[rng.Intn(6)]
					rd := uint32(rng.Intn(32))
					rs1 := uint32(rng.Intn(32))
					s := h.GenState(rng)
					if err := h.CheckEmulation(s, encodeCSROp(f3, rd, rs1, csr), 0x5000); err != nil {
						t.Fatalf("%s: %v", rv.CSRName(csr), err)
					}
					n++
				}
				for _, raw := range privOps {
					s := h.GenState(rng)
					if err := h.CheckEmulation(s, raw, 0x6000); err != nil {
						t.Fatalf("%#x: %v", raw, err)
					}
					n++
				}
			}
			t.Logf("%d end-to-end cases", n)
		})
	}
}

// --- Faithful execution (Definition 2): memory protection ---

// expectedAccess computes the reference verdict for a direct-execution
// access under the virtual PMP file.
func expectedAccess(h *Harness, s *refmodel.State, addr uint64, size int, acc int, virtPriv uint8) bool {
	return refmodel.PMPCheck(h.RefCfg, s, addr, size, acc, virtPriv)
}

func protectedAddr(addr uint64, size int) bool {
	for _, r := range core.ProtectedRegions() {
		if addr+uint64(size) > r[0] && addr < r[1] {
			return true
		}
	}
	return false
}

// TestFaithfulExecutionPMP: for random virtual PMP files, the physical
// file installed by the monitor must (a) always fault accesses to monitor
// memory and virtual devices, and (b) elsewhere agree exactly with the
// reference machine running the virtual file.
func TestFaithfulExecutionPMP(t *testing.T) {
	for name, mk := range platforms() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk())
			rng := newRng(t, 8)
			phys := h.Machine.Harts[0].CSR.PMP

			addrCorpus := func(s *refmodel.State) []uint64 {
				addrs := []uint64{
					0, 8, core.MiralisBase - 8, core.MiralisBase,
					core.MiralisBase + core.MiralisSize - 8,
					core.MiralisBase + core.MiralisSize,
					core.FirmwareBase, core.OSBase, core.OSBase + 0x1000,
					hart.ClintBase - 8, hart.ClintBase, hart.ClintBase + 0xBFF8,
					hart.ClintBase + 0x10000, hart.UartBase, hart.DramBase,
				}
				for i := 0; i < h.RefCfg.PMPCount; i++ {
					lo, hi, ok := decodeVirtRegion(s, i)
					if ok {
						addrs = append(addrs, lo, lo+8, hi-8, hi, hi+8, lo-8)
					}
				}
				for i := 0; i < 32; i++ {
					addrs = append(addrs, rng.Uint64()%(1<<34)&^7)
				}
				return addrs
			}

			for round := 0; round < 120; round++ {
				s := h.GenState(rng)
				// vM-mode execution (no MPRV).
				h.Ctx.VirtMode = rv.ModeM
				h.Ctx.V.Mstatus &^= 1 << rv.MstatusMPRV
				h.Mon.VerifInstallPMP(h.Ctx, core.WorldFirmware)
				for _, addr := range addrCorpus(s) {
					for acc := 0; acc < 3; acc++ {
						got := phys.Check(addr, 8, accType(acc), rv.ModeU)
						var want bool
						if protectedAddr(addr, 8) {
							want = false
						} else {
							want = expectedAccess(h, s, addr, 8, acc, refmodel.M)
						}
						if got != want {
							t.Fatalf("fw world: addr %#x acc %d: phys=%v want=%v (round %d)",
								addr, acc, got, want, round)
						}
					}
				}
				// Direct execution (OS world): S-mode semantics.
				h.Ctx.VirtMode = rv.ModeS
				h.Mon.VerifInstallPMP(h.Ctx, core.WorldOS)
				for _, addr := range addrCorpus(s) {
					for acc := 0; acc < 3; acc++ {
						got := phys.Check(addr, 8, accType(acc), rv.ModeS)
						var want bool
						if protectedAddr(addr, 8) {
							want = false
						} else {
							want = expectedAccess(h, s, addr, 8, acc, refmodel.S)
						}
						if got != want {
							t.Fatalf("os world: addr %#x acc %d: phys=%v want=%v (round %d)",
								addr, acc, got, want, round)
						}
					}
				}
				// MPRV emulation window: all vM loads/stores must trap.
				h.Ctx.VirtMode = rv.ModeM
				h.Ctx.V.Mstatus |= 1 << rv.MstatusMPRV
				h.Ctx.V.SetMPP(rv.ModeS)
				h.Mon.VerifInstallPMP(h.Ctx, core.WorldFirmware)
				for _, addr := range addrCorpus(s)[:20] {
					if phys.Check(addr, 8, accType(0), rv.ModeU) {
						t.Fatalf("MPRV window: load at %#x must trap", addr)
					}
					if phys.Check(addr, 8, accType(1), rv.ModeU) {
						t.Fatalf("MPRV window: store at %#x must trap", addr)
					}
				}
			}
		})
	}
}

func accType(i int) (a mem.AccessType) {
	switch i {
	case 0:
		return mem.Read
	case 1:
		return mem.Write
	default:
		return mem.Exec
	}
}

// decodeVirtRegion decodes a virtual PMP entry from the reference state.
func decodeVirtRegion(s *refmodel.State, i int) (uint64, uint64, bool) {
	cfg := s.PmpCfg[i]
	addr := s.PmpAddr[i]
	switch cfg >> 3 & 3 {
	case 0:
		return 0, 0, false
	case 1:
		var base uint64
		if i > 0 {
			base = s.PmpAddr[i-1] << 2
		}
		if base >= addr<<2 {
			return 0, 0, false
		}
		return base, addr << 2, true
	case 2:
		return addr << 2, addr<<2 + 4, true
	default:
		g := 0
		for addr>>uint(g)&1 == 1 && g < 54 {
			g++
		}
		if g >= 54 {
			return 0, ^uint64(0), true
		}
		base := addr &^ (1<<uint(g) - 1) << 2
		return base, base + (8 << uint(g)), true
	}
}

// --- §6.5 bug-class regression corpus ---

// TestBugCorpusVirtualPCOverflow: emulating an instruction at the top of
// the address space must wrap, not panic, and match the reference.
func TestBugCorpusVirtualPCOverflow(t *testing.T) {
	h := newHarness(t, hart.VisionFive2())
	rng := newRng(t, 9)
	s := h.GenState(rng)
	h.Ctx.VirtMode = rv.ModeM
	s.Priv = refmodel.M
	epc := ^uint64(0) - 3 // PC + 4 wraps to 0
	raw := encodeCSROp(rv.F3Csrrs, 5, 0, rv.CSRMscratch)
	if err := h.CheckEmulation(s, raw, epc&^3); err != nil {
		t.Fatal(err)
	}
}

// TestBugCorpusVPMPOverrun: writes past the last virtual PMP entry must be
// rejected as illegal and must not touch any physical entry beyond the
// virtual window.
func TestBugCorpusVPMPOverrun(t *testing.T) {
	h := newHarness(t, hart.VisionFive2())
	rng := newRng(t, 10)
	s := h.GenState(rng)
	h.Ctx.VirtMode = rv.ModeM
	s.Priv = refmodel.M
	n := h.RefCfg.PMPCount
	raw := encodeCSROp(rv.F3Csrrw, 0, 5, rv.CSRPmpaddr0+uint16(n))
	h.Machine.Harts[0].SetReg(5, ^uint64(0))
	s.SetReg(5, ^uint64(0))
	if err := h.CheckEmulation(s, raw, 0x1000); err != nil {
		t.Fatal(err)
	}
	if s.PC == 0x1004 {
		t.Fatal("write past the virtual PMP window must trap as illegal")
	}
}

// TestBugCorpusReservedWR: the reserved W=1,R=0 combination must never be
// accepted into the virtual or physical PMP file.
func TestBugCorpusReservedWR(t *testing.T) {
	h := newHarness(t, hart.VisionFive2())
	rng := newRng(t, 11)
	s := h.GenState(rng)
	h.Ctx.VirtMode = rv.ModeM
	s.Priv = refmodel.M
	val := uint64(pmp.CfgW | pmp.ANapot<<3) // W without R
	h.Machine.Harts[0].SetReg(5, val)
	s.SetReg(5, val)
	raw := encodeCSROp(rv.F3Csrrw, 0, 5, rv.CSRPmpcfg0)
	if err := h.CheckEmulation(s, raw, 0x1000); err != nil {
		t.Fatal(err)
	}
	if h.Ctx.V.PMP.Cfg(0)&pmp.CfgW != 0 {
		t.Fatal("reserved W=1,R=0 leaked into the virtual PMP file")
	}
	h.Mon.VerifInstallPMP(h.Ctx, core.WorldOS)
	phys := h.Machine.Harts[0].CSR.PMP
	for i := 0; i < phys.NumEntries(); i++ {
		if phys.Cfg(i)&pmp.CfgW != 0 && phys.Cfg(i)&pmp.CfgR == 0 {
			t.Fatalf("reserved W=1,R=0 in physical entry %d", i)
		}
	}
}

// TestBugCorpusInterruptPriority: when several virtual interrupts pend,
// injection must follow MEI > MSI > MTI, matching the reference model.
func TestBugCorpusInterruptPriority(t *testing.T) {
	h := newHarness(t, hart.VisionFive2())
	rng := newRng(t, 12)
	s := h.GenState(rng)
	h.Ctx.VirtMode = rv.ModeM
	s.Priv = refmodel.M
	h.Ctx.V.Mstatus |= 1 << 3 // vMIE
	s.Status.MIE = true
	h.Ctx.V.Mie = rv.MIntMask
	s.Mie = rv.MIntMask
	h.Ctx.V.MipSW = 0
	s.MipSW = 0
	vc := h.Mon.VClint()
	vc.SetVirtMtimecmp(0, 0) // vMTIP
	vc.SetVirtMsip(0, true)  // vMSIP
	s.MipHW = vc.VirtPending(0)
	if err := h.CheckInterruptInjection(s, 0x9000); err != nil {
		t.Fatal(err)
	}
	if rv.CauseCode(h.Ctx.V.Mcause) != rv.IntMSoft {
		t.Fatalf("MSI must beat MTI, got cause %s", rv.CauseString(h.Ctx.V.Mcause))
	}
}

// TestBugCorpusInterruptLossAcrossWorldSwitch: a pending STIP installed by
// the fast path must survive an OS -> firmware -> OS round trip.
func TestBugCorpusInterruptLossAcrossWorldSwitch(t *testing.T) {
	h := newHarness(t, hart.VisionFive2())
	hh := h.Machine.Harts[0]
	// OS world with STIP pending.
	h.Ctx.VirtMode = rv.ModeS
	hh.CSR.SetMip(1 << rv.IntSTimer)
	if hh.CSR.Mip(0)&(1<<rv.IntSTimer) == 0 {
		t.Fatal("precondition: STIP set")
	}
	// Re-inject a trap into the firmware (world switch in), then emulate
	// the firmware's mret back out (world switch out).
	h.Mon.VerifInjectTrap(h.Ctx, rv.ExcEcallFromS, 0, 0x8000_0000)
	h.Mon.VerifWorldSwitch(h.Ctx, core.WorldFirmware)
	if hh.CSR.Mip(0)&(1<<rv.IntSTimer) != 0 {
		t.Fatal("physical STIP must be hidden while the firmware world runs")
	}
	h.Mon.VerifEmulate(h.Ctx, rv.InstrMret, 0x8010_0000)
	if h.Ctx.VirtMode != rv.ModeS {
		t.Fatalf("mret must return to the OS world, mode %v", h.Ctx.VirtMode)
	}
	h.Mon.VerifWorldSwitch(h.Ctx, core.WorldOS)
	if hh.CSR.Mip(0)&(1<<rv.IntSTimer) == 0 {
		t.Fatal("STIP lost across the OS->firmware->OS world-switch round trip")
	}
}

// TestPMPImplementationsAgree differentially checks the two independently
// written PMP matchers — the simulator's (internal/pmp) and the reference
// model's (refmodel.PMPCheck) — over random register files and accesses.
// This is the substrate-level analog of faithful execution: the oracle
// itself is cross-validated.
func TestPMPImplementationsAgree(t *testing.T) {
	rng := newRng(t, 99)
	for round := 0; round < 400; round++ {
		n := 1 + rng.Intn(16)
		f := pmp.NewFile(n)
		s := refmodel.NewState()
		c := &refmodel.Config{PMPCount: n}
		for i := 0; i < n; i++ {
			addr := rng.Uint64() >> uint(rng.Intn(40))
			cfg := uint8(rng.Uint32())
			f.SetAddr(i, addr)
			f.SetCfg(i, cfg)
			s.PmpAddr[i] = f.Addr(i)
			s.PmpCfg[i] = f.Cfg(i)
		}
		for k := 0; k < 200; k++ {
			addr := rng.Uint64() >> uint(rng.Intn(40))
			size := []int{1, 2, 4, 8}[rng.Intn(4)]
			accI := rng.Intn(3)
			mode := []rv.Mode{rv.ModeU, rv.ModeS, rv.ModeM}[rng.Intn(3)]
			got := f.Check(addr, size, mem.AccessType(accI), mode)
			want := refmodel.PMPCheck(c, s, addr, size, accI, uint8(mode))
			if got != want {
				t.Fatalf("round %d: addr=%#x size=%d acc=%d mode=%v: pmp=%v ref=%v\ncfg=%v addr=%v",
					round, addr, size, accI, mode, got, want,
					s.PmpCfg[:n], s.PmpAddr[:n])
			}
		}
	}
}
