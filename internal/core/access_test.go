package core

import (
	"fmt"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/dev/iopmp"
	"govfm/internal/hart"
	"govfm/internal/mmu"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// Native-vs-monitor checks of the accesses the monitor performs for the
// firmware (access.go): each firmware image runs on the bare machine and
// under the monitor, and the two runs must leave the same results.

// Addresses the access tests use, all in OS memory: a page V that a
// translation maps to page P, the walker's page-table pool, and a 16 KiB
// aligned G-stage root.
const (
	accV     = OSBase + 0x20_0000
	accP     = OSBase + 0x30_0000
	accPool  = OSBase + 0x10_0000
	accGRoot = OSBase + 0x14_0000

	// accG is the guest-physical address of P under accGStage's gigapage
	// (GPA 4 GiB onwards maps to DRAM); accGHole has no G-stage mapping.
	accG     = 1<<32 + accP - hart.DramBase
	accGHole = 5 << 30

	// accSatp and accHgatp select the tables accVSStage and accGStage
	// build (the builder's root is the pool's first page).
	accSatp  = rv.SatpModeSv39<<60 | accPool>>12
	accHgatp = rv.HgatpModeSv39x4<<60 | accGRoot>>12

	// noTrap marks a run whose body took no trap (the S5 slot).
	noTrap = 0x7a7a
)

// accessRun is one firmware image run natively and under the monitor. body
// runs in M-mode on hart 0 after a prologue that installs a trap vector and
// grants all memory to every privilege through pmpaddr0/pmpcfg0; it leaves
// its results in S1..S4. A trap ends the body with mcause, mtval and, on a
// platform with H, mtval2 in S5..S7.
type accessRun struct {
	cfg   func() *hart.Config
	opts  Options
	setup func(t *testing.T, m *hart.Machine)
	body  func(a *asm.Asm)
	watch []uint64 // physical doublewords compared after the run
}

// accessFirmware assembles the image of an accessRun with body and returns
// it with the address of its result slots (S1..S7, one doubleword each).
func accessFirmware(hasH bool, body func(a *asm.Asm)) ([]byte, uint64) {
	a := asm.New(FirmwareBase)
	a.La(asm.T0, "trap")
	a.Csrw(rv.CSRMtvec, asm.T0)
	a.Li(asm.T0, rv.Mask(54))
	a.Csrw(rv.CSRPmpaddr0, asm.T0)
	a.Li(asm.T0, pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)
	a.Csrw(rv.CSRPmpcfg0, asm.T0)
	a.Li(asm.S5, noTrap)
	body(a)
	a.Label("done")
	a.Li(asm.T0, 1<<rv.MstatusMPRV)
	a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
	a.La(asm.T0, "results")
	for i, r := range []int{asm.S1, asm.S2, asm.S3, asm.S4, asm.S5, asm.S6, asm.S7} {
		a.Sd(r, asm.T0, int64(8*i))
	}
	a.Li(asm.T0, hart.ExitBase)
	a.Li(asm.T1, hart.ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	a.Label("hang")
	a.J("hang")
	a.Label("trap")
	a.Csrr(asm.S5, rv.CSRMcause)
	a.Csrr(asm.S6, rv.CSRMtval)
	if hasH {
		a.Csrr(asm.S7, rv.CSRMtval2)
	}
	a.J("done")
	a.Align(8)
	a.Label("results")
	a.Space(8 * 7)
	img := a.MustAssemble()
	return img, a.Addr("results")
}

// run executes r natively or under the monitor and returns the result
// slots followed by the watched doublewords.
func (r accessRun) run(t *testing.T, virtualize bool) []uint64 {
	t.Helper()
	cfg := r.cfg()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, DramSize)
	if err != nil {
		t.Fatal(err)
	}
	img, results := accessFirmware(cfg.HasH, r.body)
	if err := m.LoadImage(FirmwareBase, img); err != nil {
		t.Fatal(err)
	}
	if r.setup != nil {
		r.setup(t, m)
	}
	bootAccess(t, m, r.opts, virtualize)
	var out []uint64
	for i := 0; i < 7; i++ {
		v, _ := m.Bus.Load(results+uint64(8*i), 8)
		out = append(out, v)
	}
	for _, pa := range r.watch {
		v, _ := m.Bus.Load(pa, 8)
		out = append(out, v)
	}
	return out
}

// bootAccess starts m at the firmware entry, natively or under the monitor
// with opts, and runs it to a passing exit.
func bootAccess(t *testing.T, m *hart.Machine, opts Options, virtualize bool) {
	t.Helper()
	if virtualize {
		opts.FirmwareEntry = FirmwareBase
		mon, err := Attach(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		mon.Boot()
	} else {
		m.Reset(FirmwareBase)
	}
	m.Run(1_000_000)
	if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
		t.Fatalf("virtualize=%v: halted=%v %q (pc=%#x)", virtualize, ok, reason, m.Harts[0].PC)
	}
}

// compare runs r both ways and fails on any differing slot; it returns the
// native slots for the caller's own expectations.
func (r accessRun) compare(t *testing.T) []uint64 {
	t.Helper()
	native, virt := r.run(t, false), r.run(t, true)
	names := []string{"s1", "s2", "s3", "s4", "mcause", "mtval", "mtval2"}
	for _, pa := range r.watch {
		names = append(names, fmt.Sprintf("mem[%#x]", pa))
	}
	for i := range native {
		if native[i] != virt[i] {
			t.Errorf("%s: native %#x, monitor %#x", names[i], native[i], virt[i])
		}
	}
	return native
}

// accVSStage builds the Sv39 table accSatp selects, mapping V to P with
// flags, and plants distinct words in both pages.
func accVSStage(t *testing.T, m *hart.Machine, flags uint64) {
	t.Helper()
	b, err := mmu.NewBuilder(m.Bus, accPool, 0x1_0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Map(accV, accP, flags); err != nil {
		t.Fatal(err)
	}
	if b.Satp() != accSatp {
		t.Fatalf("table root %#x, want the pool's first page", b.Root())
	}
	accPlant(m)
}

// accGStage installs the Sv39x4 G-stage root accHgatp selects: its one
// gigapage maps GPA 4 GiB onwards to DRAM, so accG reaches P. It plants
// the words too.
func accGStage(m *hart.Machine) {
	m.Bus.Store(accGRoot+4*8, 8, hart.DramBase>>12<<10|
		mmu.PteV|mmu.PteR|mmu.PteW|mmu.PteX|mmu.PteU|mmu.PteA|mmu.PteD)
	accPlant(m)
}

func accPlant(m *hart.Machine) {
	m.Bus.Store(accV, 8, 0xaaaa)
	m.Bus.Store(accP, 8, 0xf1e2d3c4b5a69788)
}

// setMPRV emits the mstatus write that makes the following data accesses
// run at MPP=mpp with MPV=mpv under MPRV.
func setMPRV(a *asm.Asm, mpp rv.Mode, mpv bool) {
	a.Li(asm.T0, 3<<rv.MstatusMPPLo|1<<rv.MstatusMPV)
	a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
	bits := uint64(1)<<rv.MstatusMPRV | uint64(mpp)<<rv.MstatusMPPLo
	if mpv {
		bits |= 1 << rv.MstatusMPV
	}
	a.Li(asm.T0, bits)
	a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
}

// TestEmulatedAccessMatchesNative holds the monitor's emulated accesses to
// the bare machine where the one access path closed a divergence: MPRV
// with MPV (through a VS-stage and a G-stage table, and their faults), LR,
// SC and AMOs on the virtual PLIC and IOPMP windows, and a locked virtual
// PMP entry over a device window.
func TestEmulatedAccessMatchesNative(t *testing.T) {
	vsLoad := func(va uint64) func(a *asm.Asm) {
		return func(a *asm.Asm) {
			a.Li(asm.T0, accSatp)
			a.Csrw(rv.CSRVsatp, asm.T0)
			setMPRV(a, rv.ModeS, true)
			a.Li(asm.T1, va)
			a.Ld(asm.S1, asm.T1, 0)
		}
	}
	gLoad := func(va uint64) func(a *asm.Asm) {
		return func(a *asm.Asm) {
			a.Li(asm.T0, accHgatp)
			a.Csrw(rv.CSRHgatp, asm.T0)
			setMPRV(a, rv.ModeS, true)
			a.Li(asm.T1, va)
			a.Ld(asm.S1, asm.T1, 0)
		}
	}
	vsTable := func(t *testing.T, m *hart.Machine) {
		accVSStage(t, m, mmu.PteR|mmu.PteW)
	}
	gTable := func(t *testing.T, m *hart.Machine) { accGStage(m) }
	plic := func(body func(a *asm.Asm)) accessRun {
		return accessRun{
			cfg:  hart.VisionFive2,
			opts: Options{VirtualizePLIC: true},
			body: func(a *asm.Asm) {
				a.Li(asm.T0, hart.PlicBase+4) // source 1's priority
				a.Li(asm.T1, 3)
				a.Sw(asm.T1, asm.T0, 0)
				body(a)
				a.Lw(asm.S4, asm.T0, 0)
			},
		}
	}
	iopmpCfg := func() *hart.Config {
		cfg := hart.VisionFive2()
		cfg.NumPMP = 16
		cfg.HasIOPMP = true
		return cfg
	}
	cases := []struct {
		name string
		run  accessRun
		// want checks the native slots, so that a row cannot pass by
		// both sides doing nothing.
		want func(s []uint64) bool
	}{
		{"mprv-mpv-vs-load", accessRun{cfg: hart.PremierP550, setup: vsTable, body: vsLoad(accV)},
			func(s []uint64) bool { return s[0] == 0xf1e2d3c4b5a69788 && s[4] == noTrap }},
		{"mprv-mpv-vs-fault", accessRun{cfg: hart.PremierP550, setup: vsTable, body: vsLoad(accV + 0x1000)},
			func(s []uint64) bool { return s[4] == rv.ExcLoadPageFault && s[5] == accV+0x1000 }},
		{"mprv-mpv-vs-store", accessRun{cfg: hart.PremierP550, setup: vsTable,
			body: func(a *asm.Asm) {
				a.Li(asm.T0, accSatp)
				a.Csrw(rv.CSRVsatp, asm.T0)
				setMPRV(a, rv.ModeS, true)
				a.Li(asm.T1, accV)
				a.Li(asm.T2, 0xcccc)
				a.Sd(asm.T2, asm.T1, 0)
			}, watch: []uint64{accV, accP}},
			func(s []uint64) bool { return s[7] == 0xaaaa && s[8] == 0xcccc }},
		{"mprv-mpv-g-load", accessRun{cfg: hart.PremierP550, setup: gTable, body: gLoad(accG)},
			func(s []uint64) bool { return s[0] == 0xf1e2d3c4b5a69788 && s[4] == noTrap }},
		{"mprv-mpv-g-fault", accessRun{cfg: hart.PremierP550, setup: gTable, body: gLoad(accGHole)},
			func(s []uint64) bool {
				return s[4] == rv.ExcLoadGuestPageFault && s[5] == accGHole && s[6] == accGHole>>2
			}},
		{"lr.w-vplic", plic(func(a *asm.Asm) {
			a.LrW(asm.S1, asm.T0)
		}), func(s []uint64) bool { return s[0] == 3 && s[3] == 3 }},
		{"sc.w-vplic", plic(func(a *asm.Asm) {
			a.LrW(asm.S1, asm.T0)
			a.Li(asm.T1, 5)
			a.ScW(asm.S2, asm.T0, asm.T1)
		}), func(s []uint64) bool { return s[0] == 3 && s[1] == 0 && s[3] == 5 }},
		{"amoor.w-vplic", plic(func(a *asm.Asm) {
			a.Li(asm.T1, 2)
			a.Sw(asm.T1, asm.T0, 0)
			a.Li(asm.T1, 1)
			a.AmoorW(asm.S1, asm.T0, asm.T1)
		}), func(s []uint64) bool { return s[0] == 2 && s[3] == 3 }},
		{"amoor.d-viopmp", accessRun{cfg: iopmpCfg, opts: Options{VirtualizeIOPMP: true},
			body: func(a *asm.Asm) {
				a.Li(asm.T0, hart.IOPMPBase+iopmp.AddrOff)
				a.Li(asm.T1, 2)
				a.Sd(asm.T1, asm.T0, 0)
				a.Li(asm.T1, 1)
				a.AmoorD(asm.S1, asm.T0, asm.T1)
				a.Ld(asm.S2, asm.T0, 0)
			}}, func(s []uint64) bool { return s[0] == 2 && s[1] == 3 }},
		{"locked-entry-over-clint", accessRun{cfg: hart.VisionFive2,
			body: func(a *asm.Asm) {
				a.Li(asm.T0, pmp.NAPOTAddr(hart.ClintBase, clintSize))
				a.Csrw(rv.CSRPmpaddr0, asm.T0)
				a.Li(asm.T0, rv.Mask(54))
				a.Csrw(rv.CSRPmpaddr0+1, asm.T0)
				a.Li(asm.T0, uint64(pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)<<8|
					pmp.CfgL|pmp.ANapot<<3)
				a.Csrw(rv.CSRPmpcfg0, asm.T0)
				a.Li(asm.T1, hart.ClintBase+0x4000) // mtimecmp
				a.Ld(asm.S1, asm.T1, 0)
			}}, func(s []uint64) bool {
			return s[4] == rv.ExcLoadAccessFault && s[5] == hart.ClintBase+0x4000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if s := tc.run.compare(t); !tc.want(s) {
				t.Errorf("native run did not behave as the row expects: %#x", s)
			}
		})
	}
}

// TestHLSVMatchesNative holds the monitor's hlv/hlvx/hsv to the hart's
// own (Hart.hlsv): hlv.d, hlv.wu, hlvx.hu and hsv.w under SPVP 0 and 1,
// through a VS-stage table (a U page, which VS-mode may not touch without
// SUM) and through a G-stage table, including a guest-page fault's GPA.
func TestHLSVMatchesNative(t *testing.T) {
	ops := []struct {
		name string
		emit func(a *asm.Asm)
	}{
		{"hlv.d", func(a *asm.Asm) { a.Hlv(asm.S1, asm.T1, 8, false) }},
		{"hlv.wu", func(a *asm.Asm) { a.Hlv(asm.S1, asm.T1, 4, true) }},
		{"hlvx.hu", func(a *asm.Asm) { a.Hlvx(asm.S1, asm.T1, 2) }},
		{"hsv.w", func(a *asm.Asm) {
			a.Li(asm.T2, 0x1234_5678_9abc_def0)
			a.Hsv(asm.T2, asm.T1, 4)
		}},
	}
	vsTable := func(t *testing.T, m *hart.Machine) {
		accVSStage(t, m, mmu.PteR|mmu.PteW|mmu.PteX|mmu.PteU)
	}
	gTable := func(t *testing.T, m *hart.Machine) { accGStage(m) }
	stages := []struct {
		name     string
		csr      uint16
		root, va uint64
		setup    func(t *testing.T, m *hart.Machine)
	}{
		{"vs", rv.CSRVsatp, accSatp, accV, vsTable},
		{"g", rv.CSRHgatp, accHgatp, accG, gTable},
		{"g-hole", rv.CSRHgatp, accHgatp, accGHole, gTable},
	}
	for _, st := range stages {
		for spvp := 0; spvp < 2; spvp++ {
			for _, op := range ops {
				t.Run(fmt.Sprintf("%s/spvp%d/%s", st.name, spvp, op.name), func(t *testing.T) {
					r := accessRun{cfg: hart.PremierP550, setup: st.setup, watch: []uint64{accV, accP}}
					r.body = func(a *asm.Asm) {
						a.Li(asm.T0, st.root)
						a.Csrw(st.csr, asm.T0)
						a.Li(asm.T0, 1<<rv.HstatusSPVP)
						if spvp == 1 {
							a.Csrrs(asm.X0, rv.CSRHstatus, asm.T0)
						} else {
							a.Csrrc(asm.X0, rv.CSRHstatus, asm.T0)
						}
						a.Li(asm.T1, st.va)
						op.emit(a)
					}
					s := r.compare(t)
					trapped := s[4] != noTrap
					switch {
					case st.name == "g-hole":
						if s[6] != accGHole>>2 || s[5] != accGHole {
							t.Errorf("native guest-page fault: mtval %#x mtval2 %#x", s[5], s[6])
						}
					case st.name == "vs" && spvp == 1:
						if !trapped {
							t.Error("native VS-mode access to a U page without SUM must fault")
						}
					case trapped:
						t.Errorf("native access trapped: mcause %#x", s[4])
					}
				})
			}
		}
	}
}

// TestEmulatedStoresKillPeerReservations: a store the monitor performs for
// the firmware kills every hart's reservation on its doubleword, as the
// hart's own store does. Hart 1 takes a reservation on X from S-mode; hart
// 0's firmware then stores to X on the monitor's path, and hart 1's sc.d
// must fail on both machines.
func TestEmulatedStoresKillPeerReservations(t *testing.T) {
	const (
		x      = OSBase + 0x40_0000
		flagLR = x + 0x100 // hart 1 holds its reservation
		flagGo = x + 0x108 // hart 0 has stored
		out    = x + 0x110 // hart 1's sc.d result, then X, then done
	)
	cases := []struct {
		name  string
		cfg   func() *hart.Config
		store func(a *asm.Asm) // hart 0's store to X (address in T1, value in T2)
	}{
		{"mprv-sd", hart.VisionFive2, func(a *asm.Asm) {
			setMPRV(a, rv.ModeS, false)
			a.Sd(asm.T2, asm.T1, 0)
		}},
		{"mprv-sc.d", hart.VisionFive2, func(a *asm.Asm) {
			setMPRV(a, rv.ModeS, false)
			a.LrD(asm.T3, asm.T1)
			a.ScD(asm.S1, asm.T1, asm.T2)
		}},
		{"mprv-amoadd.d", hart.VisionFive2, func(a *asm.Asm) {
			setMPRV(a, rv.ModeS, false)
			a.AmoaddD(asm.S1, asm.T1, asm.T2)
		}},
		{"hsv.d", hart.PremierP550, func(a *asm.Asm) {
			a.Hsv(asm.T2, asm.T1, 8)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][4]uint64
			for i, virtualize := range []bool{false, true} {
				cfg := tc.cfg()
				cfg.Harts = 2
				m, err := hart.NewMachine(cfg, DramSize)
				if err != nil {
					t.Fatal(err)
				}
				img, _ := accessFirmware(cfg.HasH, func(a *asm.Asm) {
					a.Csrr(asm.T0, rv.CSRMhartid)
					a.Bnez(asm.T0, "hart1")
					a.Li(asm.T0, flagLR)
					a.Label("wait-lr")
					a.Ld(asm.T3, asm.T0, 0)
					a.Beqz(asm.T3, "wait-lr")
					a.Li(asm.T1, x)
					a.Li(asm.T2, 0x77)
					tc.store(a)
					a.Li(asm.T0, 1<<rv.MstatusMPRV)
					a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
					a.Li(asm.T0, flagGo)
					a.Li(asm.T3, 1)
					a.Sd(asm.T3, asm.T0, 0)
					a.Li(asm.T0, out+16)
					a.Label("wait-done")
					a.Ld(asm.T3, asm.T0, 0)
					a.Beqz(asm.T3, "wait-done")
					a.J("done")

					// Hart 1: drop to S-mode, reserve X, wait, then sc.d.
					a.Label("hart1")
					a.La(asm.T0, "hart1-s")
					a.Csrw(rv.CSRMepc, asm.T0)
					a.Li(asm.T0, 3<<rv.MstatusMPPLo)
					a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
					a.Li(asm.T0, 1<<rv.MstatusMPPLo)
					a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
					a.Mret()
					a.Label("hart1-s")
					a.Li(asm.T1, x)
					a.LrD(asm.T3, asm.T1)
					a.Li(asm.T0, flagLR)
					a.Li(asm.T4, 1)
					a.Sd(asm.T4, asm.T0, 0)
					a.Li(asm.T0, flagGo)
					a.Label("wait-go")
					a.Ld(asm.T3, asm.T0, 0)
					a.Beqz(asm.T3, "wait-go")
					a.Li(asm.T2, 0x99)
					a.ScD(asm.T5, asm.T1, asm.T2)
					a.Li(asm.T0, out)
					a.Sd(asm.T5, asm.T0, 0)
					a.Ld(asm.T3, asm.T1, 0)
					a.Sd(asm.T3, asm.T0, 8)
					a.Sd(asm.T4, asm.T0, 16)
					a.Label("hart1-spin")
					a.J("hart1-spin")
				})
				if err := m.LoadImage(FirmwareBase, img); err != nil {
					t.Fatal(err)
				}
				bootAccess(t, m, Options{}, virtualize)
				for j := range got[i] {
					got[i][j], _ = m.Bus.Load(out+uint64(8*j), 8)
				}
				got[i][3] = m.Harts[0].Reg(asm.S1)
			}
			native, virt := got[0], got[1]
			if native[0] != 1 || native[1] != 0x77 {
				t.Fatalf("native: hart 1's sc.d = %d with X = %#x, want a failed SC and X = 0x77", native[0], native[1])
			}
			if native != virt {
				t.Errorf("hart 1's sc.d, X, done, hart 0's rd: native %#x, monitor %#x", native, virt)
			}
		})
	}
}
