// Package policy_test exercises the three isolation policies end to end:
// full boots of unmodified firmware with guest kernels driving enclaves,
// confidential VMs, and sandbox-violation scenarios.
package policy_test

import (
	"strings"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
	"govfm/internal/pmp"
	"govfm/internal/policy/ace"
	"govfm/internal/policy/keystone"
	"govfm/internal/policy/sandbox"
	"govfm/internal/rv"
)

// boot brings up gosbi + the given kernel image under the monitor with the
// given policy and runs to halt.
func boot(t *testing.T, cfg *hart.Config, pol core.Policy, kern []byte,
	fwOpt firmware.Options, maxSteps uint64) (*hart.Machine, *core.Monitor) {
	t.Helper()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fwOpt.OSEntry = core.OSBase
	fwOpt.Harts = 1
	fwOpt.FirmwareSize = core.FirmwareSize
	fw := firmware.BuildGosbi(core.FirmwareBase, fwOpt)
	if err := m.LoadImage(core.FirmwareBase, fw.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(core.OSBase, kern); err != nil {
		t.Fatal(err)
	}
	mon, err := core.Attach(m, core.Options{
		Policy: pol, Offload: true, FirmwareEntry: core.FirmwareBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	m.Run(maxSteps)
	return m, mon
}

func results(t *testing.T, m *hart.Machine, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	for i := range out {
		v, ok := m.Bus.Load(kernel.DemoResultAddr+uint64(8*i), 8)
		if !ok {
			t.Fatalf("result %d unreadable", i)
		}
		out[i] = v
	}
	return out
}

func mustExitPass(t *testing.T, m *hart.Machine) {
	t.Helper()
	ok, reason := m.Halted()
	if !ok || reason != "guest-exit-pass" {
		t.Fatalf("halted=%v reason=%q hart0=%v", ok, reason, m.Harts[0])
	}
}

// --- Sandbox policy (paper §5.2) ---

func TestSandboxBootsCleanFirmware(t *testing.T) {
	pol := sandbox.New(sandbox.Options{})
	kern := kernel.BuildBoot(core.OSBase, kernel.BootOptions{
		Harts: 1, TimeReads: 5, TimerSets: 1, Misaligned: 0,
	})
	m, _ := boot(t, hart.VisionFive2(), pol, kern, firmware.Options{}, 5_000_000)
	mustExitPass(t, m)
	if pol.BootHash == 0 {
		t.Error("lockdown must hash the initial S-mode image")
	}
	if pol.Violations != 0 {
		t.Errorf("clean firmware produced %d violations", pol.Violations)
	}
}

func TestSandboxBlocksOSMemoryRead(t *testing.T) {
	pol := sandbox.New(sandbox.Options{})
	kern := kernel.BuildEvilTrigger(core.OSBase)
	m, _ := boot(t, hart.VisionFive2(), pol, kern,
		firmware.Options{EvilMode: "read-os", EvilTarget: core.OSBase + 0x8000},
		5_000_000)
	ok, reason := m.Halted()
	if !ok || !strings.Contains(reason, "miralis") {
		t.Fatalf("sandbox must stop the machine on firmware OS-memory read, got %q", reason)
	}
}

func TestSandboxBlocksOSMemoryWrite(t *testing.T) {
	pol := sandbox.New(sandbox.Options{})
	kern := kernel.BuildEvilTrigger(core.OSBase)
	m, _ := boot(t, hart.VisionFive2(), pol, kern,
		firmware.Options{EvilMode: "write-os", EvilTarget: core.OSBase + 0x8000},
		5_000_000)
	ok, reason := m.Halted()
	if !ok || !strings.Contains(reason, "miralis") {
		t.Fatalf("sandbox must stop the machine on firmware OS-memory write, got %q", reason)
	}
}

func TestSandboxBlocksDMAExfiltration(t *testing.T) {
	pol := sandbox.New(sandbox.Options{})
	kern := kernel.BuildEvilTrigger(core.OSBase)
	m, _ := boot(t, hart.VisionFive2(), pol, kern,
		firmware.Options{EvilMode: "dma"}, 5_000_000)
	ok, reason := m.Halted()
	if !ok || !strings.Contains(reason, "miralis") {
		t.Fatalf("sandbox must stop the machine on firmware DMA access, got %q", reason)
	}
}

func TestWithoutSandboxEvilFirmwareSucceeds(t *testing.T) {
	// Control experiment: without the sandbox the same malicious firmware
	// reads OS memory unimpeded — the exact gap the policy closes.
	kern := kernel.BuildEvilTrigger(core.OSBase)
	m, _ := boot(t, hart.VisionFive2(), nil, kern,
		firmware.Options{EvilMode: "read-os", EvilTarget: core.OSBase}, 5_000_000)
	mustExitPass(t, m)
}

func TestSandboxReportMode(t *testing.T) {
	var logged []string
	pol := sandbox.New(sandbox.Options{
		Report: true,
		Log:    func(f string, a ...any) { logged = append(logged, f) },
	})
	kern := kernel.BuildEvilTrigger(core.OSBase)
	m, _ := boot(t, hart.VisionFive2(), pol, kern,
		firmware.Options{EvilMode: "read-os", EvilTarget: core.OSBase + 0x8000},
		5_000_000)
	// Production behaviour: log, skip, keep running to a clean exit.
	mustExitPass(t, m)
	if pol.Violations == 0 || len(logged) == 0 {
		t.Error("report mode must record the violation")
	}
}

func TestSandboxGPRAllowList(t *testing.T) {
	const secret = 0xDEADBEEFCAFE
	// Without the sandbox the evil echo extension leaks the caller's s7.
	kern := kernel.BuildSecretCaller(core.OSBase, secret)
	m, _ := boot(t, hart.VisionFive2(), nil, kern,
		firmware.Options{EvilMode: "echo-s7"}, 5_000_000)
	mustExitPass(t, m)
	r := results(t, m, 2)
	if r[0] != secret {
		t.Fatalf("control run: firmware should see s7=%#x, got %#x", secret, r[0])
	}
	// With the sandbox, s7 is outside the SBI register allow-list: the
	// firmware sees zero, and the OS's s7 survives the round trip.
	pol := sandbox.New(sandbox.Options{})
	kern = kernel.BuildSecretCaller(core.OSBase, secret)
	m, _ = boot(t, hart.VisionFive2(), pol, kern,
		firmware.Options{EvilMode: "echo-s7"}, 5_000_000)
	mustExitPass(t, m)
	r = results(t, m, 2)
	if r[0] == secret {
		t.Error("sandbox failed to scrub s7 from the firmware's view")
	}
	if r[0] != 0 {
		t.Errorf("scrubbed register should read 0, got %#x", r[0])
	}
	if r[1] != secret {
		t.Errorf("OS's s7 must be restored after the call, got %#x", r[1])
	}
}

// --- Keystone policy (paper §5.3) ---

func TestKeystoneEnclaveLifecycle(t *testing.T) {
	pol := keystone.New()
	host := kernel.BuildKeystoneHost(core.OSBase, 100, false)
	enclave := kernel.BuildEnclavePayload(kernel.EnclaveBase, 100)

	cfg := hart.VisionFive2()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	for _, img := range []struct {
		base uint64
		b    []byte
	}{{core.FirmwareBase, fw.Bytes}, {core.OSBase, host}, {kernel.EnclaveBase, enclave}} {
		if err := m.LoadImage(img.base, img.b); err != nil {
			t.Fatal(err)
		}
	}
	mon, err := core.Attach(m, core.Options{
		Policy: pol, Offload: true, FirmwareEntry: core.FirmwareBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	m.Run(10_000_000)
	mustExitPass(t, m)

	r := results(t, m, 6)
	if r[0] != 0 {
		t.Errorf("create returned %#x", r[0])
	}
	if r[1] != 5050 { // sum 1..100
		t.Errorf("enclave result = %d, want 5050", r[1])
	}
	if r[3] != 1 {
		t.Error("host read of enclave memory must fault")
	}
	if r[4] != 0 {
		t.Errorf("destroy returned %#x", r[4])
	}
	if r[5] != 0 {
		t.Errorf("enclave memory must be scrubbed on destroy, read %#x", r[5])
	}
}

func TestKeystonePreemption(t *testing.T) {
	pol := keystone.New()
	host := kernel.BuildKeystoneHost(core.OSBase, 0, true)
	enclave := kernel.BuildEnclavePayload(kernel.EnclaveBase, 40000)

	cfg := hart.VisionFive2()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	_ = m.LoadImage(core.FirmwareBase, fw.Bytes)
	_ = m.LoadImage(core.OSBase, host)
	_ = m.LoadImage(kernel.EnclaveBase, enclave)
	mon, err := core.Attach(m, core.Options{
		Policy: pol, Offload: true, FirmwareEntry: core.FirmwareBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	m.Run(30_000_000)
	mustExitPass(t, m)
	r := results(t, m, 3)
	want := uint64(40000) * 40001 / 2
	if r[1] != want {
		t.Errorf("enclave result = %d, want %d", r[1], want)
	}
	if r[2] == 0 {
		t.Error("the enclave must have been preempted at least once")
	}
	t.Logf("preemptions: %d", r[2])
}

// --- ACE policy (paper §5.4) ---

func testACE(t *testing.T, cfg *hart.Config) {
	pol := ace.New()
	host := kernel.BuildACEHost(core.OSBase)
	guest := kernel.BuildCVMGuest(kernel.CVMBase)

	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	_ = m.LoadImage(core.FirmwareBase, fw.Bytes)
	_ = m.LoadImage(core.OSBase, host)
	_ = m.LoadImage(kernel.CVMBase, guest)
	mon, err := core.Attach(m, core.Options{
		Policy: pol, Offload: true, FirmwareEntry: core.FirmwareBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	m.Run(10_000_000)
	mustExitPass(t, m)

	r := results(t, m, 6)
	if r[0] != 0 {
		t.Errorf("promote returned %#x", r[0])
	}
	if r[1] != 0x600D {
		t.Errorf("guest exit value = %#x", r[1])
	}
	if r[2] != 0x9A9A9A {
		t.Errorf("shared page value = %#x", r[2])
	}
	if r[3] != 1 {
		t.Error("host read of CVM private memory must fault")
	}
	if r[4] != 0 {
		t.Errorf("destroy returned %#x", r[4])
	}
	if r[5] == 0 || r[5] == ace.ErrInvalidParam {
		t.Errorf("attest returned %#x, want a nonzero measurement", r[5])
	}
	if err := pol.CheckInvariants(); err != nil {
		t.Errorf("ace invariants after demo: %v", err)
	}
}

func TestACEConfidentialVM(t *testing.T) {
	testACE(t, hart.VisionFive2())
}

func TestACEConfidentialVMOnP550(t *testing.T) {
	// The P550 has the hypervisor extension: the policy additionally
	// shadows the host's H CSRs away from the CVM.
	testACE(t, hart.PremierP550())
}

// TestSandboxWithIOPMP: on a platform with a (virtualized) IOPMP, the
// sandbox leaves the DMA controller usable and relies on its IOPMP rule:
// the DMA exfiltration attempt fails silently and the system keeps
// running — the paper's preferred §4.3 design point.
func TestSandboxWithIOPMP(t *testing.T) {
	cfg := hart.VisionFive2()
	cfg.Harts = 1
	cfg.NumPMP = 16
	cfg.HasIOPMP = true
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
		EvilMode: "dma", EvilTarget: core.OSBase + 0x8000,
	})
	_ = m.LoadImage(core.FirmwareBase, fw.Bytes)
	_ = m.LoadImage(core.OSBase, kernel.BuildEvilTrigger(core.OSBase))
	if !m.Bus.Store(core.OSBase+0x8000, 8, 0x5EC4E7) {
		t.Fatal("marker store failed")
	}
	pol := sandbox.New(sandbox.Options{})
	mon, err := core.Attach(m, core.Options{
		Policy: pol, Offload: true, FirmwareEntry: core.FirmwareBase,
		VirtualizeIOPMP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	m.Run(10_000_000)
	mustExitPass(t, m) // the attack fails silently; the machine is fine
	if st, _ := m.Bus.Load(hart.DMABase+hart.DMAStat, 8); st != 2 {
		t.Errorf("DMA status = %d, want 2 (IOPMP denial)", st)
	}
	if pol.Violations != 0 {
		t.Errorf("no PMP violation expected (the IOPMP handled it), got %d", pol.Violations)
	}
	scratch := fw.Symbols["scratch"]
	if v, _ := m.Bus.Load(scratch, 8); v == 0x5EC4E7 {
		t.Error("OS memory leaked into the firmware via DMA")
	}
}

// --- Emulated accesses against protected memory ---

// probeAttacks are the four accesses the monitor performs on the
// firmware's behalf, each aimed at the address in T1 at S-level: a load or
// a store of 0x5a5a.
var probeAttacks = []struct {
	name  string
	store bool
	emit  func(a *asm.Asm)
}{
	{"hlv.d", false, func(a *asm.Asm) {
		a.Li(asm.T0, 1<<rv.HstatusSPVP)
		a.Csrrs(asm.X0, rv.CSRHstatus, asm.T0)
		a.Hlv(asm.S1, asm.T1, 8, false)
	}},
	{"hsv.d", true, func(a *asm.Asm) {
		a.Li(asm.T0, 1<<rv.HstatusSPVP)
		a.Csrrs(asm.X0, rv.CSRHstatus, asm.T0)
		a.Li(asm.T2, 0x5a5a)
		a.Hsv(asm.T2, asm.T1, 8)
	}},
	{"mprv-ld", false, func(a *asm.Asm) {
		a.Li(asm.T0, 1<<rv.MstatusMPRV) // MPP is S: the ecall came from S
		a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
		a.Ld(asm.S1, asm.T1, 0)
	}},
	{"mprv-sd", true, func(a *asm.Asm) {
		a.Li(asm.T0, 1<<rv.MstatusMPRV)
		a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
		a.Li(asm.T2, 0x5a5a)
		a.Sd(asm.T2, asm.T1, 0)
	}},
}

// probeFirmware assembles a firmware that grants all memory, enters the
// OS in S-mode, and answers the OS's first ecall by running attack against
// target. It records the fault the attack took (mcause, mtval), or zero
// and the loaded word when it took none, in the two doublewords at the
// returned address, then returns to the OS.
func probeFirmware(target uint64, attack func(a *asm.Asm)) ([]byte, uint64) {
	a := asm.New(core.FirmwareBase)
	a.La(asm.T0, "trap")
	a.Csrw(rv.CSRMtvec, asm.T0)
	a.Li(asm.T0, rv.Mask(54))
	a.Csrw(rv.CSRPmpaddr0, asm.T0)
	a.Li(asm.T0, pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)
	a.Csrw(rv.CSRPmpcfg0, asm.T0)
	a.Li(asm.T0, core.OSBase)
	a.Csrw(rv.CSRMepc, asm.T0)
	a.J("to-os")

	a.Label("trap")
	a.Csrr(asm.T0, rv.CSRMcause)
	a.Li(asm.T1, rv.ExcEcallFromS)
	a.Bne(asm.T0, asm.T1, "fault")
	a.Csrr(asm.S11, rv.CSRMepc)
	a.Li(asm.T1, target)
	attack(a)
	a.Li(asm.T0, 1<<rv.MstatusMPRV)
	a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
	a.La(asm.T0, "record")
	a.Sd(asm.X0, asm.T0, 0)
	a.Sd(asm.S1, asm.T0, 8)
	a.J("back")
	a.Label("fault")
	a.La(asm.T0, "record")
	a.Csrr(asm.T1, rv.CSRMcause)
	a.Sd(asm.T1, asm.T0, 0)
	a.Csrr(asm.T1, rv.CSRMtval)
	a.Sd(asm.T1, asm.T0, 8)
	a.Label("back")
	a.Addi(asm.T0, asm.S11, 4)
	a.Csrw(rv.CSRMepc, asm.T0)
	a.Label("to-os") // mret to S-mode at mepc, MPRV off
	a.Li(asm.T0, 1<<rv.MstatusMPRV|3<<rv.MstatusMPPLo)
	a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
	a.Li(asm.T0, 1<<rv.MstatusMPPLo)
	a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
	a.Mret()
	a.Align(8)
	a.Label("record")
	a.Raw64(0xff)
	a.Raw64(0)
	img := a.MustAssemble()
	return img, a.Addr("record")
}

// probeKernel assembles an OS that makes the SBI call setup (when a7 is
// non-zero) — creating the enclave or the confidential VM the probe aims
// at — then traps into the firmware once and exits.
func probeKernel(ext, fn, base, size uint64) []byte {
	a := asm.New(core.OSBase)
	if ext != 0 {
		a.Li(asm.A7, ext)
		a.Li(asm.A6, fn)
		a.Li(asm.A0, base)
		a.Li(asm.A1, size)
		a.Li(asm.A2, base)
		a.Ecall()
	}
	a.Li(asm.A7, firmware.EvilEID)
	a.Li(asm.A6, 0)
	a.Ecall()
	a.Li(asm.T0, hart.ExitBase)
	a.Li(asm.T1, hart.ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// TestEmulatedAccessesRespectPolicies aims hlv.d, hsv.d, an MPRV ld and an
// MPRV sd from the firmware at memory three policies protect, on p550: OS
// memory once the sandbox has locked it down, a live keystone enclave, and
// a donated ACE confidential VM. The sandbox answers a denial in its range
// by stopping the machine; keystone and ACE leave the default answer, an
// access fault injected into the firmware. No byte of the target may
// change either way.
func TestEmulatedAccessesRespectPolicies(t *testing.T) {
	areas := []struct {
		name          string
		pol           func() core.Policy
		ext, fn       uint64
		base, size    uint64
		target        uint64
		wantBlockHalt bool
	}{
		{"sandbox-os", func() core.Policy { return sandbox.New(sandbox.Options{}) },
			0, 0, 0, 0, core.OSBase + 0x8000, true},
		{"keystone-enclave", func() core.Policy { return keystone.New() },
			rv.SBIExtKeystone, keystone.FnCreate, kernel.EnclaveBase, kernel.EnclaveSize,
			kernel.EnclaveBase + 0x100, false},
		{"ace-cvm", func() core.Policy { return ace.New() },
			rv.SBIExtCoveHost, ace.FnPromoteToCVM, kernel.CVMBase, kernel.CVMSize,
			kernel.CVMBase + 0x100, false},
	}
	for _, ar := range areas {
		for _, at := range probeAttacks {
			t.Run(ar.name+"/"+at.name, func(t *testing.T) {
				cfg := hart.PremierP550()
				cfg.Harts = 1
				m, err := hart.NewMachine(cfg, core.DramSize)
				if err != nil {
					t.Fatal(err)
				}
				fw, record := probeFirmware(ar.target, at.emit)
				if err := m.LoadImage(core.FirmwareBase, fw); err != nil {
					t.Fatal(err)
				}
				if err := m.LoadImage(core.OSBase, probeKernel(ar.ext, ar.fn, ar.base, ar.size)); err != nil {
					t.Fatal(err)
				}
				const secret = 0x5ec2e7
				m.Bus.Store(ar.target, 8, secret)
				mon, err := core.Attach(m, core.Options{Policy: ar.pol(), FirmwareEntry: core.FirmwareBase})
				if err != nil {
					t.Fatal(err)
				}
				mon.Boot()
				m.Run(1_000_000)
				ok, reason := m.Halted()
				cause, _ := m.Bus.Load(record, 8)
				tval, _ := m.Bus.Load(record+8, 8)
				if ar.wantBlockHalt {
					if !ok || !strings.Contains(reason, "policy blocked") {
						t.Errorf("halted=%v %q, want the sandbox's policy-blocked stop (record %#x %#x)",
							ok, reason, cause, tval)
					}
				} else {
					if !ok || reason != "guest-exit-pass" {
						t.Fatalf("halted=%v %q", ok, reason)
					}
					want := uint64(rv.ExcLoadAccessFault)
					if at.store {
						want = rv.ExcStoreAccessFault
					}
					if cause != want || tval != ar.target {
						t.Errorf("firmware saw mcause %#x mtval %#x, want %#x at %#x", cause, tval, want, ar.target)
					}
				}
				if v, _ := m.Bus.Load(ar.target, 8); v != secret {
					t.Errorf("target word %#x, want %#x", v, secret)
				}
				if tval == secret {
					t.Error("the target's word reached the firmware")
				}
			})
		}
	}
}
