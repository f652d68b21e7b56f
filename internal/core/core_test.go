package core

import (
	"strings"
	"testing"

	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
)

// scenario boots gosbi + the boot kernel on a platform, optionally under
// the monitor, and returns the machine and monitor (nil when native).
func scenario(t *testing.T, cfg *hart.Config, virtualize, offload bool, harts int) (*hart.Machine, *Monitor) {
	t.Helper()
	cfg.Harts = harts
	m, err := hart.NewMachine(cfg, DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.BuildGosbi(FirmwareBase, firmware.Options{
		OSEntry: OSBase, Harts: harts, FirmwareSize: FirmwareSize,
	})
	kern := kernel.BuildBoot(OSBase, kernel.BootOptions{
		Harts: harts, TimeReads: 5, TimerSets: 2, Misaligned: 3,
	})
	if err := m.LoadImage(FirmwareBase, fw.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(OSBase, kern); err != nil {
		t.Fatal(err)
	}
	if !virtualize {
		m.Reset(FirmwareBase)
		return m, nil
	}
	mon, err := Attach(m, Options{Offload: offload, FirmwareEntry: FirmwareBase})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	return m, mon
}

func runToExit(t *testing.T, m *hart.Machine, maxSteps uint64) {
	t.Helper()
	m.Run(maxSteps)
	ok, reason := m.Halted()
	if !ok {
		t.Fatalf("machine did not halt within %d steps (hart0 pc=%#x mode=%v uart=%q)",
			maxSteps, m.Harts[0].PC, m.Harts[0].Mode, m.Uart.Output())
	}
	if reason != "guest-exit-pass" {
		t.Fatalf("machine halted with %q (uart=%q)", reason, m.Uart.Output())
	}
	if got := m.Uart.Output(); !strings.Contains(got, "boot") || !strings.Contains(got, "ok") {
		t.Fatalf("console output %q missing boot markers", got)
	}
}

func TestNativeBoot(t *testing.T) {
	m, _ := scenario(t, hart.VisionFive2(), false, false, 1)
	runToExit(t, m, 3_000_000)
}

func TestVirtualizedBootWithOffload(t *testing.T) {
	m, mon := scenario(t, hart.VisionFive2(), true, true, 1)
	runToExit(t, m, 3_000_000)
	st := mon.TotalStats()
	if st.FastPathHits == 0 {
		t.Error("offload enabled but no fast-path hits")
	}
	if st.Emulations == 0 {
		t.Error("the firmware boot itself must require emulation")
	}
	t.Logf("stats: %+v", st)
}

func TestVirtualizedBootNoOffload(t *testing.T) {
	m, mon := scenario(t, hart.VisionFive2(), true, false, 1)
	runToExit(t, m, 10_000_000)
	st := mon.TotalStats()
	if st.FastPathHits != 0 {
		t.Error("offload disabled but fast path hit")
	}
	if st.WorldSwitches < 10 {
		t.Errorf("no-offload boot must world-switch for every SBI op, got %d", st.WorldSwitches)
	}
	t.Logf("stats: %+v", st)
}

func TestVirtualizedBootMultiHart(t *testing.T) {
	for _, offload := range []bool{true, false} {
		m, mon := scenario(t, hart.VisionFive2(), true, offload, 2)
		runToExit(t, m, 20_000_000)
		if mon.TotalStats().Emulations == 0 {
			t.Error("no emulations recorded")
		}
	}
}

func TestNativeBootMultiHart(t *testing.T) {
	m, _ := scenario(t, hart.VisionFive2(), false, false, 2)
	runToExit(t, m, 20_000_000)
}

func TestVirtualizedBootP550(t *testing.T) {
	m, mon := scenario(t, hart.PremierP550(), true, true, 1)
	runToExit(t, m, 3_000_000)
	if mon.NumVirtPMP() != 16-pmpOverhead {
		t.Errorf("P550 virtual PMP count = %d", mon.NumVirtPMP())
	}
}

// TestSameBinaryNativeAndVirtualized is the paper's Q1 in miniature: the
// byte-identical firmware image must produce the same guest-visible
// behaviour natively and under the monitor.
func TestSameBinaryNativeAndVirtualized(t *testing.T) {
	native, _ := scenario(t, hart.VisionFive2(), false, false, 1)
	runToExit(t, native, 3_000_000)
	virt, _ := scenario(t, hart.VisionFive2(), true, true, 1)
	runToExit(t, virt, 3_000_000)
	if native.Uart.Output() != virt.Uart.Output() {
		t.Errorf("console output diverged: native %q vs virtualized %q",
			native.Uart.Output(), virt.Uart.Output())
	}
}

func TestOffloadReducesWorldSwitches(t *testing.T) {
	// Use a time-read-heavy kernel: the Fig. 3 profile where offloading
	// matters (console SBI calls world-switch in both configurations).
	build := func(offload bool) *Monitor {
		cfg := hart.VisionFive2()
		cfg.Harts = 1
		m, err := hart.NewMachine(cfg, DramSize)
		if err != nil {
			t.Fatal(err)
		}
		fw := firmware.BuildGosbi(FirmwareBase, firmware.Options{
			OSEntry: OSBase, Harts: 1, FirmwareSize: FirmwareSize,
		})
		kern := kernel.BuildBoot(OSBase, kernel.BootOptions{
			Harts: 1, TimeReads: 200, TimerSets: 1, Misaligned: 50,
		})
		if err := m.LoadImage(FirmwareBase, fw.Bytes); err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(OSBase, kern); err != nil {
			t.Fatal(err)
		}
		mon, err := Attach(m, Options{Offload: offload, FirmwareEntry: FirmwareBase})
		if err != nil {
			t.Fatal(err)
		}
		mon.Boot()
		runToExit(t, m, 30_000_000)
		return mon
	}
	w1 := build(true).TotalStats().WorldSwitches
	w2 := build(false).TotalStats().WorldSwitches
	if w1*10 >= w2 {
		t.Errorf("offload must cut world switches dramatically: offload=%d no-offload=%d", w1, w2)
	}
}

// TestVerifSyncKeepsTheClock: syncing the virtual CSR file from a hart in
// the OS world, as the lockstep harness does after every step it checks,
// copies the OS's supervisor state and charges the hart nothing, on a
// profile without and one with the hypervisor extension.
func TestVerifSyncKeepsTheClock(t *testing.T) {
	for _, prof := range []string{"visionfive2", "p550"} {
		t.Run(prof, func(t *testing.T) {
			m, mon := scenario(t, hart.Profiles()[prof](), true, true, 1)
			ctx := mon.Ctx[0]
			if !m.RunUntil(func() bool { return ctx.World() == WorldOS }, 2_000_000) {
				t.Fatal("the OS world never ran")
			}
			h := ctx.Hart
			h.CSR.Sscratch = 0x5C5C
			cycles := h.Cycles
			mon.VerifSyncVirtState(ctx)
			mon.VerifSyncVirtState(ctx)
			if h.Cycles != cycles {
				t.Errorf("two syncs moved the clock from %d to %d", cycles, h.Cycles)
			}
			if ctx.V.Sscratch != 0x5C5C {
				t.Errorf("virtual sscratch %#x after the sync, want 0x5c5c", ctx.V.Sscratch)
			}
		})
	}
}
