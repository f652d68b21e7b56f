package govfm_test

import (
	"strings"
	"testing"

	govfm "govfm"
)

func TestFacadeNativeBoot(t *testing.T) {
	sys, err := govfm.New(govfm.Config{Harts: 1})
	if err != nil {
		t.Fatal(err)
	}
	halted, reason := sys.Run(0)
	if !halted || reason != "guest-exit-pass" {
		t.Fatalf("halted=%v reason=%q", halted, reason)
	}
	if !strings.Contains(sys.Console(), "ok") {
		t.Errorf("console: %q", sys.Console())
	}
	if sys.Stats().WorldSwitches != 0 {
		t.Error("native run must have zero monitor stats")
	}
}

func TestFacadeVirtualizedWithSandbox(t *testing.T) {
	sys, err := govfm.New(govfm.Config{
		Harts:      1,
		Virtualize: true,
		Offload:    true,
		Policy:     govfm.SandboxPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	halted, reason := sys.Run(0)
	if !halted || reason != "guest-exit-pass" {
		t.Fatalf("halted=%v reason=%q console=%q", halted, reason, sys.Console())
	}
	if sys.Stats().Emulations == 0 {
		t.Error("virtualized run must emulate firmware instructions")
	}
	if sys.Cycles() == 0 {
		t.Error("cycles must advance")
	}
}

func TestFacadeRTOS(t *testing.T) {
	for _, virt := range []bool{false, true} {
		sys, err := govfm.New(govfm.Config{
			Harts: 1, Firmware: govfm.RTOS, Virtualize: virt, Offload: virt,
		})
		if err != nil {
			t.Fatal(err)
		}
		if halted, reason := sys.Run(0); !halted || reason != "guest-exit-pass" {
			t.Fatalf("virt=%v: %v %q", virt, halted, reason)
		}
		if !strings.Contains(sys.Console(), "all tests passed") {
			t.Errorf("virt=%v console: %q", virt, sys.Console())
		}
	}
}

func TestFacadeMinsbiAndPlatforms(t *testing.T) {
	for _, p := range []govfm.Platform{govfm.VisionFive2, govfm.PremierP550, govfm.RVA23} {
		sys, err := govfm.New(govfm.Config{
			Platform: p, Harts: 1, Firmware: govfm.Minsbi,
			Virtualize: true, Offload: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if halted, reason := sys.Run(0); !halted || reason != "guest-exit-pass" {
			t.Fatalf("%s: %v %q (console=%q)", p, halted, reason, sys.Console())
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := govfm.New(govfm.Config{Platform: "toaster"}); err == nil {
		t.Error("unknown platform must error")
	}
	if _, err := govfm.New(govfm.Config{Firmware: "efi"}); err == nil {
		t.Error("unknown firmware must error")
	}
	_, err := govfm.New(govfm.Config{
		Firmware: govfm.RTOS, Virtualize: true, Policy: govfm.SandboxPolicy(),
	})
	if err == nil || !strings.Contains(err.Error(), "sandbox") || !strings.Contains(err.Error(), "rtos") {
		t.Errorf("rtos under the sandbox must be rejected naming both, got %v", err)
	}
}

func TestFacadeVirtualDevices(t *testing.T) {
	// The §4.3 extensions compose through the facade: vPLIC + vIOPMP on
	// top of the sandbox.
	sys, err := govfm.New(govfm.Config{
		Harts:          1,
		Virtualize:     true,
		Offload:        true,
		Policy:         govfm.SandboxPolicy(),
		VirtualizePLIC: true,
		IOPMP:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if halted, reason := sys.Run(0); !halted || reason != "guest-exit-pass" {
		t.Fatalf("%v %q (console=%q)", halted, reason, sys.Console())
	}
	if sys.Machine.IOPMP == nil {
		t.Error("machine must carry the IOPMP")
	}
}
