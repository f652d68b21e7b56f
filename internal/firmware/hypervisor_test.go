package firmware_test

import (
	"strings"
	"testing"

	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
)

// TestHypervisorBootMatrix boots the synthetic type-1 hypervisor — HS-mode
// host, two VS-mode guests behind an Sv39x4 G-stage — natively and under
// the monitor. The guest-visible console stream must be byte-identical in
// both, and the hypervisor's own counter checks (one fetch/load/store
// guest-page fault, two virtual-instruction traps) gate the
// "guest-exit-pass" halt the run helper asserts.
func TestHypervisorBootMatrix(t *testing.T) {
	hyp := kernel.BuildHypervisor(core.OSBase, kernel.HypOptions{Yields: 3})
	mk := func() *hart.Config {
		cfg := hart.PremierP550() // the H-capable profile
		cfg.Harts = 1
		return cfg
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: 1, FirmwareSize: core.FirmwareSize,
	})
	native := run(t, mk(), fw, hyp, false, 5_000_000)
	virt := run(t, mk(), fw, hyp, true, 5_000_000)
	if native.Uart.Output() != virt.Uart.Output() {
		t.Errorf("hypervisor output diverged:\nnative: %q\nvirt:   %q",
			native.Uart.Output(), virt.Uart.Output())
	}
	// Both guests must have reached their banner and the hypervisor its
	// all-done marker.
	out := native.Uart.Output()
	for _, want := range []string{"h", "a", "b", "H\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}
