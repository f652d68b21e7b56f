package govfm_test

import (
	"fmt"
	"strings"
	"testing"

	govfm "govfm"
)

// TestMultiHartKernelBoot boots the default kernel on multi-hart machines
// through the monitored gosbi firmware, across both evaluation platforms
// and hart counts, on the sequential scheduler (the "seq" in each name).
// The multi-hart boot kernel exercises the HSM hart-start handshake, an
// IPI round trip, and a remote fence before the SRST shutdown, so a pass
// means the cross-hart paths (MSIP delivery, hart-state transitions,
// fence forwarding) work end to end.
func TestMultiHartKernelBoot(t *testing.T) {
	for _, platform := range []govfm.Platform{govfm.VisionFive2, govfm.PremierP550} {
		for _, harts := range []int{2, 4} {
			name := fmt.Sprintf("%s/harts=%d/seq", platform, harts)
			t.Run(name, func(t *testing.T) {
				sys, err := govfm.New(govfm.Config{
					Platform:   platform,
					Harts:      harts,
					Virtualize: true,
					Offload:    true,
				})
				if err != nil {
					t.Fatal(err)
				}
				halted, reason := sys.Run(0)
				if !halted || reason != "guest-exit-pass" {
					t.Fatalf("halted=%v reason=%q console=%q",
						halted, reason, sys.Console())
				}
				out := sys.Console()
				if !strings.Contains(out, "boot") || !strings.Contains(out, "ok") {
					t.Errorf("console missing boot markers: %q", out)
				}
			})
		}
	}
}
