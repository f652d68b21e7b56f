package bench

import (
	"testing"

	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/kernel"
)

// TestSimHostInvariance runs four monitored workloads on both profiles,
// once on each host tier: the interpreter, the acceleration caches, and
// the caches with superblocks. Every tier is host state only, so cycles,
// instret and the halt reason must be identical across the three. On the
// full tier, blocks must also retire a floor share of the instructions,
// so a translation tier that quietly stops engaging fails here.
func TestSimHostInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("24 monitored runs")
	}
	scenarios := []struct {
		name  string
		minSB float64 // floor on the full tier's sb-retired share, in percent
		setup func(newCfg func() *hart.Config) (*hart.Machine, error)
	}{
		{"emulation-loop", 90, func(newCfg func() *hart.Config) (*hart.Machine, error) {
			// Table 4's emulation probe scaled up: every csrw traps to the
			// monitor, stressing the world-switch + decode path.
			return setupFirmwareImage(newCfg(), buildCsrwFirmware(core.FirmwareBase, 20_000), true)
		}},
		{"worldswitch-loop", 90, func(newCfg func() *hart.Config) (*hart.Machine, error) {
			// Table 4's full OS->VFM->firmware->VFM->OS round trip.
			return setupKernelImage(newCfg, buildEcallKernel(core.OSBase, 8_000), Miralis)
		}},
		{"firmware-boot", 50, func(newCfg func() *hart.Config) (*hart.Machine, error) {
			// The phased boot sequence with an idle timer-tick tail.
			return setupKernelImage(newCfg, kernel.BuildBootTrace(core.OSBase, 200), Miralis)
		}},
		{"compute-cmp-core", 90, func(newCfg func() *hart.Config) (*hart.Machine, error) {
			// A CPU-bound CoreMark-Pro-style kernel with few traps.
			w := &WorkloadSpec{
				Name: "cmp-core", Iterations: 300, ComputeN: 1800, MemN: 10,
				WorkingSet: 4 << 10, TimeReadEvery: 9, TimerSetEvery: 97,
			}
			return setupKernelImage(newCfg, w.BuildKernel(core.OSBase), Miralis)
		}},
	}
	tiers := []struct {
		name     string
		fast, sb bool
	}{{"interp", false, false}, {"caches", true, false}, {"sb", true, true}}
	type outcome struct {
		cycles, instret uint64
		reason          string
	}
	for _, mk := range []func() *hart.Config{hart.VisionFive2, hart.PremierP550} {
		for _, sc := range scenarios {
			name := mk().Name + "/" + sc.name
			var want outcome
			var h *hart.Hart // after the loop, the full tier's hart
			for i, tier := range tiers {
				m, err := sc.setup(mk)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m.SetFastPath(tier.fast)
				m.SetSuperblock(tier.sb)
				m.Run(2_000_000_000)
				_, reason := m.Halted()
				h = m.Harts[0]
				got := outcome{h.Cycles, h.Instret, reason}
				if i == 0 {
					want = got
					if reason != "guest-exit-pass" {
						t.Fatalf("%s: interpreter halted with %q", name, reason)
					}
				} else if got != want {
					t.Errorf("%s: %s tier changed the outcome: interp %+v, %s %+v",
						name, tier.name, want, tier.name, got)
				}
			}
			pct := 100 * float64(h.Perf.SBRetired) / float64(h.Instret)
			t.Logf("%-30s instret=%-9d cycles=%-10d sb-retired=%.1f%%", name, h.Instret, h.Cycles, pct)
			if pct < sc.minSB {
				t.Errorf("%s: blocks retired %.1f%% of instructions, want at least %.0f%%",
					name, pct, sc.minSB)
			}
		}
	}
}
