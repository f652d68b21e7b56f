package verif

import (
	"math/rand"
	"testing"

	"govfm/internal/hart"
	"govfm/internal/refmodel"
)

// BenchmarkTable2Verification times the differential-verification suites —
// the analog of the paper's Table 2 Kani model-checking times (mret 68s,
// CSR write 9min, end-to-end 118min on their setup; exhaustive enumeration
// against the executable reference model is orders of magnitude cheaper).
// Each sub-benchmark checks one randomized state per iteration.
func BenchmarkTable2Verification(b *testing.B) {
	emulate := func(raw uint32) func(*Harness, *refmodel.State, *rand.Rand) error {
		return func(h *Harness, s *refmodel.State, _ *rand.Rand) error {
			return h.CheckEmulation(s, raw, 0x1000)
		}
	}
	suites := []struct {
		name  string
		check func(*Harness, *refmodel.State, *rand.Rand) error
	}{
		{"mret", emulate(0x30200073)},
		{"sret", emulate(0x10200073)},
		{"wfi", func(h *Harness, s *refmodel.State, _ *rand.Rand) error {
			err := h.CheckEmulation(s, 0x10500073, 0x1000)
			h.Machine.Harts[0].Waiting = false
			return err
		}},
		// csrrw x5, mstatus, x6
		{"csr-write", emulate(uint32(0x300)<<20 | 6<<15 | 1<<12 | 5<<7 | 0x73)},
		{"virtual-interrupt", func(h *Harness, s *refmodel.State, _ *rand.Rand) error {
			return h.CheckInterruptInjection(s, 0x1000)
		}},
		{"decoder", func(h *Harness, s *refmodel.State, rng *rand.Rand) error {
			return h.CheckEmulation(s, rng.Uint32(), 0x1000)
		}},
	}
	for i, suite := range suites {
		b.Run(suite.name, func(b *testing.B) {
			h, err := NewHarness(hart.VisionFive2())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42 + int64(i)))
			for n := 0; n < b.N; n++ {
				if err := suite.check(h, h.GenState(rng), rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
