package pmp_test

// Differential fuzzing of the PMP access check against the reference
// model's independent implementation (internal/refmodel/pmp.go). The two
// were written from the spec separately — pmp.File with a decoded-region
// cache for the simulator hot path, refmodel.PMPCheck mirroring the Sail
// pmpCheck — so any disagreement is a real bug in one of them.

import (
	"encoding/binary"
	"flag"
	"math/rand"
	"testing"

	"govfm/internal/mem"
	"govfm/internal/pmp"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
)

// -seed reseeds the randomized comparison; failures print the seed.
var seedFlag = flag.Int64("seed", 1, "seed for randomized PMP model comparison")

const fuzzEntries = 8

// pmpInputLen is the byte budget one fuzz input consumes: 9 bytes per
// entry (cfg + addr) plus 8 probe addresses.
const pmpInputLen = fuzzEntries*9 + 8*8

var pmpAccs = []struct {
	m mem.AccessType
	r int
}{
	{mem.Read, refmodel.AccRead},
	{mem.Write, refmodel.AccWrite},
	{mem.Exec, refmodel.AccExec},
}

var pmpModes = []struct {
	m rv.Mode
	r uint8
}{
	{rv.ModeU, refmodel.U},
	{rv.ModeS, refmodel.S},
	{rv.ModeM, refmodel.M},
}

// checkPMPAgainstModel installs fuzz-chosen entries into both
// implementations and compares every (probe, width, access, privilege)
// verdict, from Check and, for a probe within one page, from that page's
// PageVerdict wherever it reports one decision.
func checkPMPAgainstModel(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < pmpInputLen {
		return // not enough material; skip rather than invent structure
	}
	f := pmp.NewFile(fuzzEntries)
	c := &refmodel.Config{PMPCount: fuzzEntries}
	s := &refmodel.State{}
	for i := 0; i < fuzzEntries; i++ {
		f.ForceCfg(i, data[i*9])
		f.ForceAddr(i, binary.LittleEndian.Uint64(data[i*9+1:]))
		// The model holds the registers as installed (post-WARL), exactly
		// as the lockstep engine snapshots them from a live hart.
		s.PmpCfg[i] = f.Cfg(i)
		s.PmpAddr[i] = f.Addr(i)
	}

	probes := make([]uint64, 0, 8+4*fuzzEntries)
	for i := 0; i < 8; i++ {
		probes = append(probes, binary.LittleEndian.Uint64(data[fuzzEntries*9+i*8:]))
	}
	// Region boundaries are where off-by-one bugs live: probe just
	// outside, first and last byte of every decoded region.
	for i := 0; i < fuzzEntries; i++ {
		if lo, last, ok := f.Region(i); ok {
			probes = append(probes, lo-1, lo, last, last+1)
		}
	}

	for _, pa := range probes {
		for _, w := range []int{1, 2, 4, 8} {
			for _, acc := range pmpAccs {
				for _, mode := range pmpModes {
					got := f.Check(pa, w, acc.m, mode.m)
					want := refmodel.PMPCheck(c, s, pa, w, acc.r, mode.r)
					if got != want {
						t.Fatalf("pmp.Check(%#x, %d, %v, %v) = %v, model says %v\ncfg=%v addr=%x",
							pa, w, acc.m, mode.m, got, want, s.PmpCfg[:fuzzEntries], s.PmpAddr[:fuzzEntries])
					}
					page := pa &^ 4095
					if (pa+uint64(w)-1)&^4095 != page {
						continue // the access crosses a page boundary or wraps
					}
					if perm, ok := f.PageVerdict(page, mode.m); ok && (perm&(pmp.CfgR<<acc.m) != 0) != want {
						t.Fatalf("pmp.PageVerdict(%#x, %v) = %03b, but the model says %v to %v of %d at %#x\ncfg=%v addr=%x",
							page, mode.m, perm, want, acc.m, w, pa, s.PmpCfg[:fuzzEntries], s.PmpAddr[:fuzzEntries])
					}
				}
			}
		}
	}
}

func FuzzPMPCheck(f *testing.F) {
	f.Add(make([]byte, pmpInputLen))
	// One NAPOT entry over low RAM plus a TOR pair.
	seed := make([]byte, pmpInputLen)
	seed[0] = pmp.CfgR | pmp.CfgW | pmp.ANapot<<3
	binary.LittleEndian.PutUint64(seed[1:], pmp.NAPOTAddr(0x8000_0000, 0x10000))
	seed[9] = pmp.CfgX | pmp.ATor<<3 | pmp.CfgL
	binary.LittleEndian.PutUint64(seed[10:], 0x8010_0000>>2)
	binary.LittleEndian.PutUint64(seed[fuzzEntries*9:], 0x8000_0420)
	f.Add(seed)
	f.Fuzz(checkPMPAgainstModel)
}

// TestPMPCheckAgainstModel exercises the same differential property for a
// fixed number of random inputs on every ordinary `go test` run, so the
// comparison doesn't rely on anyone invoking -fuzz.
func TestPMPCheckAgainstModel(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	rng := rand.New(rand.NewSource(*seedFlag))
	data := make([]byte, pmpInputLen)
	for n := 0; n < iters; n++ {
		rng.Read(data)
		// Bias the A-field and addresses toward meaningful regions: raw
		// random bytes leave most entries OFF and most probes unmatched.
		for i := 0; i < fuzzEntries; i++ {
			if rng.Intn(2) == 0 {
				data[i*9] = byte(rng.Intn(32)) | byte(rng.Intn(4))<<3
			}
			if rng.Intn(2) == 0 {
				addr := 0x8000_0000>>2 + uint64(rng.Intn(1<<20))
				binary.LittleEndian.PutUint64(data[i*9+1:], addr)
			}
		}
		for i := 0; i < 8; i++ {
			if rng.Intn(2) == 0 {
				pa := 0x8000_0000 + uint64(rng.Intn(1<<22))
				binary.LittleEndian.PutUint64(data[fuzzEntries*9+i*8:], pa)
			}
		}
		checkPMPAgainstModel(t, data)
		if t.Failed() {
			t.Fatalf("failing input found at iteration %d (seed %d)", n, *seedFlag)
		}
	}
}
