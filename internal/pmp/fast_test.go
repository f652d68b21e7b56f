package pmp

import (
	"math/rand"
	"testing"

	"govfm/internal/mem"
	"govfm/internal/rv"
)

// randomFile fills a PMP file with a random mix of OFF/TOR/NA4/NAPOT
// entries, biased toward addresses that cluster so regions overlap and
// partial matches occur.
func randomFile(rng *rand.Rand, n int) *File {
	f := NewFile(n)
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = rng.Uint64() >> (rng.Intn(40) + 10)
		case 1:
			addr = uint64(rng.Intn(1 << 16))
		case 2:
			addr = 0x80000000>>2 + uint64(rng.Intn(64))
		}
		f.ForceAddr(i, addr)
		cfg := byte(rng.Intn(256))
		if rng.Intn(4) == 0 {
			cfg &^= CfgL // bias toward unlocked
		}
		f.ForceCfg(i, cfg)
	}
	return f
}

// TestCheckFastMatchesScan is the differential oracle for the flattened
// segment lookup: on random register files and random accesses, the fast
// path must agree with the architectural scan byte for byte.
func TestCheckFastMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	accs := []mem.AccessType{mem.Read, mem.Write, mem.Exec}
	modes := []rv.Mode{rv.ModeM, rv.ModeS, rv.ModeU}
	sizes := []int{1, 2, 4, 8}
	for trial := 0; trial < 400; trial++ {
		f := randomFile(rng, []int{0, 1, 4, 16, 64}[rng.Intn(5)])
		f.SetFast(true)
		for q := 0; q < 200; q++ {
			var addr uint64
			switch rng.Intn(4) {
			case 0:
				addr = rng.Uint64()
			case 1:
				addr = rng.Uint64() >> (rng.Intn(40) + 8) << 2
			case 2:
				// Land near a region boundary to stress partial matches.
				i := rng.Intn(f.n + 1)
				if i < f.n {
					if lo, last, ok := f.Region(i); ok {
						if rng.Intn(2) == 0 {
							addr = lo - uint64(rng.Intn(8))
						} else {
							addr = last - uint64(rng.Intn(8))
						}
					}
				}
			case 3:
				addr = ^uint64(0) - uint64(rng.Intn(16)) // wrap-around shapes
			}
			size := sizes[rng.Intn(len(sizes))]
			acc := accs[rng.Intn(len(accs))]
			mode := modes[rng.Intn(len(modes))]
			got := f.Check(addr, size, acc, mode)
			want := f.checkScan(addr, size, acc, mode)
			if got != want {
				t.Fatalf("trial %d: Check(addr=%#x size=%d acc=%v mode=%v) fast=%v scan=%v\ncfg=%v\naddr=%v",
					trial, addr, size, acc, mode, got, want, f.cfg[:f.n], f.addr[:f.n])
			}
		}
	}
}

// TestCheckFastAfterMutation verifies the segment table is invalidated by
// every mutator, including the lock-ignoring Force variants and Reset.
func TestCheckFastAfterMutation(t *testing.T) {
	f := NewFile(16)
	f.SetFast(true)
	f.ForceAddr(0, NAPOTAddr(0x80000000, 0x1000))
	f.ForceCfg(0, CfgR|CfgW|CfgX|ANapot<<3)
	if !f.Check(0x80000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("expected allow inside NAPOT region")
	}
	// Revoke read permission; the cached segments must not be consulted
	// with stale permissions.
	f.ForceCfg(0, CfgW|CfgR&0|ANapot<<3)
	if f.Check(0x80000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("stale allow after ForceCfg revoked read")
	}
	f.ForceAddr(0, NAPOTAddr(0x90000000, 0x1000))
	f.ForceCfg(0, CfgR|ANapot<<3)
	if f.Check(0x80000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("stale region after ForceAddr move")
	}
	if !f.Check(0x90000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("moved region not visible")
	}
	f.Reset()
	if f.Check(0x90000000, 8, mem.Read, rv.ModeS) {
		t.Fatal("stale match after Reset")
	}
}

// TestViewSettling checks the view's write contract: every mutator that
// changes the contents unsettles the view (it reads 0 until View), and a
// write that changes nothing — the monitor rewrites every entry on every
// world switch — keeps the settled ID and the decode caches.
func TestViewSettling(t *testing.T) {
	f := NewFile(4)
	f.SetFast(true)
	zero := f.View()
	step := func(name string, fn func()) {
		t.Helper()
		id := f.View()
		f.Check(0x100, 4, mem.Read, rv.ModeS) // build the segment table
		fn()
		if got := f.SettledView(); got != 0 {
			t.Fatalf("%s changed the contents but left view %d settled", name, got)
		}
		if f.View() == id {
			t.Fatalf("%s changed the contents but kept view %d", name, id)
		}
		id = f.View()
		f.Check(0x100, 4, mem.Read, rv.ModeS)
		fn()
		if got := f.SettledView(); got != id {
			t.Fatalf("%s repeated with the same value: view %d, want %d", name, got, id)
		}
		if f.segDirty || f.regDirty {
			t.Fatalf("%s repeated with the same value dirtied the decode caches", name)
		}
	}
	step("SetAddr", func() { f.SetAddr(0, 0x100) })
	step("SetCfg", func() { f.SetCfg(0, CfgR|ATor<<3) })
	step("ForceAddr", func() { f.ForceAddr(1, 0x200) })
	step("ForceCfg", func() { f.ForceCfg(1, CfgR|CfgW|ATor<<3) })
	step("SetCfgReg", func() { f.SetCfgReg(0, 0x0f0f) })
	step("legalized SetCfg", func() { f.SetCfg(2, CfgW|CfgX|ANapot<<3) }) // W without R: W cleared
	f.ForceCfg(3, CfgL|ANapot<<3)
	id := f.View()
	f.SetCfg(3, CfgR|ANapot<<3) // locked: ignored, as on hardware
	f.SetAddr(3, 0x42)
	if got := f.SettledView(); got != id {
		t.Errorf("ignored writes to a locked entry unsettled the view: %d, want %d", got, id)
	}
	f.Reset()
	if f.SettledView() != 0 || f.View() != zero {
		t.Errorf("Reset: view %d, want the all-zero view %d", f.View(), zero)
	}
}

// BenchmarkCheck compares the scan and flattened lookups on a file shaped
// like the monitor's world-switch PMP programming (a few active regions).
func BenchmarkCheck(b *testing.B) {
	build := func(fast bool) *File {
		f := NewFile(16)
		f.ForceAddr(0, NAPOTAddr(0x80000000, 0x40000))
		f.ForceCfg(0, ANapot<<3) // deny firmware region to lower modes
		f.ForceAddr(1, NAPOTAddr(0x80000000, 0x8000000))
		f.ForceCfg(1, CfgR|CfgW|CfgX|ANapot<<3)
		f.ForceAddr(2, ^uint64(0))
		f.ForceCfg(2, CfgR|CfgW|ANapot<<3)
		f.SetFast(fast)
		return f
	}
	for _, cfg := range []struct {
		name string
		fast bool
	}{{"scan", false}, {"fast", true}} {
		f := build(cfg.fast)
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Check(0x80100000+uint64(i%4096)*8, 8, mem.Read, rv.ModeS)
			}
		})
	}
}
