package pmp

import (
	"sync"
	"testing"
	"testing/quick"

	"govfm/internal/mem"
	"govfm/internal/rv"
)

func TestLegalizeCfg(t *testing.T) {
	cases := []struct{ in, want byte }{
		{CfgR | CfgW | CfgX, CfgR | CfgW | CfgX},
		{CfgW, 0},           // W=1,R=0 reserved -> W cleared
		{CfgW | CfgX, CfgX}, // same with X
		{CfgL | CfgW, CfgL}, // lock preserved, W cleared
		{0x60, 0},           // reserved bits cleared
		{0xFF, CfgL | ANapot<<3 | CfgR | CfgW | CfgX},
	}
	for _, c := range cases {
		if got := LegalizeCfg(c.in); got != c.want {
			t.Errorf("LegalizeCfg(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestNAPOTDecode(t *testing.T) {
	f := NewFile(8)
	// 4KiB region at 0x8000_0000.
	f.SetAddr(0, NAPOTAddr(0x8000_0000, 0x1000))
	f.SetCfg(0, CfgR|CfgW|ANapot<<3)
	lo, last, ok := f.Region(0)
	if !ok || lo != 0x8000_0000 || last != 0x8000_0FFF {
		t.Errorf("NAPOT region = [%#x,%#x] ok=%v", lo, last, ok)
	}
	// Smallest NAPOT region: 8 bytes.
	f.SetAddr(1, NAPOTAddr(0x1000, 8))
	f.SetCfg(1, CfgR|ANapot<<3)
	lo, last, ok = f.Region(1)
	if !ok || lo != 0x1000 || last != 0x1007 {
		t.Errorf("8-byte NAPOT = [%#x,%#x]", lo, last)
	}
	// All-ones address covers everything.
	f.SetAddr(2, rv.Mask(54))
	f.SetCfg(2, CfgR|ANapot<<3)
	lo, last, ok = f.Region(2)
	if !ok || lo != 0 || last != ^uint64(0) {
		t.Errorf("all-ones NAPOT = [%#x,%#x]", lo, last)
	}
}

func TestNAPOTAddrPanics(t *testing.T) {
	for _, c := range []struct{ base, size uint64 }{
		{0x1000, 4},  // too small
		{0x1000, 24}, // not a power of two
		{0x1004, 8},  // misaligned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NAPOTAddr(%#x,%#x) must panic", c.base, c.size)
				}
			}()
			NAPOTAddr(c.base, c.size)
		}()
	}
}

func TestTORDecode(t *testing.T) {
	f := NewFile(8)
	f.SetAddr(0, 0x8000_0000>>2)
	f.SetAddr(1, 0x8800_0000>>2)
	f.SetCfg(1, CfgR|CfgX|ATor<<3)
	lo, last, ok := f.Region(1)
	if !ok || lo != 0x8000_0000 || last != 0x87FF_FFFF {
		t.Errorf("TOR region = [%#x,%#x]", lo, last)
	}
	// Entry 0 in TOR mode: base hardwired to 0.
	f.SetCfg(0, CfgR|ATor<<3)
	lo, last, ok = f.Region(0)
	if !ok || lo != 0 || last != 0x7FFF_FFFF {
		t.Errorf("TOR entry0 = [%#x,%#x]", lo, last)
	}
	// Empty TOR range (top <= base) never matches.
	f.SetAddr(2, 0x100)
	f.SetAddr(3, 0x100)
	f.SetCfg(3, CfgR|ATor<<3)
	if _, _, ok := f.Region(3); ok {
		t.Error("empty TOR range must not decode")
	}
}

func TestNA4Decode(t *testing.T) {
	f := NewFile(8)
	f.SetAddr(0, 0x2000>>2)
	f.SetCfg(0, CfgR|ANa4<<3)
	lo, last, ok := f.Region(0)
	if !ok || lo != 0x2000 || last != 0x2003 {
		t.Errorf("NA4 region = [%#x,%#x]", lo, last)
	}
}

func TestCheckPriority(t *testing.T) {
	f := NewFile(8)
	// Entry 0: deny RW on [0x1000, 0x2000) for S/U.
	f.SetAddr(0, NAPOTAddr(0x1000, 0x1000))
	f.SetCfg(0, ANapot<<3) // no permissions
	// Entry 1: allow all on [0, 0x4000_0000).
	f.SetAddr(1, NAPOTAddr(0, 0x4000_0000))
	f.SetCfg(1, CfgR|CfgW|CfgX|ANapot<<3)

	if f.Check(0x1800, 8, mem.Read, rv.ModeS) {
		t.Error("entry 0 must take priority and deny")
	}
	if !f.Check(0x2000, 8, mem.Read, rv.ModeS) {
		t.Error("entry 1 must allow outside entry 0")
	}
	// M-mode ignores unlocked entries.
	if !f.Check(0x1800, 8, mem.Write, rv.ModeM) {
		t.Error("unlocked entry must not constrain M-mode")
	}
}

func TestCheckLockedConstrainsM(t *testing.T) {
	f := NewFile(8)
	f.SetAddr(0, NAPOTAddr(0x8000_0000, 0x10000))
	f.SetCfg(0, CfgL|ANapot<<3) // locked, no permissions: Miralis-style self-protection
	if f.Check(0x8000_0100, 8, mem.Read, rv.ModeM) {
		t.Error("locked no-permission entry must deny M-mode reads")
	}
	if f.Check(0x8000_0100, 4, mem.Exec, rv.ModeM) {
		t.Error("locked no-permission entry must deny M-mode exec")
	}
	if !f.Check(0x8001_0000, 8, mem.Read, rv.ModeM) {
		t.Error("M-mode must still access outside the locked region")
	}
}

func TestCheckNoMatchDefaults(t *testing.T) {
	f := NewFile(8)
	if !f.Check(0x1234, 4, mem.Read, rv.ModeM) {
		t.Error("M-mode default allow")
	}
	if f.Check(0x1234, 4, mem.Read, rv.ModeS) {
		t.Error("S-mode with implemented entries and no match must deny")
	}
	if f.Check(0x1234, 4, mem.Exec, rv.ModeU) {
		t.Error("U-mode with implemented entries and no match must deny")
	}
	empty := NewFile(0)
	if !empty.Check(0x1234, 4, mem.Write, rv.ModeU) {
		t.Error("zero implemented entries must allow everything")
	}
}

func TestPartialMatchFaults(t *testing.T) {
	f := NewFile(8)
	f.SetAddr(0, NAPOTAddr(0x1000, 8))
	f.SetCfg(0, CfgR|CfgW|ANapot<<3)
	f.SetAddr(1, rv.Mask(54))
	f.SetCfg(1, CfgR|CfgW|CfgX|ANapot<<3)
	// 8-byte access straddling the end of entry 0 partially matches -> fault,
	// even in M-mode for locked entries; here unlocked so M passes through to
	// the PartialMatch rule. The spec says partial matches fail regardless of
	// privilege only when the entry applies; for unlocked entries M-mode is
	// not constrained... but priority matching happens first. We follow the
	// spec: partial match fails for modes the entry applies to.
	if f.Check(0x1004, 8, mem.Read, rv.ModeS) {
		t.Error("partial match must fault for S-mode")
	}
	if !f.Check(0x1000, 8, mem.Read, rv.ModeS) {
		t.Error("full match must pass")
	}
}

func TestLockSemantics(t *testing.T) {
	f := NewFile(8)
	f.SetAddr(0, 0x111)
	f.SetCfg(0, CfgL|CfgR|ANapot<<3)
	f.SetCfg(0, CfgR|CfgW|CfgX|ANapot<<3) // ignored: locked
	if f.Cfg(0) != CfgL|CfgR|ANapot<<3 {
		t.Errorf("locked cfg overwritten: %#x", f.Cfg(0))
	}
	f.SetAddr(0, 0x222) // ignored: locked
	if f.Addr(0) != 0x111 {
		t.Errorf("locked addr overwritten: %#x", f.Addr(0))
	}
	// TOR lock freezes the previous address register.
	g := NewFile(8)
	g.SetAddr(2, 0x333)
	g.SetCfg(3, CfgL|CfgR|ATor<<3)
	g.SetAddr(2, 0x444) // ignored: entry 3 is locked TOR
	if g.Addr(2) != 0x333 {
		t.Errorf("TOR-locked base overwritten: %#x", g.Addr(2))
	}
	// ForceCfg bypasses locks (reset path).
	f.ForceCfg(0, 0)
	if f.Cfg(0) != 0 {
		t.Error("ForceCfg must bypass locks")
	}
}

func TestCfgRegPacking(t *testing.T) {
	f := NewFile(16)
	for i := 0; i < 16; i++ {
		f.SetCfg(i, byte(CfgR|ANapot<<3))
	}
	want := uint64(0)
	for k := 0; k < 8; k++ {
		want |= uint64(CfgR|ANapot<<3) << (8 * k)
	}
	if f.CfgReg(0) != want || f.CfgReg(2) != want {
		t.Errorf("CfgReg packing: %#x / %#x", f.CfgReg(0), f.CfgReg(2))
	}
	f.SetCfgReg(0, 0)
	if f.CfgReg(0) != 0 {
		t.Error("SetCfgReg(0,0) must clear entries 0-7")
	}
	if f.CfgReg(2) != want {
		t.Error("SetCfgReg(0,..) must not touch entries 8-15")
	}
}

func TestUnimplementedEntriesReadZeroIgnoreWrites(t *testing.T) {
	f := NewFile(4)
	f.SetCfg(5, 0xFF)
	f.SetAddr(5, 0x123)
	if f.Cfg(5) != 0 || f.Addr(5) != 0 {
		t.Error("unimplemented entries must read zero")
	}
	if f.CfgReg(0)>>32 != 0 {
		t.Error("unimplemented cfg bytes must read zero in packed reg")
	}
}

func TestAddrWARLMask(t *testing.T) {
	f := NewFile(1)
	f.SetAddr(0, ^uint64(0))
	if f.Addr(0) != rv.Mask(54) {
		t.Errorf("pmpaddr must mask to 54 bits: %#x", f.Addr(0))
	}
}

func TestSnapshotAndReset(t *testing.T) {
	f := NewFile(4)
	f.SetCfg(1, CfgR|ANa4<<3)
	f.SetAddr(1, 0x99)
	cfg, addr := f.Snapshot()
	if len(cfg) != 4 || cfg[1] != CfgR|ANa4<<3 || addr[1] != 0x99 {
		t.Error("snapshot content wrong")
	}
	cfg[1] = 0 // must not alias
	if f.Cfg(1) == 0 {
		t.Error("snapshot must not alias internal state")
	}
	f.SetCfg(2, CfgL|CfgR)
	f.Reset()
	if f.Cfg(2) != 0 || f.Cfg(1) != 0 || f.Addr(1) != 0 {
		t.Error("reset must clear everything, including locked entries")
	}
}

// Property: the first matching entry fully determines the verdict — adding
// lower-priority entries after a full match never changes the outcome.
func TestPriorityProperty(t *testing.T) {
	f := func(addrSeed uint64, cfg0, cfg1 byte, acc8 uint8) bool {
		acc := mem.AccessType(acc8 % 3)
		pf := NewFile(2)
		pf.SetAddr(0, rv.Mask(54)) // entry 0 matches everything (NAPOT all)
		pf.SetCfg(0, WithAMode(cfg0, ANapot))
		got1 := pf.Check(addrSeed%(1<<40), 4, acc, rv.ModeS)
		pf.SetAddr(1, rv.Mask(54))
		pf.SetCfg(1, WithAMode(cfg1, ANapot))
		got2 := pf.Check(addrSeed%(1<<40), 4, acc, rv.ModeS)
		return got1 == got2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Check never allows an S/U access that a no-permission
// full-matching first entry denies.
func TestDenyFirstEntryProperty(t *testing.T) {
	f := func(off uint16, acc8 uint8) bool {
		acc := mem.AccessType(acc8 % 3)
		pf := NewFile(4)
		pf.SetAddr(0, NAPOTAddr(0x10000, 0x10000))
		pf.SetCfg(0, ANapot<<3)
		pf.SetAddr(1, rv.Mask(54))
		pf.SetCfg(1, CfgR|CfgW|CfgX|ANapot<<3)
		addr := 0x10000 + uint64(off)%0xFFF8
		return !pf.Check(addr, 4, acc, rv.ModeU)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTopOfAddressSpace regression: the final bytes of the address space
// must be matchable by an all-ones NAPOT entry (a wrap bug found by the
// faithful-execution differential tests).
func TestTopOfAddressSpace(t *testing.T) {
	f := NewFile(2)
	f.SetAddr(0, rv.Mask(54))
	f.SetCfg(0, CfgR|CfgW|CfgX|ANapot<<3)
	if !f.Check(^uint64(0)-7, 8, mem.Read, rv.ModeS) {
		t.Error("top-of-space access must match the all-ones entry")
	}
	if !f.Check(^uint64(0), 1, mem.Write, rv.ModeU) {
		t.Error("very last byte must match")
	}
}

func TestNewFilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFile(65) must panic")
		}
	}()
	NewFile(65)
}

// View regression tests: a view ID names the file's contents within its
// intern table, for as long as the table lives, so every host cache keyed
// on it stays valid across a PMP round trip and never across a change.

// TestViewIDsNameContents: equal contents give equal IDs, different
// contents different IDs, and a round trip A→B→A lands back on A's ID —
// in one file, in a clone, and in a fresh file moved into the table.
func TestViewIDsNameContents(t *testing.T) {
	progA := func(f *File) {
		f.ForceAddr(0, NAPOTAddr(0x8000_0000, 0x1000))
		f.ForceCfg(0, CfgL|ANapot<<3)
		f.ForceAddr(3, rv.Mask(54))
		f.ForceCfg(3, CfgR|CfgW|CfgX|ANapot<<3)
	}
	progB := func(f *File) {
		f.ForceAddr(3, NAPOTAddr(0x9000_0000, 0x1000)) // same cfg bytes as A, another address
	}
	f := NewFile(4)
	if f.SettledView() != 0 {
		t.Fatalf("a fresh file must read unsettled, got view %d", f.SettledView())
	}
	zero := f.View()
	progA(f)
	a := f.View()
	progB(f)
	b := f.View()
	if zero == 0 || a == 0 || b == 0 {
		t.Fatalf("settled views must be nonzero: %d %d %d", zero, a, b)
	}
	if a == b || a == zero || b == zero {
		t.Fatalf("different contents share an ID: zero=%d A=%d B=%d", zero, a, b)
	}
	progA(f)
	if got := f.View(); got != a {
		t.Errorf("A→B→A landed on view %d, want A's %d", got, a)
	}
	c := f.Clone()
	progB(c)
	if got := c.View(); got != b {
		t.Errorf("a clone reprogrammed to B reads view %d, want %d", got, b)
	}
	g := NewFile(4)
	g.SetViews(f.Views())
	progA(g)
	if got := g.View(); got != a {
		t.Errorf("a fresh file in the same table programmed to A reads view %d, want %d", got, a)
	}
	if n := f.Views().Len(); n != 3 {
		t.Errorf("table interned %d contents, want 3 (zero, A, B)", n)
	}
	// The ID covers the pmpaddr values too: cfg bytes alone cannot tell
	// these apart.
	h := NewFile(4)
	h.SetViews(f.Views())
	h.ForceAddr(1, 0x1234)
	if got := h.View(); got == zero {
		t.Errorf("a pmpaddr-only change kept the all-zero view %d", zero)
	}
}

// TestCloneSharesViewTable: Clone carries the view and the intern table,
// deep-copies the registers, and a clone that diverges gets its own ID
// without disturbing the original's.
func TestCloneSharesViewTable(t *testing.T) {
	f := NewFile(4)
	f.SetCfg(0, CfgL|CfgR|ANapot<<3)
	f.SetAddr(1, 0x42)
	live := f.View()
	s := f.Clone()
	if s.Views() != f.Views() || s.SettledView() != live {
		t.Errorf("clone view %d in table %p, want %d in %p", s.SettledView(), s.Views(), live, f.Views())
	}
	if s.Cfg(0) != CfgL|CfgR|ANapot<<3 || s.Addr(1) != 0x42 {
		t.Error("clone lost architectural state")
	}
	s.ForceAddr(1, 0x43)
	if s.View() == live {
		t.Error("a diverged clone kept the original's view")
	}
	if f.SettledView() != live || f.Addr(1) != 0x42 {
		t.Errorf("clone writes reached the original: view %d, addr %#x", f.SettledView(), f.Addr(1))
	}
}

// TestViewsConcurrentClones interns from several goroutines through clones
// of one file, as forked machines that share their origin's table do: the
// race detector must stay quiet, and every goroutine must agree on the ID
// of each contents.
func TestViewsConcurrentClones(t *testing.T) {
	const workers, rounds, kinds = 4, 200, 5
	f := NewFile(8)
	var wg sync.WaitGroup
	ids := make([][kinds]uint64, workers)
	for w := 0; w < workers; w++ {
		c := f.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (r + w) % kinds
				c.ForceAddr(2, uint64(k)<<10)
				id := c.View()
				if prev := ids[w][k]; prev != 0 && prev != id {
					t.Errorf("worker %d: contents %d interned as %d, then %d", w, k, prev, id)
				}
				ids[w][k] = id
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ids[w] != ids[0] {
			t.Errorf("worker %d IDs %v, worker 0 %v", w, ids[w], ids[0])
		}
	}
	if n := f.Views().Len(); n != kinds {
		t.Errorf("table interned %d contents, want %d", n, kinds)
	}
}

// TestCloneForkThenProbe is the fork-then-probe regression: Clone must
// carry lock bits, the view, and a coherent fast-path segment hint, and
// the clone's verdicts must be independent of later parent mutations.
func TestCloneForkThenProbe(t *testing.T) {
	f := NewFile(8)
	f.SetFast(true)
	// Entry 0: the monitor-style locked deny-all region.
	f.SetAddr(0, NAPOTAddr(0x8000_0000, 0x10_0000))
	f.SetCfg(0, CfgL|ANapot<<3)
	// Entry 1: an allow window.
	f.SetAddr(1, NAPOTAddr(0x9000_0000, 0x1000))
	f.SetCfg(1, CfgR|CfgW|ANapot<<3)
	// Entry 7: background allow-all.
	f.SetAddr(7, rv.Mask(54))
	f.SetCfg(7, CfgR|CfgW|CfgX|ANapot<<3)

	// Warm the fast path so lastSeg points at a high segment.
	if !f.Check(0x9000_0800, 8, mem.Read, rv.ModeS) {
		t.Fatal("warmup check failed")
	}
	view := f.View()

	c := f.Clone()
	if c.View() != view {
		t.Errorf("clone view = %d, want %d (fork preserves the view)", c.View(), view)
	}
	if !c.Locked(0) || c.Cfg(0) != CfgL|ANapot<<3 {
		t.Errorf("clone lost the locked entry: cfg=%#x", c.Cfg(0))
	}

	// Mutate the parent: retarget the allow window and drop the background.
	f.SetAddr(1, NAPOTAddr(0xA000_0000, 0x1000))
	f.SetCfg(7, ANapot<<3)

	// The clone's verdicts must be the parent's pre-fork verdicts — probe
	// low addresses first so a stale shared lastSeg hint would be exposed.
	if c.Check(0x8000_0100, 8, mem.Read, rv.ModeM) {
		t.Error("clone must keep denying M-mode access to the locked region")
	}
	if !c.Check(0x9000_0800, 8, mem.Write, rv.ModeS) {
		t.Error("clone must keep the original allow window")
	}
	if !c.Check(0x1000, 8, mem.Exec, rv.ModeS) {
		t.Error("clone must keep the background allow-all")
	}
	if c.View() != view {
		t.Errorf("probing mutated the clone view: %d", c.View())
	}
	// And every clone verdict must agree with a scan-only file built from
	// the same architectural state (fast-path hint coherence).
	slow := c.Clone()
	slow.SetFast(false)
	for _, a := range []uint64{0x8000_0000, 0x8000_8000, 0x9000_0000, 0x9000_0FF8, 0x1000, 0xA000_0000} {
		for _, acc := range []mem.AccessType{mem.Read, mem.Write, mem.Exec} {
			for _, mode := range []rv.Mode{rv.ModeU, rv.ModeS, rv.ModeM} {
				if got, want := c.Check(a, 8, acc, mode), slow.Check(a, 8, acc, mode); got != want {
					t.Fatalf("fast/slow divergence at %#x %v %v: fast=%v scan=%v", a, acc, mode, got, want)
				}
			}
		}
	}
	// Locked entries survive in the parent too.
	if !f.Locked(0) {
		t.Error("parent lost its lock")
	}
}

// TestPageVerdict checks the whole-page verdict against Check on every
// word of the page: where PageVerdict reports one decision, every aligned
// access in the page must get it; the pages an entry's boundary cuts (NA4,
// a TOR bound, a NAPOT region smaller than the page) must report none.
func TestPageVerdict(t *testing.T) {
	const page = 0x8000_4000
	f := NewFile(8)
	f.SetFast(true)
	f.SetAddr(7, ^uint64(0))
	f.SetCfg(7, CfgR|ANapot<<3) // the rest of memory: read-only
	for _, tc := range []struct {
		name    string
		addr    uint64
		cfg     byte
		uniform bool
	}{
		{"napot page", NAPOTAddr(page, 4096), CfgR | CfgW | ANapot<<3, true},
		{"napot superset", NAPOTAddr(page&^0xFFFF, 1<<16), CfgW | CfgR | CfgX | ANapot<<3, true},
		{"napot elsewhere", NAPOTAddr(page+4096, 4096), ANapot << 3, true},
		{"napot half page", NAPOTAddr(page, 2048), CfgR | CfgW | ANapot<<3, false},
		{"na4", (page + 0x100) >> 2, CfgR | CfgW | ANa4<<3, false},
		{"tor bound inside", (page + 0x800) >> 2, CfgR | CfgW | ATor<<3, false},
		{"tor bound at the page end", (page + 4096) >> 2, CfgR | CfgW | ATor<<3, true},
		{"off", NAPOTAddr(page, 4096), CfgR | CfgW, true},
	} {
		f.SetAddr(0, tc.addr)
		f.SetCfg(0, tc.cfg)
		for _, mode := range []rv.Mode{rv.ModeM, rv.ModeS, rv.ModeU} {
			perm, ok := f.PageVerdict(page, mode)
			if ok != tc.uniform {
				t.Errorf("%s, mode %v: uniform=%v, want %v", tc.name, mode, ok, tc.uniform)
				continue
			}
			if !ok {
				continue
			}
			for off := uint64(0); off < 4096; off += 4 {
				for _, acc := range []mem.AccessType{mem.Read, mem.Write, mem.Exec} {
					want := f.Check(page+off, 4, acc, mode)
					if got := perm&(CfgR<<acc) != 0; got != want {
						t.Fatalf("%s, mode %v, %v at +%#x: verdict %v, Check %v",
							tc.name, mode, acc, off, got, want)
					}
				}
			}
		}
	}
}
