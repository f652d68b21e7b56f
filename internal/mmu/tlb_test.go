package mmu

import (
	"testing"
	"unsafe"

	"govfm/internal/rv"
)

// TestTLBSize pins the table's host footprint: 32-byte entries, and no
// more per hart than the three 64-entry per-access-type arrays of 56-byte
// entries it replaced (10,760 bytes).
func TestTLBSize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 32 {
		t.Errorf("entry is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(TLB{}); n > 10_760 {
		t.Errorf("TLB is %d bytes, over the 10,760 of the table it replaced", n)
	}
}

// TestTLBContexts checks the context IDs: one ID per key while the table
// holds it, a flush or a full table makes every later ID new, and no ID
// is ever issued twice.
func TestTLBContexts(t *testing.T) {
	var tl TLB
	key := func(i int) *Key { return &Key{Satp: uint64(i), View: 1, Mode: uint64(rv.ModeS)} }
	a, b := tl.Ctx(key(1)), tl.Ctx(key(2))
	if a == 0 || b == 0 || a == b || tl.Ctx(key(1)) != a {
		t.Fatalf("ids %d, %d, again %d", a, b, tl.Ctx(key(1)))
	}
	seen := map[uint32]bool{a: true, b: true}
	e := tl.Insert(7, a, 0x8000_1000, TransR)
	tl.Flush()
	if tl.Probe(7, a) != e {
		t.Fatalf("the entry itself stays; only new IDs stop reaching it")
	}
	if c := tl.Ctx(key(1)); seen[c] {
		t.Fatalf("flush reissued ID %d", c)
	} else if tl.Probe(7, c) != nil {
		t.Fatalf("an entry filled before the flush hit under the new ID")
	}
	for i := 0; i < 3*ctxCap; i++ {
		id := tl.Ctx(key(100 + i))
		if seen[id] {
			t.Fatalf("ID %d issued twice", id)
		}
		seen[id] = true
	}
	if tl.n > ctxCap {
		t.Fatalf("the context table holds %d keys, cap %d", tl.n, ctxCap)
	}
	// When the IDs run out, every entry and key goes before one is reissued.
	tl.last = ^uint32(0) - 1
	x := tl.Ctx(key(900))
	tl.Insert(9, x, 0x9000, TransR)
	if y := tl.Ctx(key(901)); y != 1 || tl.Ctx(key(900)) == x || tl.Probe(9, x) != nil {
		t.Fatalf("after the IDs wrapped: new ID %d, old key's ID %d (was %d)", y, tl.Ctx(key(900)), x)
	}
}

// TestTLBTwoWays checks that two pages of one set both stay, a third
// evicts the older, and an insert for a cached page merges its flags.
func TestTLBTwoWays(t *testing.T) {
	var tl TLB
	ctx := tl.Ctx(&Key{View: 1, Mode: uint64(rv.ModeM)})
	v0, v1, v2 := uint64(5), uint64(5+tlbSets), uint64(5+2*tlbSets)
	tl.Insert(v0, ctx, v0<<12, TransR)
	tl.Insert(v1, ctx, v1<<12, TransR)
	if tl.Probe(v0, ctx) == nil || tl.Probe(v1, ctx) == nil {
		t.Fatalf("two pages of one set did not both stay")
	}
	tl.Insert(v2, ctx, v2<<12, TransR)
	if tl.Probe(v0, ctx) != nil || tl.Probe(v1, ctx) == nil || tl.Probe(v2, ctx) == nil {
		t.Fatalf("a third page did not evict the oldest")
	}
	e := tl.Insert(v1, ctx, v1<<12, TransW)
	if e.PA&(TransR|TransW) != TransR|TransW || e.Page() != v1<<12 {
		t.Fatalf("merge: %#x", e.PA)
	}
}

// TestTLBRetireHost checks that a line watch retires the write access of
// one page's entries and a snapshot every entry's host bytes, translations
// and verdicts kept.
func TestTLBRetireHost(t *testing.T) {
	var tl TLB
	var p, q [4096]byte
	ctx := tl.Ctx(&Key{View: 1, Mode: uint64(rv.ModeM)})
	e1 := tl.Insert(1, ctx, 0x1000, TransR|TransW|PermR|PermW|Verdict)
	tl.SetHost(e1, &p, HostR|HostW, 1<<3)
	e2 := tl.Insert(2, ctx, 0x2000, TransR|TransW|PermR|PermW|Verdict)
	tl.SetHost(e2, &q, HostR|HostW, 0)
	if e1.Lines != 1<<3 || e2.Lines != 0 {
		t.Fatalf("lines %#x %#x", e1.Lines, e2.Lines)
	}
	tl.RetireHost(0x1000, false)
	if e1.PA&(HostR|HostW) != HostR || e1.Host != &p || e2.PA&HostW != HostW {
		t.Fatalf("watch retire: %#x %#x", e1.PA, e2.PA)
	}
	tl.RetireHost(0, true)
	for _, e := range []*Entry{e1, e2} {
		if e.PA&(HostR|HostW) != 0 || e.Host != nil || e.PA&(TransW|PermW|Verdict) != TransW|PermW|Verdict {
			t.Fatalf("retire all: %#x %p", e.PA, e.Host)
		}
	}
}
