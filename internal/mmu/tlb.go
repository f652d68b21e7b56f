package mmu

import (
	"govfm/internal/mem"
	"govfm/internal/rv"
)

// TLB is a host-side cache of successful leaf translations, direct-mapped
// per access type. It is purely a host accelerator: the simulated machine
// has no architectural TLB, and the cycle model charges translation costs
// identically whether an access hits here or performs the full walk (the
// Sv39 walk charges no cycles of its own — see DESIGN.md, "Host fast paths
// vs. simulated cycle model").
//
// Validity is established by comparison rather than eager invalidation:
// every entry is tagged with the satp value, effective privilege, SUM/MXR
// bits, the PMP file's view ID, and this TLB's flush generation. A lookup
// under different state simply misses, so satp rewrites, privilege
// changes, mstatus edits, and PMP reprogramming all invalidate for free.
// The view ID names the PMP contents (pmp.File.View), so a PMP round trip
// — a world switch out and back — finds its entries again.
// Explicit flushes (sfence.vma, snapshot restore) bump the generation —
// O(1). Software edits of page-table memory are caught by the bus page
// watch: the hart watches every page a cached walk read its PTEs from and
// flushes on any write to one (see hart's InvalidatePhysPage).
//
// Entries are per 4KiB page even inside superpages; Sv39 maps each 4KiB
// virtual page to a fixed physical page regardless of leaf level, so this
// is lossless.
type TLB struct {
	gen  uint64
	sets [3][tlbSets]tlbEntry // indexed by AccessType
}

const tlbSets = 64

type tlbEntry struct {
	valid  bool
	priv   rv.Mode
	flags  uint8 // bit0 SUM, bit1 MXR, bit2 V
	vpn    uint64
	satp   uint64
	hgatp  uint64 // G-stage root at fill (zero for single-stage entries)
	view   uint64 // pmp.File.View at fill
	gen    uint64
	paPage uint64
}

func tlbFlags(sum, mxr, v bool) uint8 {
	var f uint8
	if sum {
		f |= 1
	}
	if mxr {
		f |= 2
	}
	if v {
		f |= 4
	}
	return f
}

// Flush invalidates every entry in O(1) by advancing the generation.
func (t *TLB) Flush() { t.gen++ }

// Key bundles the translation-validity state a lookup is performed under.
// Callers that perform many lookups under unchanged state (the superblock
// tier hoists one Key per block dispatch — CSR writes, traps, and xrets are
// all block terminators, so the state cannot change mid-block) build it
// once.
//
// Under two-stage translation V is set, Satp holds vsatp, and Hgatp the
// G-stage root: validity-by-comparison extends unchanged — an entry filled
// under a different hgatp (or the other virtualization mode) simply misses,
// so hgatp rewrites and V transitions invalidate for free, exactly like
// satp (see DESIGN.md, "Two-stage translation vs. the single-stage TLB").
type Key struct {
	Satp  uint64
	Hgatp uint64 // zero unless V
	View  uint64 // pmp.File.View at lookup; never 0
	Priv  rv.Mode
	SUM   bool
	MXR   bool
	V     bool
}

// Lookup returns the cached physical page for virtual page vpn (va>>12)
// under the translation state k, if present.
func (t *TLB) Lookup(acc mem.AccessType, vpn uint64, k Key) (uint64, bool) {
	e := &t.sets[acc][vpn%tlbSets]
	if e.valid && e.vpn == vpn && e.satp == k.Satp && e.hgatp == k.Hgatp &&
		e.view == k.View && e.gen == t.gen && e.priv == k.Priv &&
		e.flags == tlbFlags(k.SUM, k.MXR, k.V) {
		return e.paPage, true
	}
	return 0, false
}

// Insert caches a successful leaf translation made under k.
func (t *TLB) Insert(acc mem.AccessType, vpn uint64, k Key, paPage uint64) {
	t.sets[acc][vpn%tlbSets] = tlbEntry{
		valid:  true,
		priv:   k.Priv,
		flags:  tlbFlags(k.SUM, k.MXR, k.V),
		vpn:    vpn,
		satp:   k.Satp,
		hgatp:  k.Hgatp,
		view:   k.View,
		gen:    t.gen,
		paPage: paPage,
	}
}
