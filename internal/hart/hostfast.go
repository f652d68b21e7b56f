package hart

// Host-side acceleration caches. Everything in this file trades host time
// only: the simulated machine's architectural state and cycle accounting
// are bit-identical with the fast paths on or off (the fastpath-equivalence
// fuzz gate in internal/verif/fuzz runs the two configurations in lockstep
// and fails on any divergence). See DESIGN.md, "Host fast paths vs. the
// simulated cycle model".

import (
	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/rv"
)

// decPage caches the predecoded form of one 4KiB physical page of
// instruction memory (1024 potential 32-bit slots, filled on first fetch)
// and the superblocks translated from it. Write invalidation is exact to
// the written bytes (write): a store drops only the decodes and blocks
// that read one of its slots, so data sharing a page with code — a
// firmware stack next to its text, a hypervisor's trap frames next to its
// handler — costs a bitmap test instead of a re-decode of the page. The
// page lives until flushDecode, with its bus watch armed throughout
// (InvalidatePhysPage keeps it).
type decPage struct {
	// dec marks the slots whose ins entry holds a valid decode. code marks
	// every slot some live state read: a decode, or a superblock that read
	// the slot raw. code is a superset — a dropped block leaves the bits of
	// its other slots set until they are next written — so a write that
	// misses code is certainly a data write.
	dec, code [16]uint64
	ins       [1024]rv.Decoded

	// Superblock tier state (superblock.go), lazily allocated: hot counts
	// dispatches per entry slot until translation; blocks holds the
	// translated superblocks by entry slot in 64-slot chunks (direct
	// arrays, not a map — the lookup is on the per-dispatch hot path —
	// allocated per chunk, as hot code rarely spans a page).
	hot    *[1024]uint8
	blocks [1024 / 64]*[64]*sblock
}

// slotBit locates slot i in a 1024-bit slot bitmap.
func slotBit(i int) (word int, mask uint64) { return i >> 6, 1 << (i & 63) }

// decoded reports whether slot i holds a valid decode.
func (dp *decPage) decoded(i int) bool {
	w, m := slotBit(i)
	return dp.dec[w]&m != 0
}

// fill caches the decode of slot i.
func (dp *decPage) fill(i int, d rv.Decoded) {
	w, m := slotBit(i)
	dp.ins[i] = d
	dp.dec[w] |= m
	dp.code[w] |= m
}

// block returns the superblock entered at slot i, or nil.
func (dp *decPage) block(i int) *sblock {
	if c := dp.blocks[i>>6]; c != nil {
		return c[i&63]
	}
	return nil
}

// setBlock installs sb as the superblock entered at slot i.
func (dp *decPage) setBlock(i int, sb *sblock) {
	c := dp.blocks[i>>6]
	if c == nil {
		c = new([64]*sblock)
		dp.blocks[i>>6] = c
	}
	c[i&63] = sb
}

// markCode records that a superblock read slots [from, to).
func (dp *decPage) markCode(from, to int) {
	for i := from; i < to; i++ {
		w, m := slotBit(i)
		dp.code[w] |= m
	}
}

// write drops every decode and superblock that read a byte of the in-page
// range [lo, hi) and reports whether any was live.
func (dp *decPage) write(lo, hi int) (hit bool) {
	first, last := lo>>2, (hi-1)>>2
	code := false
	for i := first; i <= last; i++ {
		w, m := slotBit(i)
		if dp.code[w]&m == 0 {
			continue
		}
		code = true
		hit = hit || dp.dec[w]&m != 0
		dp.code[w] &^= m
		dp.dec[w] &^= m
	}
	if !code {
		return hit
	}
	// A block spans at most sbMaxOps slots, so only entries that close can
	// reach the first written slot.
	for e := max(first-sbMaxOps+1, 0); e <= last; e++ {
		if b := dp.block(e); b != nil && e+int(b.span) > first {
			dp.setBlock(e, nil)
			hit = true
		}
	}
	return hit
}

// fastState bundles the per-hart host caches.
type fastState struct {
	on bool

	// tlb caches successful leaf translations (see mmu.TLB for the
	// validity-by-comparison scheme).
	tlb mmu.TLB

	// pages maps physical page base -> predecoded instructions, with a
	// 1-entry lookup cache in front (straight-line code stays on one
	// page). Pages are cached only when the bus can watch them (RAM);
	// any write into a cached page — this hart, another hart, DMA, the
	// fault injector — drops the decodes and superblocks that read the
	// written bytes via InvalidatePhysPage.
	pages        map[uint64]*decPage
	lastPageBase uint64
	lastPage     *decPage

	// ptePages is the set of physical pages some cached TLB entry read
	// its PTEs from. A write to any of them flushes the whole TLB: page
	// tables change rarely, so precision is not worth per-entry tracking.
	ptePages map[uint64]struct{}

	// scratch holds the decode of fetches that cannot be cached (MMIO).
	scratch rv.Decoded

	// fetchDP/fetchSlot/fetchPA record where fetchFast found the current
	// instruction, so the superblock dispatcher (sbTry) can locate the
	// block keyed at that physical slot. fetchDP is nil for MMIO fetches.
	fetchDP   *decPage
	fetchSlot int
	fetchPA   uint64
}

// excScratch is a small ring of Exc values so the hot fault paths return
// pointers without heap allocation. Callers treat a returned *Exc as
// transient — consumed before the next handful of exceptions — which every
// consumer in this module does (checked by review: core, bench, fuzz all
// read Cause/Tval immediately).
type excScratch struct {
	buf [16]Exc
	i   int
}

// exc fills the next ring slot and returns it.
func (h *Hart) exc(cause, tval uint64) *Exc {
	e := &h.excs.buf[h.excs.i%len(h.excs.buf)]
	h.excs.i++
	e.Cause, e.Tval, e.Gpa = cause, tval, 0
	return e
}

// SetFastPath switches the host acceleration caches on or off, flushing
// them in both directions so stale state can never be consulted later.
func (h *Hart) SetFastPath(on bool) {
	h.fast.on = on
	h.CSR.PMP.SetFast(on)
	h.flushDecode()
	h.flushTLB()
}

// FastPathEnabled reports whether the host caches are in use.
func (h *Hart) FastPathEnabled() bool { return h.fast.on }

// InvalidatePhysPage implements mem.PageWatcher: bytes [lo, hi) of a
// watched page were written. It drops the predecoded instructions and
// superblocks that read them and, if a cached translation walked through
// the page, the whole TLB, and keeps the watch while the page has a decode
// page. A write that hit live code or a page table also ends the running
// block after the current op: a block never refetches or retranslates its
// PCs, while the interpreter fetches the new bytes, through the new
// mapping, from the next instruction on.
func (h *Hart) InvalidatePhysPage(page uint64, lo, hi int) bool {
	if _, ok := h.fast.ptePages[page]; ok {
		h.flushTLB()
		h.sb.endAfter = true
	}
	dp := h.fast.pages[page]
	if dp == nil {
		return false
	}
	if dp.write(lo, hi) {
		h.Perf.CodeWriteInvalidations++
		h.sb.endAfter = true
	} else {
		h.Perf.CodePageDataWrites++
	}
	return true
}

// noteOwnStore applies a store this hart just buffered inside a parallel
// slice to its own caches, as the bus watch does for a direct store. The
// port forwards the buffered bytes to the hart's own fetches and page
// walks at once, so its decodes and translations cannot wait for the
// barrier, whose commit notifies every hart, this one again included.
func (h *Hart) noteOwnStore(pa uint64, size int) {
	for end := pa + uint64(size); pa < end; {
		page := pa &^ 4095
		hi := min(end, page+4096)
		h.InvalidatePhysPage(page, int(pa-page), int(hi-page))
		pa = hi
	}
}

// flushDecode drops every predecoded page (fence.i, snapshot restore,
// fast-path toggle). The bus watch bits stay armed until the next write to
// each page, which this hart then declines to keep.
func (h *Hart) flushDecode() {
	clear(h.fast.pages)
	h.fast.lastPage, h.fast.lastPageBase = nil, 0
	h.fast.fetchDP = nil
}

// flushTLB drops every cached translation (sfence.vma, satp write,
// snapshot restore, fast-path toggle).
func (h *Hart) flushTLB() {
	h.fast.tlb.Flush()
	clear(h.fast.ptePages)
}

// tlbFill caches a successful translation, first arming a write watch on
// every page the walk read PTEs from so software page-table edits
// invalidate it. PTE pages outside RAM cannot be watched; such walks stay
// uncached. Arming happens after the walk so the walker's own A/D-bit
// store does not immediately kill the entry.
func (h *Hart) tlbFill(acc mem.AccessType, vpn uint64, k mmu.Key, res *mmu.Result) {
	for i := 0; i < res.WalkLen; i++ {
		p := res.Walk[i] &^ 4095
		if !h.mem.WatchPage(p) {
			return
		}
		h.fast.ptePages[p] = struct{}{}
	}
	h.fast.tlb.InsertK(acc, vpn, k, res.PA&^4095)
}

// tlbKey bundles the current translation-validity state for priv. With
// virt set the key carries the guest context (vsatp, hgatp, vsstatus
// SUM/MXR, V) so two-stage fills can never satisfy host-context lookups
// or vice versa — hgatp rewrites and V transitions miss by comparison.
func (h *Hart) tlbKey(priv rv.Mode, virt bool) mmu.Key {
	if virt {
		return mmu.Key{
			Satp:  h.CSR.Vsatp,
			Hgatp: h.CSR.Hgatp,
			Epoch: h.CSR.PMP.Epoch(),
			Priv:  priv,
			SUM:   rv.Bit(h.CSR.Vsstatus, rv.MstatusSUM) != 0,
			MXR:   rv.Bit(h.CSR.Vsstatus, rv.MstatusMXR) != 0,
			V:     true,
		}
	}
	return mmu.Key{
		Satp:  h.CSR.Satp,
		Epoch: h.CSR.PMP.Epoch(),
		Priv:  priv,
		SUM:   rv.Bit(h.CSR.Mstatus, rv.MstatusSUM) != 0,
		MXR:   rv.Bit(h.CSR.Mstatus, rv.MstatusMXR) != 0,
	}
}

// translationActive reports whether any translation stage applies for a
// (priv, virt) access context.
func (h *Hart) translationActive(priv rv.Mode, virt bool) bool {
	if priv == rv.ModeM {
		return false
	}
	if virt {
		return rv.SatpMode(h.CSR.Vsatp) == rv.SatpModeSv39 ||
			rv.SatpMode(h.CSR.Hgatp) == rv.HgatpModeSv39x4
	}
	return rv.SatpMode(h.CSR.Satp) == rv.SatpModeSv39
}

// translate maps a virtual address for an access at the given effective
// privilege and virtualization mode, using the TLB when the fast path is
// on. Architecturally identical to calling mmu.Translate directly: the TLB
// only ever caches what a full walk produced, keyed on all state the walk
// depends on, and walks charge no simulated cycles, so hits change host
// time only.
func (h *Hart) translate(va uint64, acc mem.AccessType, priv rv.Mode, virt bool) (uint64, *Exc) {
	if !h.translationActive(priv, virt) {
		return va, nil
	}
	if !h.fast.on {
		h.Perf.PageWalks++
		res := mmu.Translate(h.mmuEnv(priv, virt), va, acc)
		if !res.OK {
			if h.inSlice && h.mem.TakeBlocked() {
				return 0, errParked
			}
			ei := h.exc(res.Cause, va)
			ei.Gpa = res.GPA
			return 0, ei
		}
		return res.PA, nil
	}
	vpn := va >> 12
	k := h.tlbKey(priv, virt)
	if paPage, ok := h.fast.tlb.LookupK(acc, vpn, k); ok {
		h.Perf.TLBHits++
		return paPage | va&4095, nil
	}
	h.Perf.TLBMisses++
	h.Perf.PageWalks++
	res := mmu.Translate(h.mmuEnv(priv, virt), va, acc)
	if !res.OK {
		if h.inSlice && h.mem.TakeBlocked() {
			return 0, errParked
		}
		ei := h.exc(res.Cause, va)
		ei.Gpa = res.GPA
		return 0, ei
	}
	h.tlbFill(acc, vpn, k, &res)
	return res.PA, nil
}

// fetchFast returns the predecoded instruction at PC. It performs exactly
// the architectural work of fetch() — alignment check, translation, PMP,
// bus read — except that translation may hit the TLB and the decode may
// hit the per-page cache.
func (h *Hart) fetchFast() (*rv.Decoded, *Exc) {
	if h.PC&3 != 0 {
		return nil, h.exc(rv.ExcInstrAddrMisaligned, h.PC)
	}
	// Fetch always uses the true privilege mode; MPRV affects data only.
	pa, ei := h.translate(h.PC, mem.Exec, h.Mode, h.V)
	if ei != nil {
		return nil, ei
	}
	if !h.CSR.PMP.Check(pa, 4, mem.Exec, h.Mode) {
		return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
	}
	pageBase := pa &^ 4095
	dp := h.fast.lastPage
	if dp == nil || h.fast.lastPageBase != pageBase {
		dp = h.fast.pages[pageBase]
		if dp == nil {
			if !h.mem.WatchPage(pageBase) {
				// Not RAM: execute-in-place from a device; never cache.
				h.Perf.DecodeMisses++
				v, ok := h.mem.Load(pa, 4)
				if !ok {
					if h.inSlice && h.mem.TakeBlocked() {
						return nil, errParked
					}
					return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
				}
				h.fast.scratch = rv.Decode(uint32(v))
				h.fast.fetchDP = nil // never translated into superblocks
				return &h.fast.scratch, nil
			}
			// The watch armed above stays armed for the page's life.
			dp = new(decPage)
			h.fast.pages[pageBase] = dp
		}
		h.fast.lastPage, h.fast.lastPageBase = dp, pageBase
	}
	i := int(pa&4095) >> 2
	h.fast.fetchDP, h.fast.fetchSlot, h.fast.fetchPA = dp, i, pa
	if !dp.decoded(i) {
		h.Perf.DecodeMisses++
		v, ok := h.mem.Load(pa, 4)
		if !ok {
			return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
		}
		dp.fill(i, rv.Decode(uint32(v)))
	} else {
		h.Perf.DecodeHits++
	}
	return &dp.ins[i], nil
}
