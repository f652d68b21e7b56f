package hart

// Host-side acceleration caches. Everything in this file trades host time
// only: the simulated machine's architectural state and cycle accounting
// are bit-identical with the fast paths on or off (the differential fuzz
// gates in internal/verif/fuzz run the two configurations side by side and
// fail on any divergence). See DESIGN.md, "Host fast paths vs. the
// simulated cycle model".

import (
	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// decPage caches the predecoded form of one 4KiB physical page of
// instruction memory (1024 potential 32-bit slots, filled on first fetch)
// and the superblocks translated from it. Write invalidation is exact to
// the written bytes (write): a store drops only the decodes and blocks
// that read one of its slots, so data sharing a page with code — a
// firmware stack next to its text, a hypervisor's trap frames next to its
// handler — costs a bitmap test instead of a re-decode of the page, and
// data outside the page's code lines costs nothing: every slot that live
// state read has its line watched (mem.Bus.Watch: a decode miss arms its
// slot's line, a translation the lines of every slot it read), and only a
// write that touches a watched line is seen. The page lives until
// flushDecode, with its lines armed throughout (InvalidatePhysPage keeps
// them).
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

// setBlock installs sb as the superblock entered at slot i. The block it
// replaces or drops dies: links to it fall back to the lookup (sbNext), and
// its own links go, so a dead block keeps no other alive.
func (dp *decPage) setBlock(i int, sb *sblock) {
	c := dp.blocks[i>>6]
	if c == nil {
		c = new([64]*sblock)
		dp.blocks[i>>6] = c
	}
	if old := c[i&63]; old != nil {
		old.dead = true
		old.taken, old.fall = nil, nil
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

	// tlb caches translations, page PMP verdicts and host page bytes (see
	// mmu.TLB for the validity-by-comparison scheme).
	tlb mmu.TLB

	// pages maps physical page base -> predecoded instructions, with a
	// 1-entry lookup cache in front (straight-line code stays on one
	// page). Pages are cached only when the bus can watch them (RAM);
	// any write into a cached slot — this hart, another hart, DMA, the
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
	h.flushDecode()
	h.flushTLB()
}

// FastPathEnabled reports whether the host caches are in use.
func (h *Hart) FastPathEnabled() bool { return h.fast.on }

// InvalidatePhysPage implements mem.PageWatcher: bytes [lo, hi) of a
// page were written, touching a watched line. It drops the predecoded
// instructions and superblocks that read them and, if a cached translation
// walked through the page, the whole TLB, and keeps the page's lines while
// it has a decode page. A write that hit live code or a page table also
// ends the running block after the current op: a block never refetches or
// retranslates its PCs, while the interpreter fetches the new bytes,
// through the new mapping, from the next instruction on.
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

// flushDecode drops every predecoded page (fence.i, snapshot restore,
// fast-path toggle). The pages' watched lines stay armed until the next
// write to one of them, which this hart then declines to keep.
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

// RetireHostPages implements mem.HostHolder: the bus retires host bytes
// the TLB holds (every pointer, or the write access into one page whose
// watched lines grew).
func (h *Hart) RetireHostPages(page uint64, all bool) { h.fast.tlb.RetireHost(page, all) }

// Entry flags a host-tier hit needs, by access type: the translation, a
// page verdict that permits the access, and the host bytes (fetches are
// answered by the predecode cache, so they need no bytes).
const (
	hostLoad  = mmu.TransR | mmu.PermR | mmu.HostR
	hostStore = mmu.TransW | mmu.PermW | mmu.HostW
	hostFetch = mmu.TransX | mmu.PermX
)

// inPage reports whether size bytes at va stay on va's page.
func inPage(va uint64, size int) bool { return va&4095+uint64(size) <= 4096 }

// tlbCtx returns the TLB context ID of a (priv, virt) access context, and
// whether it translates. The context's key carries the translation root
// and, with virt, the guest context (vsatp, hgatp, vsstatus SUM/MXR, V),
// so two-stage fills can never satisfy host-context lookups or vice versa
// — hgatp rewrites and V transitions miss by comparison. Without
// translation only the PMP view and the privilege matter, and a fetch
// does not settle the view: M-mode code that reprograms the PMP entry by
// entry runs between its writes with a view of 0, and such a fetch gets
// ctx 0 and bypasses the TLB, so it interns none of the states it passes
// through.
func (h *Hart) tlbCtx(priv rv.Mode, virt, fetch bool) (ctx uint32, translated bool) {
	k := mmu.Key{Mode: uint64(priv)}
	if !h.translationActive(priv, virt) {
		if k.View = h.CSR.PMP.SettledView(); k.View == 0 {
			if fetch {
				return 0, false
			}
			k.View = h.CSR.PMP.View()
		}
		return h.fast.tlb.Ctx(&k), false
	}
	status := h.CSR.Mstatus
	if virt {
		k.Satp, k.Hgatp, status = h.CSR.Vsatp, h.CSR.Hgatp, h.CSR.Vsstatus
		k.Mode |= mmu.KeyV
	} else {
		k.Satp = h.CSR.Satp
	}
	if rv.Bit(status, rv.MstatusSUM) != 0 {
		k.Mode |= mmu.KeySUM
	}
	if rv.Bit(status, rv.MstatusMXR) != 0 {
		k.Mode |= mmu.KeyMXR
	}
	k.View = h.CSR.PMP.View()
	return h.fast.tlb.Ctx(&k), true
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

// resolve maps va for an access of size bytes and type acc in the context
// (priv, virt), interned as ctx (translated: whether it translates), and
// checks it against PMP — exactly the work of mmu.Translate and
// pmp.File.Check, answered from the TLB where it can be. A translating
// context looks its page up (counting the hit or the miss) and walks on a
// miss; the entry then gains the walk (tlbFill), unless a page the walk
// read cannot be watched, and e is nil. A context without translation
// maps the page to itself. A PMP verdict cached for the whole page stands
// in for the check of an access within it. Walks charge no simulated
// cycles, and the entry only ever holds what a walk and a check produced,
// keyed on all state they depend on, so hits change host time only.
func (h *Hart) resolve(va uint64, size int, acc mem.AccessType, priv rv.Mode, virt bool, ctx uint32, translated bool) (e *mmu.Entry, pa uint64, ei *Exc) {
	vpn := va >> 12
	e = h.fast.tlb.Probe(vpn, ctx)
	switch {
	case e != nil && e.PA&(mmu.TransR<<acc) != 0:
		if translated {
			h.Perf.TLBHits++
		}
	case translated:
		h.Perf.TLBMisses++
		h.Perf.PageWalks++
		res := mmu.Translate(h.mmuEnv(priv, virt), va, acc)
		if !res.OK {
			ei = h.exc(res.Cause, va)
			ei.Gpa = res.GPA
			return nil, 0, ei
		}
		if e = h.tlbFill(vpn, ctx, acc, &res); e == nil {
			if !h.CSR.PMP.Check(res.PA, size, acc, priv) {
				return nil, 0, h.exc(accessFaultCause(acc), va)
			}
			return nil, res.PA, nil
		}
	default:
		e = h.fast.tlb.Insert(vpn, ctx, va&^4095, mmu.TransR|mmu.TransW|mmu.TransX)
	}
	pa = e.Page() | va&4095
	if e.PA&mmu.Verdict == 0 {
		h.pageVerdict(e, priv)
	}
	if e.PA&(mmu.PermR<<acc) == 0 || !inPage(va, size) {
		if !h.CSR.PMP.Check(pa, size, acc, priv) {
			return nil, 0, h.exc(accessFaultCause(acc), va)
		}
	}
	return e, pa, nil
}

// tlbFill caches a successful translation for access type acc, first
// arming a write watch on every line of every page the walk read PTEs
// from so software page-table edits invalidate it. PTE pages outside RAM
// cannot be watched; such walks stay uncached (nil). Arming happens after
// the walk so the walker's own A/D-bit store does not immediately kill the
// entry.
func (h *Hart) tlbFill(vpn uint64, ctx uint32, acc mem.AccessType, res *mmu.Result) *mmu.Entry {
	for i := 0; i < res.WalkLen; i++ {
		p := res.Walk[i] &^ 4095
		if !h.Bus.Watch(p, 4096) {
			return nil
		}
		h.fast.ptePages[p] = struct{}{}
	}
	return h.fast.tlb.Insert(vpn, ctx, res.PA&^4095, mmu.TransR<<acc)
}

// pageVerdict caches in e the PMP verdict for its whole page under priv
// (the context's privilege; its view is the file's). A page no single
// decision covers keeps the per-access check and never gets host bytes.
func (h *Hart) pageVerdict(e *mmu.Entry, priv rv.Mode) {
	perm, ok := h.CSR.PMP.PageVerdict(e.Page(), priv)
	if !ok {
		h.Perf.HostSkipPMP++
		e.PA |= mmu.Verdict | mmu.NoHost
		return
	}
	e.PA |= mmu.Verdict | uint64(perm&(pmp.CfgR|pmp.CfgW|pmp.CfgX))*mmu.PermR
}

// fillHost gives e its page's host bytes when the bus lets the host keep
// them (mem.Bus.HostPage): for reads, and for writes outside the page's
// watched lines, when the bus owns the page. It returns the bytes a read
// may use now, kept or not (nil: not RAM).
func (h *Hart) fillHost(e *mmu.Entry) *[4096]byte {
	p, st, lines := h.Bus.HostPage(e.Page())
	switch st {
	case mem.PageWritable:
		h.fast.tlb.SetHost(e, p, mmu.HostR|mmu.HostW, lines)
		h.Perf.HostFills++
	case mem.PageSealed:
		h.Perf.HostSkipSealed++
	case mem.PageUntouched:
		h.Perf.HostSkipUntouched++
	default:
		e.PA |= mmu.NoHost
		h.Perf.HostSkipMMIO++
	}
	return p
}

// hostLinesMiss reports whether a store of size bytes at va, on a page
// whose host entry e has watched lines, misses them and so may write the
// host bytes in place; it counts such stores.
func (h *Hart) hostLinesMiss(e *mmu.Entry, va uint64, size int) bool {
	if e.Lines&mem.Lines(va&4095, size) != 0 {
		return false
	}
	h.Perf.HostWatchedHits++
	return true
}

// busLoad reads size bytes at pa for an access resolved to e (nil when
// uncached): through e's host bytes, filling them first if it has none,
// or through the bus. The caller has checked PMP and charged the access.
func (h *Hart) busLoad(e *mmu.Entry, pa uint64, size int) (uint64, bool) {
	if e == nil || e.PA&mmu.NoHost != 0 || !inPage(pa, size) {
		return h.Bus.Load(pa, size)
	}
	p := e.Host
	if e.PA&mmu.HostR == 0 {
		if p = h.fillHost(e); p == nil {
			return h.Bus.Load(pa, size)
		}
	}
	return mem.PageLoad(p, pa&4095, size), true
}

// busStore writes size bytes at pa for an access resolved to e (nil when
// uncached): in place when e may write its host bytes, filling them (and
// the page's watched lines) first if it may not, or through the bus,
// whose store funnel breaks sealed pages off and tells the page's
// watchers. A store that touches a watched line always takes the bus.
func (h *Hart) busStore(e *mmu.Entry, pa uint64, size int, v uint64) bool {
	if e == nil || e.PA&mmu.NoHost != 0 || !inPage(pa, size) {
		return h.Bus.Store(pa, size, v)
	}
	if e.PA&mmu.HostW == 0 {
		h.fillHost(e)
	}
	if e.PA&mmu.HostW == 0 {
		return h.Bus.Store(pa, size, v)
	}
	if e.Lines != 0 && !h.hostLinesMiss(e, pa, size) {
		h.Perf.HostSkipWatched++
		return h.Bus.Store(pa, size, v)
	}
	mem.PageStore(e.Host, pa&4095, size, v)
	return true
}

// translate maps a virtual address for an access at the given effective
// privilege and virtualization mode with a full walk: the data path with
// the fast path off (resolve is its TLB counterpart).
func (h *Hart) translate(va uint64, acc mem.AccessType, priv rv.Mode, virt bool) (uint64, *Exc) {
	if !h.translationActive(priv, virt) {
		return va, nil
	}
	h.Perf.PageWalks++
	res := mmu.Translate(h.mmuEnv(priv, virt), va, acc)
	if !res.OK {
		ei := h.exc(res.Cause, va)
		ei.Gpa = res.GPA
		return 0, ei
	}
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
	ctx, translated := h.tlbCtx(h.Mode, h.V, true)
	pa := h.PC
	if e := h.fast.tlb.Probe(h.PC>>12, ctx); e != nil && e.PA&hostFetch == hostFetch {
		if translated {
			h.Perf.TLBHits++
		}
		pa = e.Page() | h.PC&4095
	} else if ctx == 0 {
		if !h.CSR.PMP.Check(pa, 4, mem.Exec, h.Mode) {
			return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
		}
	} else {
		var ei *Exc
		if _, pa, ei = h.resolve(h.PC, 4, mem.Exec, h.Mode, h.V, ctx, translated); ei != nil {
			return nil, ei
		}
	}
	pageBase := pa &^ 4095
	dp := h.fast.lastPage
	if dp == nil || h.fast.lastPageBase != pageBase {
		dp = h.fast.pages[pageBase]
		if dp == nil {
			if !h.Bus.IsRAM(pa, 4) {
				// Not RAM: execute-in-place from a device; never cache.
				h.Perf.DecodeMisses++
				v, ok := h.Bus.Load(pa, 4)
				if !ok {
					return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
				}
				h.fast.scratch = rv.Decode(uint32(v))
				h.fast.fetchDP = nil // never translated into superblocks
				return &h.fast.scratch, nil
			}
			dp = new(decPage)
			h.fast.pages[pageBase] = dp
		}
		h.fast.lastPage, h.fast.lastPageBase = dp, pageBase
	}
	i := int(pa&4095) >> 2
	h.fast.fetchDP, h.fast.fetchSlot, h.fast.fetchPA = dp, i, pa
	if !dp.decoded(i) {
		// The slot's line stays armed for the decode page's life, so a
		// write to the slot reaches InvalidatePhysPage.
		h.Perf.DecodeMisses++
		h.Bus.Watch(pa, 4)
		v, ok := h.Bus.Load(pa, 4)
		if !ok {
			return nil, h.exc(rv.ExcInstrAccessFault, h.PC)
		}
		dp.fill(i, rv.Decode(uint32(v)))
	} else {
		h.Perf.DecodeHits++
	}
	return &dp.ins[i], nil
}
