package hart

// Superblock binary-translation tier. Rides the predecode cache in
// hostfast.go: once a straight-line region gets hot, its instructions are
// translated into a chain of fused Go closures (threaded code), and one
// dispatch runs a block and then the blocks it branches to on the same
// page (runBlock), collapsing the per-instruction fetch/decode/dispatch
// overhead while charging the exact documented per-instruction simulated
// cycles. A block that fits the dispatch's step budget and timer headroom
// whole runs with no check between its ops and commits its counts once; a
// chain follows a block's links to the successors it went on into before.
// Like everything in hostfast.go this trades host time only — the
// architectural state and cycle counters are bit-identical with the tier on
// or off (enforced by the machine-equivalence fuzz gate in
// internal/verif/fuzz and by internal/bench's TestSimHostInvariance, which
// runs monitored workloads on all three tiers).
//
// The safety argument has three legs (see DESIGN.md, "Superblock
// translation vs. the simulated cycle model"):
//
//  1. Entry guard. A block is only dispatched, or chained into, when its
//     guard vector matches: privilege mode, satp, and PMP view (catch
//     remapping and reprotection). The view names the PMP contents
//     (pmp.File.View), so a world switch out and back finds the block
//     again; a guard miss drops it. No block op changes a guard field, so
//     a link, filled when its successor passed the guard under the
//     running block's own guard, needs no test; a dropped block is marked
//     dead and a link to it falls back to the lookup. Self-modifying code
//     never reaches the guard: a write into any slot a block read drops
//     the block from its decode page (decPage.write), and ends it if it is
//     running (sbState.endAfter), as does a write to a page table a cached
//     translation read. The dispatch point itself sits after Step's
//     pending-interrupt check, so a block never starts with a deliverable
//     interrupt pending. Data accesses re-validate per access against a
//     TLB context (mmu.TLB.Ctx) hoisted once per dispatch — sound because
//     every instruction that could change it (CSR writes, xRET, traps) is
//     a block terminator.
//
//  2. Cycle-budget headroom. Blocks stop before the point where the
//     per-instruction scheduler would have intervened: the distance to the
//     next timer comparator (Machine.sbSeqHeadroom) and the step budget, so
//     interrupt latch points — and therefore the whole architectural trace
//     — land exactly where the interpreter would put them. A block whose
//     bound (the largest cycle charge its ops can make) and op count fit
//     what is left of both runs unchecked: every pre-op check would pass.
//     Any other block runs op by op, checked before each op.
//
//  3. Zero-residue fallback. Ops are compiled so that all failure checks
//     (alignment, translation, PMP, MMIO) precede every architectural
//     write and every cycle charge; an op that cannot complete aborts the
//     block with the interpreter re-executing that op from scratch, and
//     the ops before it are exactly the instructions the interpreter would
//     have retired. Their base charges, instret and S-mode instret are
//     committed once per block.
//
// Translations are host state: they are never snapshotted (hart.Image
// carries only the on/off switch) and a forked child re-translates from
// its own heat counters.

import (
	"math"
	"slices"

	"govfm/internal/mem"
	"govfm/internal/rv"
)

const (
	// sbHotThreshold is how many dispatches a block-entry slot must see
	// before it is translated.
	sbHotThreshold = 16
	// sbMaxOps bounds the instructions per block (also bounded by the
	// 4KiB page end — blocks never cross a page).
	sbMaxOps = 32
	// sbMinOps is the minimum block length worth dispatching; shorter
	// regions stay on the interpreter (a sentinel block marks them so the
	// translator is not retried every dispatch).
	sbMinOps = 2
)

// sbOp is one fused instruction: it executes at pc against the hart (whose
// PC field a block updates once, at its end) and returns the next PC and
// whether the block may go on past it. ok=false stops the block at the op,
// which retired exactly when next differs from pc: a load or store whose
// write hit live code or a page table (sbState.endAfter) returns the next
// PC, and one that cannot complete in-block (fault, MMIO, failed
// translation) returns pc, having charged and written nothing, for the
// interpreter to re-execute. Only loads and stores touch the bus, so no
// other op returns ok=false.
type sbOp func(h *Hart, pc uint64) (uint64, bool)

// sblock is one translated superblock, keyed by (decPage, entry slot) —
// i.e. by physical location, so aliased virtual mappings share it. ops is
// nil for a sentinel recording an untranslatable entry point.
type sblock struct {
	span  uint8 // slots read from the entry on (<= sbMaxOps); a write to one drops the block
	mode  rv.Mode
	dead  bool   // dropped from its page (decPage.setBlock); links to it are stale
	entry uint16 // the entry slot
	bound uint16 // the largest cycle charge the ops can make (sbCost summed)
	satp  uint64
	view  uint64 // pmp.File.View at translation; never 0
	ops   []sbOp
	// taken and fall link the blocks on the page that a chain went on into
	// from this one, at its fall-through slot (entry + len(ops)) and at any
	// other target (sbNext).
	taken, fall *sblock
}

// sbCursor is where a multi-hart sequential round (Machine.seqRound)
// resumes a hart inside its chain: the block, the index of its next op, and
// the decode page and virtual page the dispatch entered on. sb is nil when
// the hart holds no cursor.
type sbCursor struct {
	dp   *decPage
	sb   *sblock
	op   int
	page uint64
}

// sbState is the hart's per-dispatch superblock state. armed is set by the
// scheduler around a Step call that may run a block; cycleLimit/stepLimit
// bound the block so scheduling decisions land exactly where
// per-instruction stepping would put them; retired reports how many
// sequential steps the Step call was equivalent to (1 for every non-block
// step, including no-op steps of halted harts). cur records where a
// dispatch that retired one op stopped, for a round to resume.
type sbState struct {
	on         bool
	armed      bool
	cycleLimit uint64
	stepLimit  uint64
	retired    uint64
	cur        sbCursor

	// lazyLimit, when set by the sequential scheduler, supplies cycleLimit
	// on demand (Machine.sbSeqHeadroom). Computing the timer headroom costs
	// a few divisions, so the scheduler defers it to the dispatch that
	// actually runs a block instead of paying it on every step; limitFn is
	// the per-hart closure, allocated once.
	lazyLimit bool
	limitFn   func() uint64

	// Per-dispatch hoisted data-access state: the effective privilege
	// (MPRV honoured), whether it translates, and its TLB context.
	// Invariant mid-block: CSR writes, traps, and xrets all terminate
	// blocks.
	priv       rv.Mode
	translated bool
	ctx        uint32

	// endAfter asks the running block (and its chain) to stop after the
	// current op, where continuing could execute stale code or through a
	// stale fetch translation that the interpreter would redo.
	// InvalidatePhysPage sets it, synchronously with the bus write, exactly
	// when a store, or the A/D-bit store of a load's or a store's walk, hit
	// live code or a page table; the op then returns ok=false (sbOp). A
	// round also reads it before a hart's op, as a peer's store may set it.
	endAfter bool

	// ops is the translator's scratch: a block keeps an exact-length copy,
	// a sentinel none.
	ops [sbMaxOps]sbOp
}

// SetSuperblock switches the superblock tier on or off, dropping every
// translated block either way (flushDecode drops the pages that own them).
func (h *Hart) SetSuperblock(on bool) {
	h.sb.on = on
	h.flushDecode()
}

// SuperblockEnabled reports whether the superblock tier is in use.
func (h *Hart) SuperblockEnabled() bool { return h.sb.on }

// sbTry attempts to run a superblock at the instruction fetchFast just
// returned. It returns the number of instructions retired (0 = no block
// ran; the caller interprets d as usual). Heat accounting, translation,
// and the entry guard all live here.
func (h *Hart) sbTry() uint64 {
	if h.V {
		// Guest (V=1) execution stays on the interpreter: superblocks are
		// keyed and guarded on single-stage state only, and the H-mode trap
		// funnels (virtual instructions, guest-page faults) are not worth a
		// third compiled encoding of the gating rules.
		return 0
	}
	if _, virt := h.effectivePrivV(); virt {
		return 0 // MPRV+MPV data accesses need the two-stage walk
	}
	dp := h.fast.fetchDP
	if dp == nil {
		return 0 // MMIO fetch: never translated
	}
	slot := h.fast.fetchSlot
	sb := dp.block(slot)
	if sb == nil {
		// Untranslated, or dropped by a write to its bytes: heat up first,
		// so a store-thrashed page cannot spend its time in the translator.
		if dp.hot == nil {
			dp.hot = new([1024]uint8)
		}
		if dp.hot[slot] < sbHotThreshold {
			dp.hot[slot]++
			return 0
		}
		dp.hot[slot] = 0
		sb = h.sbTranslate(dp, slot)
	} else if !sb.guards(h) {
		// The guard reads the view without settling it, and a PMP write
		// unsettles it even when a later one restores the contents (a world
		// switch out and back): settle, then check again. A real miss drops
		// the block, which re-heats under the new environment.
		h.CSR.PMP.View()
		if !sb.guards(h) {
			h.Perf.SBGuardMisses++
			dp.setBlock(slot, nil)
			return 0
		}
	}
	if sb.ops == nil {
		return 0 // sentinel: entry point known untranslatable
	}
	page := h.PC &^ 4095
	n := h.runBlock(dp, sb)
	if n == 1 {
		// Where a multi-hart round (Machine.seqRound) resumes the hart: a
		// block's first op never ends it, as a block has at least sbMinOps
		// ops and only its last transfers control.
		h.sb.cur = sbCursor{dp: dp, sb: sb, op: 1, page: page}
	}
	return n
}

// sbTranslate builds (and installs) the superblock entered at slot of dp.
// The walk decodes forward from the fetch PA, reusing predecoded slots
// where valid, and stops at the first ineligible or illegal instruction, a
// block terminator (jal/jalr/branch), the page end, sbMaxOps, or an op that
// would take the block's bound past what sblock.bound holds. Every op's
// encoding is validated here, so the compiled ALU closures are infallible;
// every op's PMP execute permission is checked here, under the view the
// guard then pins.
func (h *Hart) sbTranslate(dp *decPage, slot int) *sblock {
	sb := &sblock{
		mode:  h.Mode,
		entry: uint16(slot),
		satp:  h.CSR.Satp,
		view:  h.CSR.PMP.View(),
	}
	dp.setBlock(slot, sb)
	pageBase := h.fast.fetchPA &^ 4095
	ops := h.sb.ops[:0]
	read := 0 // slots read, including an ineligible one that ended the walk
	var bound uint64
	for i := slot; i < 1024 && len(ops) < sbMaxOps; i++ {
		pa := pageBase | uint64(i)<<2
		if !h.CSR.PMP.Check(pa, 4, mem.Exec, h.Mode) {
			break
		}
		var d rv.Decoded
		if dp.decoded(i) {
			d = dp.ins[i]
		} else {
			v, ok := h.Bus.Load(pa, 4)
			if !ok {
				break
			}
			d = rv.Decode(uint32(v))
		}
		read++
		fn, term := h.sbCompile(&d)
		c := h.Cfg.Cost.sbCost(&d)
		if fn == nil || bound+c > math.MaxUint16 {
			break
		}
		bound += c
		ops = append(ops, fn)
		if term {
			break
		}
	}
	// Raw reads leave no decode behind, so mark every slot read as code and
	// arm its line: a write to any of them must drop this block (sentinels
	// included, so a patched entry gets another chance at translation).
	sb.span = uint8(read)
	dp.markCode(slot, slot+read)
	if read > 0 {
		h.Bus.Watch(pageBase|uint64(slot)<<2, 4*read)
	}
	if len(ops) >= sbMinOps { // else a sentinel, whose ops stay nil
		sb.ops = slices.Clone(ops)
		sb.bound = uint16(bound)
		h.Perf.SBTranslations++
	}
	clear(ops)
	return sb
}

// runBlock executes a guarded block of dp, then chains into the blocks
// that follow it (sbNext), retiring per-instruction cycle and instret
// counts identical to the interpreter's, and returns how many instructions
// retired. An op that cannot complete charged and wrote nothing, and the
// interpreter resumes at it with zero residue.
//
// Each block first takes the fit test: its ops fit what is left of the
// step budget, and its bound stays below what is left of the timer
// headroom. Every pre-op check of the checked loop would then pass, so the
// block runs with none. A block that does not fit runs checked: before each
// op but the dispatch's first, the scheduler's per-step conditions (timer
// headroom, budget) must still hold. Either way the base charges, the
// retirements and the PC are committed once per block (sbRetire).
func (h *Hart) runBlock(dp *decPage, sb *sblock) uint64 {
	priv := h.effectivePriv()
	h.sb.priv = priv
	h.sb.ctx, h.sb.translated = h.tlbCtx(priv, false, false)
	h.sb.endAfter = false
	start := h.Cycles
	limitC, limitS := h.sb.cycleLimit, h.sb.stepLimit
	if h.sb.lazyLimit {
		limitC = h.sb.limitFn()
	}
	pc := h.PC
	page := pc &^ 4095
	cInstr := h.Cfg.Cost.Instr
	var n uint64
	for {
		k, stop := len(sb.ops), false
		if n+uint64(k) <= limitS && h.Cycles-start+uint64(sb.bound) < limitC {
			for i, fn := range sb.ops {
				next, ok := fn(h, pc)
				if !ok {
					k, pc = h.sbStop(i, pc, next)
					stop = true
					break
				}
				pc = next
			}
		} else {
			h.Perf.SBChecked++
			for i, fn := range sb.ops {
				// The block's retired ops are not charged their base cost
				// yet, so the headroom test adds it.
				if m := n + uint64(i); m > 0 && (h.Cycles+uint64(i)*cInstr-start >= limitC || m >= limitS) {
					k, stop = i, true
					break
				}
				next, ok := fn(h, pc)
				if !ok {
					k, pc = h.sbStop(i, pc, next)
					stop = true
					break
				}
				pc = next
			}
		}
		h.PC = pc
		h.sbRetire(uint64(k))
		n += uint64(k)
		if stop {
			break
		}
		if sb = h.sbNext(dp, sb, page); sb == nil {
			break
		}
		h.Perf.SBChains++
	}
	if n > 0 {
		h.Perf.SBHits++
		h.Perf.SBRetired += n
	}
	return n
}

// sbStop settles op i of a block, which stopped the block at pc (ok=false,
// see sbOp): it returns how many ops of the block retired and the PC to go
// on at.
func (h *Hart) sbStop(i int, pc, next uint64) (int, uint64) {
	if next == pc {
		h.Perf.SBAborts++
		return i, pc
	}
	return i + 1, next
}

// sbRetire commits k ops that retired in a block, as the interpreter
// retires instructions: their base cycle charges and their instret and
// S-mode instret counts. Each op charged its own extras as it ran.
func (h *Hart) sbRetire(k uint64) {
	h.Cycles += k * h.Cfg.Cost.Instr
	h.Instret += k
	if h.Mode == rv.ModeS {
		h.SInstret += k
	}
}

// sbNext returns the block a chain goes on into once every op of sb has
// retired, or nil: runBlock and Machine.seqRound share this one chain rule.
// The PC must be aligned and on the dispatch entry's virtual page, and its
// slot on dp hold a real block guarded for the hart. The entry's fetch
// translation and the successor's translation-time execute checks then
// hold exactly as if the dispatcher had fetched it; a write that could
// change either ends the chain through endAfter.
//
// A live link to a block entered at that slot answers without the lookup
// or the guard test. The link was filled when the successor passed the
// guard while sb ran, and no op of a running block changes a guard field,
// so both carry equal guards, which never change; sb runs under its own.
// A link to a dead block, or to another jalr target, falls back to the
// lookup, which fills the link again.
func (h *Hart) sbNext(dp *decPage, sb *sblock, page uint64) *sblock {
	pc := h.PC
	if pc&3 != 0 || pc&^4095 != page {
		return nil
	}
	slot := int(pc&4095) >> 2
	link := &sb.taken
	if slot == int(sb.entry)+len(sb.ops) {
		link = &sb.fall
	}
	if next := *link; next != nil && !next.dead && int(next.entry) == slot {
		return next
	}
	next := dp.block(slot)
	if next == nil || next.ops == nil || !next.guards(h) {
		return nil
	}
	*link = next
	return next
}

// guards reports whether sb's guard vector matches the hart's state: the
// entry guard of a dispatch (sbTry) and of a chain's lookup (sbNext). It
// stays a few plain loads: an unsettled PMP view reads 0, which no block
// carries.
func (sb *sblock) guards(h *Hart) bool {
	return sb.mode == h.Mode && sb.satp == h.CSR.Satp && sb.view == h.CSR.PMP.SettledView()
}

// sbLoad performs an in-block data load. A host entry answers it with a
// host load; otherwise it resolves as MemAccess does, under the hoisted
// context. All checks precede the access and its charge; any failure
// aborts the block with nothing charged or written (the interpreter re-runs
// the op and raises the fault). A walk that stores A/D bits into a page of
// live code or a page table ends the block after this op through the bus
// watch, as any other store does.
func (h *Hart) sbLoad(va uint64, size int) (uint64, bool) {
	if va&uint64(size-1) != 0 && !h.Cfg.HWMisaligned {
		return 0, false
	}
	if e := h.fast.tlb.Probe(va>>12, h.sb.ctx); e != nil && e.PA&hostLoad == hostLoad && inPage(va, size) {
		if h.sb.translated {
			h.Perf.TLBHits++
		}
		h.Perf.HostHits++
		h.charge(h.Cfg.Cost.MemAccess)
		return mem.PageLoad(e.Host, va&4095, size), true
	}
	e, pa, ei := h.resolve(va, size, mem.Read, h.sb.priv, false, h.sb.ctx, h.sb.translated)
	if ei != nil || !h.Bus.IsRAM(pa, size) {
		return 0, false // MMIO: the interpreter performs the device access
	}
	v, ok := h.busLoad(e, pa, size)
	if ok {
		h.charge(h.Cfg.Cost.MemAccess)
	}
	return v, ok
}

// sbStore performs an in-block data store, mirroring MemAccess(Write)
// including the LR/SC reservation kills. A store that rewrites live code
// or a page table ends the block after this op (InvalidatePhysPage sets
// endAfter), since the interpreter refetches and retranslates from the
// next instruction on; such bytes lie in watched lines, so their stores
// never take the host path.
func (h *Hart) sbStore(va uint64, size int, value uint64) bool {
	if va&uint64(size-1) != 0 && !h.Cfg.HWMisaligned {
		return false
	}
	if e := h.fast.tlb.Probe(va>>12, h.sb.ctx); e != nil && e.PA&hostStore == hostStore && inPage(va, size) &&
		(e.Lines == 0 || h.hostLinesMiss(e, va, size)) {
		if h.sb.translated {
			h.Perf.TLBHits++
		}
		h.Perf.HostHits++
		h.charge(h.Cfg.Cost.MemAccess)
		mem.PageStore(e.Host, va&4095, size, value)
		h.killReservations(e.Page() | va&4095)
		return true
	}
	e, pa, ei := h.resolve(va, size, mem.Write, h.sb.priv, false, h.sb.ctx, h.sb.translated)
	if ei != nil || !h.Bus.IsRAM(pa, size) {
		return false
	}
	if !h.busStore(e, pa, size, value) {
		return false
	}
	h.charge(h.Cfg.Cost.MemAccess)
	h.killReservations(pa)
	return true
}

// sbCost is the largest cycle charge of the op sbCompile makes of d: the
// base charge, plus the extra of a taken transfer, a memory access or an
// M-extension op, as its closure charges them.
func (c *CostModel) sbCost(d *rv.Decoded) uint64 {
	switch d.Op {
	case rv.OpJal, rv.OpJalr, rv.OpBranch:
		return c.Instr + c.Branch
	case rv.OpLoad, rv.OpStore:
		return c.Instr + c.MemAccess
	case rv.OpReg, rv.OpReg32:
		if d.F7 == 0x01 {
			return c.Instr + c.MulDiv
		}
	}
	return c.Instr
}

// sbCompile translates one decoded instruction into a fused closure, or
// returns nil when the instruction is not block-eligible (CSR ops, AMOs,
// fences, WFI, xRET, ecall/ebreak, and every illegal encoding — all of
// which the interpreter must handle). term marks control transfers, which
// end a block. Closures capture decoded fields by value, never the hart.
func (h *Hart) sbCompile(d *rv.Decoded) (fn sbOp, term bool) {
	rd, rs1, rs2, f3, f7 := d.Rd, d.Rs1, d.Rs2, d.F3, d.F7
	imm := d.Imm
	raw := d.Raw
	cBranch := h.Cfg.Cost.Branch
	cMulDiv := h.Cfg.Cost.MulDiv

	switch d.Op {
	case rv.OpLui:
		return func(h *Hart, pc uint64) (uint64, bool) {
			h.SetReg(rd, imm)
			return pc + 4, true
		}, false
	case rv.OpAuipc:
		return func(h *Hart, pc uint64) (uint64, bool) {
			h.SetReg(rd, pc+imm)
			return pc + 4, true
		}, false
	case rv.OpJal:
		return func(h *Hart, pc uint64) (uint64, bool) {
			t := pc + imm
			h.SetReg(rd, pc+4)
			h.charge(cBranch)
			return t, true
		}, true
	case rv.OpJalr:
		if f3 != 0 {
			return nil, false
		}
		return func(h *Hart, pc uint64) (uint64, bool) {
			t := h.Reg(rs1) + imm
			h.SetReg(rd, pc+4)
			h.charge(cBranch)
			return t &^ 1, true
		}, true
	case rv.OpBranch:
		switch f3 {
		case 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				if h.Reg(rs1) == h.Reg(rs2) {
					h.charge(cBranch)
					return pc + imm, true
				}
				return pc + 4, true
			}, true
		case 1:
			return func(h *Hart, pc uint64) (uint64, bool) {
				if h.Reg(rs1) != h.Reg(rs2) {
					h.charge(cBranch)
					return pc + imm, true
				}
				return pc + 4, true
			}, true
		case 4:
			return func(h *Hart, pc uint64) (uint64, bool) {
				if int64(h.Reg(rs1)) < int64(h.Reg(rs2)) {
					h.charge(cBranch)
					return pc + imm, true
				}
				return pc + 4, true
			}, true
		case 5:
			return func(h *Hart, pc uint64) (uint64, bool) {
				if int64(h.Reg(rs1)) >= int64(h.Reg(rs2)) {
					h.charge(cBranch)
					return pc + imm, true
				}
				return pc + 4, true
			}, true
		case 6:
			return func(h *Hart, pc uint64) (uint64, bool) {
				if h.Reg(rs1) < h.Reg(rs2) {
					h.charge(cBranch)
					return pc + imm, true
				}
				return pc + 4, true
			}, true
		case 7:
			return func(h *Hart, pc uint64) (uint64, bool) {
				if h.Reg(rs1) >= h.Reg(rs2) {
					h.charge(cBranch)
					return pc + imm, true
				}
				return pc + 4, true
			}, true
		}
		return nil, false
	case rv.OpLoad:
		var size int
		var signed bool
		switch f3 {
		case 0:
			size, signed = 1, true
		case 1:
			size, signed = 2, true
		case 2:
			size, signed = 4, true
		case 3:
			size, signed = 8, false
		case 4:
			size, signed = 1, false
		case 5:
			size, signed = 2, false
		case 6:
			size, signed = 4, false
		default:
			return nil, false
		}
		if signed {
			bits := uint(8 * size)
			return func(h *Hart, pc uint64) (uint64, bool) {
				v, ok := h.sbLoad(h.Reg(rs1)+imm, size)
				if !ok {
					return pc, false
				}
				h.SetReg(rd, rv.SignExtend(v, bits))
				return pc + 4, !h.sb.endAfter
			}, false
		}
		return func(h *Hart, pc uint64) (uint64, bool) {
			v, ok := h.sbLoad(h.Reg(rs1)+imm, size)
			if !ok {
				return pc, false
			}
			h.SetReg(rd, v)
			return pc + 4, !h.sb.endAfter
		}, false
	case rv.OpStore:
		if f3 > 3 {
			return nil, false
		}
		size := 1 << f3
		return func(h *Hart, pc uint64) (uint64, bool) {
			if !h.sbStore(h.Reg(rs1)+imm, size, h.Reg(rs2)) {
				return pc, false
			}
			return pc + 4, !h.sb.endAfter
		}, false
	case rv.OpImm:
		switch f3 {
		case 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)+imm)
				return pc + 4, true
			}, false
		case 1:
			if raw>>26 != 0 {
				return nil, false
			}
			sh := imm & 63
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)<<sh)
				return pc + 4, true
			}, false
		case 2:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, boolTo64(int64(h.Reg(rs1)) < int64(imm)))
				return pc + 4, true
			}, false
		case 3:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, boolTo64(h.Reg(rs1) < imm))
				return pc + 4, true
			}, false
		case 4:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)^imm)
				return pc + 4, true
			}, false
		case 5:
			sh := imm & 63
			switch raw >> 26 {
			case 0:
				return func(h *Hart, pc uint64) (uint64, bool) {
					h.SetReg(rd, h.Reg(rs1)>>sh)
					return pc + 4, true
				}, false
			case 0x10:
				return func(h *Hart, pc uint64) (uint64, bool) {
					h.SetReg(rd, uint64(int64(h.Reg(rs1))>>sh))
					return pc + 4, true
				}, false
			}
			return nil, false
		case 6:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)|imm)
				return pc + 4, true
			}, false
		case 7:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)&imm)
				return pc + 4, true
			}, false
		}
		return nil, false
	case rv.OpImm32:
		switch f3 {
		case 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1)+imm)), 32))
				return pc + 4, true
			}, false
		case 1:
			if f7 != 0 {
				return nil, false
			}
			sh := imm & 31
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))<<sh), 32))
				return pc + 4, true
			}, false
		case 5:
			sh := imm & 31
			switch f7 {
			case 0:
				return func(h *Hart, pc uint64) (uint64, bool) {
					h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))>>sh), 32))
					return pc + 4, true
				}, false
			case 0x20:
				return func(h *Hart, pc uint64) (uint64, bool) {
					h.SetReg(rd, rv.SignExtend(uint64(int32(h.Reg(rs1))>>sh), 32))
					return pc + 4, true
				}, false
			}
			return nil, false
		}
		return nil, false
	case rv.OpReg:
		if f7 == 0x01 { // M extension (mulDiv64 is total for all f3)
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.charge(cMulDiv)
				h.SetReg(rd, mulDiv64(f3, h.Reg(rs1), h.Reg(rs2)))
				return pc + 4, true
			}, false
		}
		switch {
		case f3 == 0 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)+h.Reg(rs2))
				return pc + 4, true
			}, false
		case f3 == 0 && f7 == 0x20:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)-h.Reg(rs2))
				return pc + 4, true
			}, false
		case f3 == 1 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)<<(h.Reg(rs2)&63))
				return pc + 4, true
			}, false
		case f3 == 2 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, boolTo64(int64(h.Reg(rs1)) < int64(h.Reg(rs2))))
				return pc + 4, true
			}, false
		case f3 == 3 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, boolTo64(h.Reg(rs1) < h.Reg(rs2)))
				return pc + 4, true
			}, false
		case f3 == 4 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)^h.Reg(rs2))
				return pc + 4, true
			}, false
		case f3 == 5 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)>>(h.Reg(rs2)&63))
				return pc + 4, true
			}, false
		case f3 == 5 && f7 == 0x20:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, uint64(int64(h.Reg(rs1))>>(h.Reg(rs2)&63)))
				return pc + 4, true
			}, false
		case f3 == 6 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)|h.Reg(rs2))
				return pc + 4, true
			}, false
		case f3 == 7 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)&h.Reg(rs2))
				return pc + 4, true
			}, false
		}
		return nil, false
	case rv.OpReg32:
		if f7 == 0x01 { // M extension word forms; mulDiv32 is total for valid f3
			switch f3 {
			case 0, 4, 5, 6, 7:
			default:
				return nil, false
			}
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.charge(cMulDiv)
				v, _ := h.mulDiv32(f3, h.Reg(rs1), h.Reg(rs2), raw)
				h.SetReg(rd, v)
				return pc + 4, true
			}, false
		}
		switch {
		case f3 == 0 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))+uint32(h.Reg(rs2))), 32))
				return pc + 4, true
			}, false
		case f3 == 0 && f7 == 0x20:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))-uint32(h.Reg(rs2))), 32))
				return pc + 4, true
			}, false
		case f3 == 1 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))<<(h.Reg(rs2)&31)), 32))
				return pc + 4, true
			}, false
		case f3 == 5 && f7 == 0:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))>>(h.Reg(rs2)&31)), 32))
				return pc + 4, true
			}, false
		case f3 == 5 && f7 == 0x20:
			return func(h *Hart, pc uint64) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(int32(h.Reg(rs1))>>(h.Reg(rs2)&31)), 32))
				return pc + 4, true
			}, false
		}
		return nil, false
	}
	return nil, false
}
