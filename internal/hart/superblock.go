package hart

// Superblock binary-translation tier. Rides the predecode cache in
// hostfast.go: once a straight-line region gets hot, its instructions are
// translated into a chain of fused Go closures (threaded code), and one
// dispatch runs a block and then the blocks it branches to on the same
// page (runBlock), collapsing the per-instruction fetch/decode/dispatch
// overhead while charging the exact documented per-instruction simulated
// cycles. Like everything in hostfast.go this trades host time only — the
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
//     again; a guard miss drops it. Self-modifying code never reaches the
//     guard: a write into any slot a block read drops the block from its
//     decode page (decPage.write), and ends it if it is running
//     (sbState.endAfter), as does a write to a page table a cached
//     translation read. The dispatch point itself sits after Step's
//     pending-interrupt check, so a block never starts with a deliverable
//     interrupt pending. Data accesses re-validate per access against a
//     TLB context (mmu.TLB.Ctx) hoisted once per dispatch — sound because
//     every instruction that could change it (CSR writes, xRET, traps) is
//     a block terminator.
//
//  2. Cycle-budget headroom. Blocks stop before the point where the
//     per-instruction scheduler would have intervened: the distance to the
//     next timer comparator (Machine.sbSeqHeadroom), so interrupt latch
//     points — and therefore the whole architectural trace — land exactly
//     where the interpreter would put them.
//
//  3. Zero-residue fallback. Ops are compiled so that all failure checks
//     (alignment, translation, PMP, MMIO) precede every architectural
//     write; an op that cannot complete aborts the block with the
//     interpreter re-executing that op from scratch. Cycles charged by the
//     aborting op are rolled back; instructions already retired by the
//     block are exactly the instructions the interpreter would have
//     retired.
//
// Translations are host state: they are never snapshotted (hart.Image
// carries only the on/off switch) and a forked child re-translates from
// its own heat counters.

import (
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

// sbOp is one fused instruction: it executes against the hart and returns
// the next PC, or ok=false when the instruction cannot complete in-block
// (fault, MMIO, failed translation) and the interpreter must re-execute
// it.
type sbOp func(h *Hart) (uint64, bool)

// sblock is one translated superblock, keyed by (decPage, entry slot) —
// i.e. by physical location, so aliased virtual mappings share it. ops is
// nil for a sentinel recording an untranslatable entry point.
type sblock struct {
	span uint8 // slots read from the entry on (<= sbMaxOps); a write to one drops the block
	mode rv.Mode
	satp uint64
	view uint64 // pmp.File.View at translation; never 0
	ops  []sbOp
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
	// when a store or A/D-bit walk hit live code or a page table.
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
// block terminator (jal/jalr/branch), the page end, or sbMaxOps. Every
// op's encoding is validated here, so the compiled ALU closures are
// infallible; every op's PMP execute permission is checked here, under
// the view the guard then pins.
func (h *Hart) sbTranslate(dp *decPage, slot int) *sblock {
	sb := &sblock{
		mode: h.Mode,
		satp: h.CSR.Satp,
		view: h.CSR.PMP.View(),
	}
	dp.setBlock(slot, sb)
	pageBase := h.fast.fetchPA &^ 4095
	ops := h.sb.ops[:0]
	read := 0 // slots read, including an ineligible one that ended the walk
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
		if fn == nil {
			break
		}
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
		h.Perf.SBTranslations++
	}
	clear(ops)
	return sb
}

// runBlock executes a guarded block of dp, then chains into the blocks
// that follow it, retiring per-instruction cycle and instret counts
// identical to the interpreter's, and returns how many instructions
// retired. On an op failure the op's cycle charges are rolled back and the
// interpreter resumes at that op with zero residue.
//
// A finished block chains into the block at its successor PC only when
// that PC is aligned and on the dispatch entry's virtual page, and the
// block there is real and guarded for the hart's current state. The
// entry's fetch translation and the successor's translation-time execute
// checks then hold exactly as if the dispatcher had fetched it; a write
// that could change either ends the chain through endAfter.
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
	page := h.PC &^ 4095
	cInstr, smode := h.Cfg.Cost.Instr, h.Mode == rv.ModeS
	var n uint64
chain:
	for {
		for _, fn := range sb.ops {
			// Pre-op scheduling check, mirroring stepSeq's per-step
			// conditions (timer headroom, budget). Only the dispatch's
			// first op is exempt: the scheduler armed us because one more
			// step was due.
			if n > 0 && (h.Cycles-start >= limitC || n >= limitS || h.sb.endAfter) {
				break chain
			}
			cyc0 := h.Cycles
			h.Cycles += cInstr
			next, ok := fn(h)
			if !ok {
				h.sbAbort(cyc0)
				break chain
			}
			h.sbCommit(next, smode)
			n++
		}
		// Chain on: the PC must be aligned and on the entry page, and its
		// slot hold a real block guarded for the hart.
		pc := h.PC
		if pc&3 != 0 || pc&^4095 != page {
			break
		}
		if sb = dp.block(int(pc&4095) >> 2); sb == nil || sb.ops == nil || !sb.guards(h) {
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

// sbCommit retires an op that completed, as the interpreter retires an
// instruction: the op's cycles are charged, so it sets the next PC and
// counts the retirement (smode: the hart runs in S-mode).
func (h *Hart) sbCommit(next uint64, smode bool) {
	h.PC = next
	h.Instret++
	if smode {
		h.SInstret++
	}
}

// sbAbort rolls back an op that cannot complete in-block: the cycles
// charged since cyc0 go, the op wrote nothing else, and the interpreter
// re-executes it.
func (h *Hart) sbAbort(cyc0 uint64) {
	h.Cycles = cyc0
	h.Perf.SBAborts++
}

// guards reports whether sb's guard vector matches the hart's state: the
// entry guard of a dispatch (sbTry) and of a chain (runBlock,
// Machine.seqRound). It stays a few plain loads: an unsettled PMP view
// reads 0, which no block carries.
func (sb *sblock) guards(h *Hart) bool {
	return sb.mode == h.Mode && sb.satp == h.CSR.Satp && sb.view == h.CSR.PMP.SettledView()
}

// sbLoad performs an in-block data load. A host entry answers it with a
// host load; otherwise it resolves as MemAccess does, under the hoisted
// context. All checks precede the access; any failure aborts the block
// with nothing charged or written (the interpreter re-runs the op and
// raises the fault). A walk that stores A/D bits into a page of live code
// ends the block through the bus watch, as any other store does.
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
	h.charge(h.Cfg.Cost.MemAccess)
	return h.busLoad(e, pa, size)
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
	h.charge(h.Cfg.Cost.MemAccess)
	if !h.busStore(e, pa, size, value) {
		return false
	}
	h.killReservations(pa)
	return true
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
		return func(h *Hart) (uint64, bool) {
			h.SetReg(rd, imm)
			return h.PC + 4, true
		}, false
	case rv.OpAuipc:
		return func(h *Hart) (uint64, bool) {
			h.SetReg(rd, h.PC+imm)
			return h.PC + 4, true
		}, false
	case rv.OpJal:
		return func(h *Hart) (uint64, bool) {
			t := h.PC + imm
			h.SetReg(rd, h.PC+4)
			h.charge(cBranch)
			return t, true
		}, true
	case rv.OpJalr:
		if f3 != 0 {
			return nil, false
		}
		return func(h *Hart) (uint64, bool) {
			t := h.Reg(rs1) + imm
			h.SetReg(rd, h.PC+4)
			h.charge(cBranch)
			return t &^ 1, true
		}, true
	case rv.OpBranch:
		switch f3 {
		case 0:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) == h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 1:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) != h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 4:
			return func(h *Hart) (uint64, bool) {
				if int64(h.Reg(rs1)) < int64(h.Reg(rs2)) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 5:
			return func(h *Hart) (uint64, bool) {
				if int64(h.Reg(rs1)) >= int64(h.Reg(rs2)) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 6:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) < h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
			}, true
		case 7:
			return func(h *Hart) (uint64, bool) {
				if h.Reg(rs1) >= h.Reg(rs2) {
					h.charge(cBranch)
					return h.PC + imm, true
				}
				return h.PC + 4, true
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
			return func(h *Hart) (uint64, bool) {
				v, ok := h.sbLoad(h.Reg(rs1)+imm, size)
				if !ok {
					return 0, false
				}
				h.SetReg(rd, rv.SignExtend(v, bits))
				return h.PC + 4, true
			}, false
		}
		return func(h *Hart) (uint64, bool) {
			v, ok := h.sbLoad(h.Reg(rs1)+imm, size)
			if !ok {
				return 0, false
			}
			h.SetReg(rd, v)
			return h.PC + 4, true
		}, false
	case rv.OpStore:
		if f3 > 3 {
			return nil, false
		}
		size := 1 << f3
		return func(h *Hart) (uint64, bool) {
			if !h.sbStore(h.Reg(rs1)+imm, size, h.Reg(rs2)) {
				return 0, false
			}
			return h.PC + 4, true
		}, false
	case rv.OpImm:
		switch f3 {
		case 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)+imm)
				return h.PC + 4, true
			}, false
		case 1:
			if raw>>26 != 0 {
				return nil, false
			}
			sh := imm & 63
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)<<sh)
				return h.PC + 4, true
			}, false
		case 2:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(int64(h.Reg(rs1)) < int64(imm)))
				return h.PC + 4, true
			}, false
		case 3:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(h.Reg(rs1) < imm))
				return h.PC + 4, true
			}, false
		case 4:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)^imm)
				return h.PC + 4, true
			}, false
		case 5:
			sh := imm & 63
			switch raw >> 26 {
			case 0:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, h.Reg(rs1)>>sh)
					return h.PC + 4, true
				}, false
			case 0x10:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, uint64(int64(h.Reg(rs1))>>sh))
					return h.PC + 4, true
				}, false
			}
			return nil, false
		case 6:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)|imm)
				return h.PC + 4, true
			}, false
		case 7:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)&imm)
				return h.PC + 4, true
			}, false
		}
		return nil, false
	case rv.OpImm32:
		switch f3 {
		case 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1)+imm)), 32))
				return h.PC + 4, true
			}, false
		case 1:
			if f7 != 0 {
				return nil, false
			}
			sh := imm & 31
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))<<sh), 32))
				return h.PC + 4, true
			}, false
		case 5:
			sh := imm & 31
			switch f7 {
			case 0:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))>>sh), 32))
					return h.PC + 4, true
				}, false
			case 0x20:
				return func(h *Hart) (uint64, bool) {
					h.SetReg(rd, rv.SignExtend(uint64(int32(h.Reg(rs1))>>sh), 32))
					return h.PC + 4, true
				}, false
			}
			return nil, false
		}
		return nil, false
	case rv.OpReg:
		if f7 == 0x01 { // M extension (mulDiv64 is total for all f3)
			return func(h *Hart) (uint64, bool) {
				h.charge(cMulDiv)
				h.SetReg(rd, mulDiv64(f3, h.Reg(rs1), h.Reg(rs2)))
				return h.PC + 4, true
			}, false
		}
		switch {
		case f3 == 0 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)+h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 0 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)-h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 1 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)<<(h.Reg(rs2)&63))
				return h.PC + 4, true
			}, false
		case f3 == 2 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(int64(h.Reg(rs1)) < int64(h.Reg(rs2))))
				return h.PC + 4, true
			}, false
		case f3 == 3 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, boolTo64(h.Reg(rs1) < h.Reg(rs2)))
				return h.PC + 4, true
			}, false
		case f3 == 4 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)^h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)>>(h.Reg(rs2)&63))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, uint64(int64(h.Reg(rs1))>>(h.Reg(rs2)&63)))
				return h.PC + 4, true
			}, false
		case f3 == 6 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)|h.Reg(rs2))
				return h.PC + 4, true
			}, false
		case f3 == 7 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, h.Reg(rs1)&h.Reg(rs2))
				return h.PC + 4, true
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
			return func(h *Hart) (uint64, bool) {
				h.charge(cMulDiv)
				v, _ := h.mulDiv32(f3, h.Reg(rs1), h.Reg(rs2), raw)
				h.SetReg(rd, v)
				return h.PC + 4, true
			}, false
		}
		switch {
		case f3 == 0 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))+uint32(h.Reg(rs2))), 32))
				return h.PC + 4, true
			}, false
		case f3 == 0 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))-uint32(h.Reg(rs2))), 32))
				return h.PC + 4, true
			}, false
		case f3 == 1 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))<<(h.Reg(rs2)&31)), 32))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(uint32(h.Reg(rs1))>>(h.Reg(rs2)&31)), 32))
				return h.PC + 4, true
			}, false
		case f3 == 5 && f7 == 0x20:
			return func(h *Hart) (uint64, bool) {
				h.SetReg(rd, rv.SignExtend(uint64(int32(h.Reg(rs1))>>(h.Reg(rs2)&31)), 32))
				return h.PC + 4, true
			}, false
		}
		return nil, false
	}
	return nil, false
}
