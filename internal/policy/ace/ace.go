// Package ace ports the ACE security monitor as a Miralis policy module
// (paper §5.4): confidential VMs whose memory is inaccessible to the host
// hypervisor/OS — and, unlike the original ACE, also to the vendor
// firmware, which the policy removes from the TCB.
//
// The policy follows the paper's co-location approach: while the host or a
// CVM runs, the ACE policy handles traps directly (its hooks fire before
// the monitor's default handling) and yields to the monitor only for
// firmware interactions. The lifecycle mirrors the ACE-RISCV monitor FSM:
//
//	free ──promote──▶ ready ──run──▶ running
//	 ▲                  │ ▲             │
//	 └─────destroy──────┘ └─exit/trap/──┘
//	                         interrupt
//
// Promote measures the donated pages (an attestation hash the host and
// guest can both query), records every 4 KiB page in a global donation
// ledger (double donation is structurally impossible), and scrubbing plus
// ledger reclamation happen on destroy. Every hart steal (run) and return
// (exit/preempt/fault) performs ACE's heavy context switch: the full GPR
// file and supervisor CSRs are zeroed before the other world's context is
// loaded, so no register state ever leaks across the confidential
// boundary. The CVM executes with its own complete supervisor context; on
// platforms with the hypervisor extension the host's H-state is shadowed
// away from the CVM on every switch (the paper's "saving and restoring
// the new CSRs on world switches").
package ace

import (
	"fmt"
	"hash/fnv"

	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// COVH (host-side) function IDs, in the spirit of the CoVE spec.
const (
	FnPromoteToCVM = 0x10 // a0=base, a1=size, a2=entry -> cvm id
	FnDestroyCVM   = 0x11 // a0=id: scrub, reclaim pages, free the slot
	FnRunCVM       = 0x12 // a0=id: steal this hart for the CVM
	FnReclaimPage  = 0x13 // a0=id: revoke the shared-page window
	FnAttestCVM    = 0x14 // a0=id -> measurement of the donated pages
)

// COVG (guest-side) function IDs.
const (
	FnGuestExit      = 0x20 // a0=value: voluntary exit to host
	FnGuestSharePage = 0x21 // a0=guest page addr: make one page host-visible
	FnGuestAttest    = 0x22 // -> own measurement (local attestation)
)

// Host return codes.
const (
	OK              = 0
	ErrInvalidParam = ^uint64(0)
	// ErrCVMBusy: the operation needs the CVM stopped, but it is running
	// on a hart (destroy-while-running, reclaim-while-running).
	ErrCVMBusy = ^uint64(1)
	// Interrupted: the CVM was preempted; run again to resume.
	Interrupted = 0x0FF1
)

// MaxCVMs bounds the CVM table (one policy slot is reserved for the
// deny-all rule while a CVM executes).
const MaxCVMs = 4

// pageSize is the donation granule.
const pageSize = 4096

type cvmState int

const (
	stFree cvmState = iota
	stReady
	stRunning
)

func (s cvmState) String() string {
	switch s {
	case stFree:
		return "free"
	case stReady:
		return "ready"
	case stRunning:
		return "running"
	}
	return fmt.Sprintf("cvmState(%d)", int(s))
}

// sContext is a complete supervisor-mode register context.
type sContext struct {
	regs                                 [32]uint64
	pc                                   uint64
	stvec, sscratch, sepc, scause, stval uint64
	satp, scounteren, senvcfg            uint64
	sstatusBits                          uint64
	sie                                  uint64
}

// cvm is one confidential VM.
type cvm struct {
	state      cvmState
	base, size uint64
	guest      sContext
	started    bool
	// measure is the attestation measurement: an FNV-64a hash of the
	// donated pages' contents taken at promote time, before the host
	// loses access. Nonzero for every live CVM.
	measure uint64
	// sharedPage, when nonzero, is a single guest page the host may access
	// (the CoVE shared-memory mechanism, minimally).
	sharedPage uint64
}

// hostSlot remembers the host context while a CVM occupies a hart.
type hostSlot struct {
	host    sContext
	medeleg uint64
	mie     uint64
	active  int
	// hShadow holds the host's hypervisor CSRs, hidden from the CVM.
	hShadow [21]uint64
}

// Policy is the ACE monitor as a policy module.
type Policy struct {
	core.BasePolicy
	cvms [MaxCVMs]cvm
	host map[int]*hostSlot
	// donated is the global page-donation ledger: 4 KiB page base -> owning
	// CVM id. Promote fails if any page of the candidate region is already
	// donated, making double donation structurally impossible; destroy is
	// the only operation that returns pages to the host.
	donated map[uint64]int

	// HeavySwitches counts full GPR+CSR scrub context switches (one per
	// hart steal and one per return), and Violations counts rejected
	// forged or ill-ordered lifecycle calls. Both are cheap evidence for
	// the chaos/fuzz harnesses that the FSM actually exercised its guards.
	HeavySwitches uint64
	Violations    uint64
}

// New returns an empty ACE policy.
func New() *Policy {
	return &Policy{host: make(map[int]*hostSlot), donated: make(map[uint64]int)}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "ace" }

// ForkPolicy implements core.PolicyForker: confidential VMs, saved host
// slots, and the donation ledger are deep-copied, so a forked monitor's
// CVM world is independent of the parent's.
func (p *Policy) ForkPolicy() core.Policy {
	c := *p
	c.host = make(map[int]*hostSlot, len(p.host))
	for k, v := range p.host {
		sv := *v
		c.host[k] = &sv
	}
	c.donated = make(map[uint64]int, len(p.donated))
	for k, v := range p.donated {
		c.donated[k] = v
	}
	return &c
}

func (p *Policy) running(hartID int) (*hostSlot, bool) {
	s, ok := p.host[hartID]
	return s, ok
}

// PolicyPMP implements core.Policy.
func (p *Policy) PolicyPMP(c *core.HartCtx, w core.World) []core.PMPRule {
	if hs, ok := p.running(c.Hart.ID); ok {
		v := &p.cvms[hs.active]
		return []core.PMPRule{
			{Cfg: pmp.CfgR | pmp.CfgW | pmp.CfgX | pmp.ANapot<<3,
				Addr: pmp.NAPOTAddr(v.base, v.size)},
			{Cfg: pmp.ANapot << 3, Addr: rv.Mask(54)},
		}
	}
	var rules []core.PMPRule
	for i := range p.cvms {
		v := &p.cvms[i]
		if v.state == stFree {
			continue
		}
		if v.sharedPage != 0 {
			// The shared page is carved out with a higher-priority allow
			// rule; the rest of the CVM stays dark to host and firmware.
			rules = append(rules, core.PMPRule{
				Cfg:  pmp.CfgR | pmp.CfgW | pmp.ANapot<<3,
				Addr: pmp.NAPOTAddr(v.sharedPage, pageSize),
			})
		}
		rules = append(rules, core.PMPRule{
			Cfg:  pmp.ANapot << 3,
			Addr: pmp.NAPOTAddr(v.base, v.size),
		})
	}
	if len(rules) > core.PolicySlots {
		rules = rules[:core.PolicySlots]
	}
	return rules
}

// OnOSEcall implements core.Policy: COVH from the host, COVG from a CVM.
// Calls arriving from the wrong side of the boundary — COVH from inside a
// CVM, COVG with no CVM on the hart — are forged lifecycle transitions
// and are denied without ever reaching the firmware.
func (p *Policy) OnOSEcall(c *core.HartCtx) core.Action {
	h := c.Hart
	ext := h.Regs[17]
	if _, ok := p.running(h.ID); ok {
		switch ext {
		case rv.SBIExtCoveGuest:
			return p.guestCall(c)
		case rv.SBIExtTimer, rv.SBILegacySetTimer:
			// CVMs may use the timer; the default (fast-path) handling
			// applies.
			return core.ActDefault
		default:
			// Everything else — COVH included — is denied inside a CVM.
			p.Violations++
			h.Regs[10] = sbiErrDenied
			return core.ActHandled
		}
	}
	switch ext {
	case rv.SBIExtCoveGuest:
		// Forged guest call: no CVM occupies this hart, so whoever issued
		// this is the host impersonating a confidential guest.
		p.Violations++
		h.Regs[10] = sbiErrDenied
		return core.ActHandled
	case rv.SBIExtCoveHost:
	default:
		return core.ActDefault
	}
	switch h.Regs[16] {
	case FnPromoteToCVM:
		h.Regs[10] = p.promote(c, h.Regs[10], h.Regs[11], h.Regs[12])
	case FnDestroyCVM:
		h.Regs[10] = p.destroy(c, h.Regs[10])
	case FnRunCVM:
		return p.run(c, h.Regs[10])
	case FnReclaimPage:
		h.Regs[10] = p.reclaim(c, h.Regs[10])
	case FnAttestCVM:
		h.Regs[10] = p.attest(h.Regs[10])
	default:
		p.Violations++
		h.Regs[10] = ErrInvalidParam
	}
	return core.ActHandled
}

// promote converts a host memory range into a confidential VM: validate
// the geometry, refuse any page that is already donated, measure the
// contents, and register every page in the ledger. The range is scrubbed
// from the host's perspective by revoking access; its contents (the guest
// image the host loaded) remain for the guest and are what the
// measurement covers.
func (p *Policy) promote(c *core.HartCtx, base, size, entry uint64) uint64 {
	if size < pageSize || size&(size-1) != 0 || base&(size-1) != 0 {
		return ErrInvalidParam
	}
	if entry < base || entry >= base+size {
		return ErrInvalidParam
	}
	// The region must be ordinary host DRAM: inside the DRAM window and
	// clear of the monitor's and firmware's own images.
	if base < hart.DramBase || base+size > hart.DramBase+core.DramSize {
		return ErrInvalidParam
	}
	if base < core.FirmwareBase+core.FirmwareSize && base+size > core.MiralisBase {
		return ErrInvalidParam
	}
	// Double-donation check: every page must be free in the ledger.
	for page := base; page < base+size; page += pageSize {
		if _, taken := p.donated[page]; taken {
			p.Violations++
			return ErrInvalidParam
		}
	}
	for i := range p.cvms {
		v := &p.cvms[i]
		if v.state != stFree {
			continue
		}
		m := p.measurePages(c, base, size)
		*v = cvm{state: stReady, base: base, size: size, measure: m}
		v.guest.pc = entry
		v.guest.regs[10] = uint64(i) // a0: cvm id
		v.guest.regs[2] = base + size
		for page := base; page < base+size; page += pageSize {
			p.donated[page] = i
		}
		for _, ctx := range c.Mon.Ctx {
			c.Mon.ReinstallPMP(ctx)
		}
		return uint64(i)
	}
	return ErrInvalidParam
}

// measurePages hashes the donated pages' contents (FNV-64a over base and
// bytes). The hash is taken while the host still owns the range, so host
// and guest can later agree on what was launched.
func (p *Policy) measurePages(c *core.HartCtx, base, size uint64) uint64 {
	fh := fnv.New64a()
	var hdr [16]byte
	for i := 0; i < 8; i++ {
		hdr[i] = byte(base >> (8 * i))
		hdr[8+i] = byte(size >> (8 * i))
	}
	fh.Write(hdr[:])
	if img, err := c.Hart.Bus.ReadBytes(base, int(size)); err == nil {
		fh.Write(img)
	}
	m := fh.Sum64()
	if m == 0 {
		m = 1 // a live CVM's measurement is always nonzero
	}
	return m
}

// destroy scrubs a stopped CVM's memory, returns its pages to the host
// through the ledger, and frees the slot. A running CVM cannot be
// destroyed — the host must wait for (or force, via interrupt) a return.
func (p *Policy) destroy(c *core.HartCtx, id uint64) uint64 {
	if id >= MaxCVMs || p.cvms[id].state == stFree {
		return ErrInvalidParam
	}
	v := &p.cvms[id]
	if v.state == stRunning {
		p.Violations++
		return ErrCVMBusy
	}
	for off := uint64(0); off < v.size; off += 8 {
		c.Hart.Bus.Store(v.base+off, 8, 0)
	}
	for page := v.base; page < v.base+v.size; page += pageSize {
		delete(p.donated, page)
	}
	*v = cvm{}
	for _, ctx := range c.Mon.Ctx {
		c.Mon.ReinstallPMP(ctx)
	}
	return OK
}

// reclaim revokes the shared-page window of a stopped CVM, returning the
// page to confidential-only visibility. Reclaiming while the CVM runs is
// refused: the guest could be mid-write to the page under the assumption
// the host can see it.
func (p *Policy) reclaim(c *core.HartCtx, id uint64) uint64 {
	if id >= MaxCVMs || p.cvms[id].state == stFree {
		return ErrInvalidParam
	}
	v := &p.cvms[id]
	if v.state == stRunning {
		p.Violations++
		return ErrCVMBusy
	}
	if v.sharedPage == 0 {
		return ErrInvalidParam
	}
	v.sharedPage = 0
	for _, ctx := range c.Mon.Ctx {
		c.Mon.ReinstallPMP(ctx)
	}
	return OK
}

// attest returns the launch measurement of a live CVM.
func (p *Policy) attest(id uint64) uint64 {
	if id >= MaxCVMs || p.cvms[id].state == stFree {
		return ErrInvalidParam
	}
	return p.cvms[id].measure
}

// saveS/loadS move a full supervisor context between the hart and a slot.
func saveS(h *hart.Hart, s *sContext, pc uint64) {
	s.regs = h.Regs
	s.pc = pc
	c := &h.CSR
	s.stvec, s.sscratch, s.sepc = c.Stvec, c.Sscratch, c.Sepc
	s.scause, s.stval, s.satp = c.Scause, c.Stval, c.Satp
	s.scounteren, s.senvcfg = c.Scounteren, c.Senvcfg
	s.sstatusBits = c.Sstatus()
	s.sie = c.Sie()
}

func loadS(h *hart.Hart, s *sContext) {
	h.Regs = s.regs
	c := &h.CSR
	c.Stvec, c.Sscratch, c.Sepc = s.stvec, s.sscratch, s.sepc
	c.Scause, c.Stval = s.scause, s.stval
	c.WriteSatp(s.satp)
	c.Scounteren, c.Senvcfg = s.scounteren, s.senvcfg
	c.WriteSstatus(s.sstatusBits)
	c.WriteSie(s.sie)
}

// scrubHart is ACE's heavy context switch: zero every GPR and the whole
// supervisor CSR surface between saving one world and loading the other,
// so no residual register value can cross the confidential boundary even
// if a load path is ever incomplete.
func (p *Policy) scrubHart(h *hart.Hart) {
	for i := 1; i < 32; i++ {
		h.Regs[i] = 0
	}
	c := &h.CSR
	c.Stvec, c.Sscratch, c.Sepc, c.Scause, c.Stval = 0, 0, 0, 0, 0
	c.WriteSatp(0)
	c.Scounteren, c.Senvcfg = 0, 0
	c.WriteSstatus(0)
	c.WriteSie(0)
	p.HeavySwitches++
}

// run enters (or re-enters) a CVM on this hart — the ACE "hart steal".
func (p *Policy) run(c *core.HartCtx, id uint64) core.Action {
	h := c.Hart
	if _, busy := p.running(h.ID); busy || id >= MaxCVMs ||
		p.cvms[id].state != stReady {
		p.Violations++
		h.Regs[10] = ErrInvalidParam
		return core.ActHandled
	}
	v := &p.cvms[id]
	hs := &hostSlot{medeleg: h.CSR.Medeleg, mie: h.CSR.Mie, active: int(id)}
	saveS(h, &hs.host, h.CSR.Mepc+4)
	if h.Cfg.HasH {
		p.stashHState(h, hs)
	}
	p.host[h.ID] = hs
	p.scrubHart(h)
	// All CVM traps reach the security monitor.
	h.CSR.Medeleg = 0
	h.CSR.Mie = hs.mie & rv.MIntMask
	loadS(h, &v.guest)
	v.state = stRunning
	v.started = true
	c.VirtMode = rv.ModeS // the guest kernel runs at (virtual) S
	c.Mon.ReinstallPMP(c)
	c.OverrideResume(v.guest.pc)
	return core.ActHandled
}

// leave returns the hart to the host with retval in a0 — the ACE "hart
// return". The caller has already saved the guest context.
func (p *Policy) leave(c *core.HartCtx, retval uint64) {
	h := c.Hart
	hs := p.host[h.ID]
	delete(p.host, h.ID)
	p.scrubHart(h)
	loadS(h, &hs.host)
	h.Regs[10] = retval
	h.CSR.Medeleg = hs.medeleg
	h.CSR.Mie = hs.mie
	if h.Cfg.HasH {
		p.unstashHState(h, hs)
	}
	c.VirtMode = rv.ModeS
	c.Mon.ReinstallPMP(c)
	c.OverrideResume(hs.host.pc)
}

// guestCall dispatches COVG calls from a running CVM.
func (p *Policy) guestCall(c *core.HartCtx) core.Action {
	h := c.Hart
	hs := p.host[h.ID]
	v := &p.cvms[hs.active]
	switch h.Regs[16] {
	case FnGuestExit:
		value := h.Regs[10]
		saveS(h, &v.guest, h.CSR.Mepc+4)
		v.state = stReady
		p.leave(c, value)
	case FnGuestSharePage:
		page := h.Regs[10]
		if page%pageSize != 0 || page < v.base || page+pageSize > v.base+v.size {
			p.Violations++
			h.Regs[10] = ErrInvalidParam
			return core.ActHandled
		}
		v.sharedPage = page
		h.Regs[10] = OK
		for _, ctx := range c.Mon.Ctx {
			c.Mon.ReinstallPMP(ctx)
		}
	case FnGuestAttest:
		h.Regs[10] = v.measure
	default:
		p.Violations++
		h.Regs[10] = ErrInvalidParam
	}
	return core.ActHandled
}

// OnInterrupt implements core.Policy: preempt the CVM on machine
// interrupts, return Interrupted to the host.
func (p *Policy) OnInterrupt(c *core.HartCtx, code uint64) core.Action {
	hs, ok := p.running(c.Hart.ID)
	if !ok {
		return core.ActDefault
	}
	v := &p.cvms[hs.active]
	saveS(c.Hart, &v.guest, c.Hart.CSR.Mepc)
	v.state = stReady
	p.leave(c, Interrupted)
	return core.ActDefault
}

// OnOSTrap implements core.Policy: a CVM fault terminates the run and
// reports the cause to the host.
func (p *Policy) OnOSTrap(c *core.HartCtx, cause, tval uint64) core.Action {
	hs, ok := p.running(c.Hart.ID)
	if !ok {
		return core.ActDefault
	}
	v := &p.cvms[hs.active]
	saveS(c.Hart, &v.guest, c.Hart.CSR.Mepc)
	v.state = stReady
	p.leave(c, 0xF000+cause)
	return core.ActHandled
}

// stashHState hides the host's hypervisor CSRs from the CVM.
func (p *Policy) stashHState(h *hart.Hart, hs *hostSlot) {
	c := &h.CSR
	src := []*uint64{
		&c.Hstatus, &c.Hedeleg, &c.Hideleg, &c.Hie, &c.Hcounteren, &c.Hgeie,
		&c.Htval, &c.Hip, &c.Hvip, &c.Htinst, &c.Hgatp, &c.Henvcfg,
		&c.Vsstatus, &c.Vsie, &c.Vstvec, &c.Vsscratch, &c.Vsepc,
		&c.Vscause, &c.Vstval, &c.Vsip, &c.Vsatp,
	}
	for i, reg := range src {
		hs.hShadow[i] = *reg
		*reg = 0
	}
}

func (p *Policy) unstashHState(h *hart.Hart, hs *hostSlot) {
	c := &h.CSR
	dst := []*uint64{
		&c.Hstatus, &c.Hedeleg, &c.Hideleg, &c.Hie, &c.Hcounteren, &c.Hgeie,
		&c.Htval, &c.Hip, &c.Hvip, &c.Htinst, &c.Hgatp, &c.Henvcfg,
		&c.Vsstatus, &c.Vsie, &c.Vstvec, &c.Vsscratch, &c.Vsepc,
		&c.Vscause, &c.Vstval, &c.Vsip, &c.Vsatp,
	}
	for i, reg := range dst {
		*reg = hs.hShadow[i]
	}
}

// CVMState exposes lifecycle state for tests and tooling.
func (p *Policy) CVMState(id int) (state int, shared uint64, err error) {
	if id < 0 || id >= MaxCVMs {
		return 0, 0, fmt.Errorf("ace: bad cvm id %d", id)
	}
	return int(p.cvms[id].state), p.cvms[id].sharedPage, nil
}

// Measurement exposes a CVM's launch measurement for tests and tooling
// (0 for a free slot).
func (p *Policy) Measurement(id int) uint64 {
	if id < 0 || id >= MaxCVMs {
		return 0
	}
	return p.cvms[id].measure
}

// CheckInvariants re-derives the FSM's structural invariants from the
// live state. The chaos campaign's TEE deck and fuzzdiff -tee call it after
// every injected fault and lifecycle operation: any violation means a
// forged or ill-ordered transition corrupted confidential-domain state.
func (p *Policy) CheckInvariants() error {
	var counts [MaxCVMs]int
	for page, id := range p.donated {
		if id < 0 || id >= MaxCVMs {
			return fmt.Errorf("ace: ledger page %#x -> bad cvm id %d", page, id)
		}
		v := &p.cvms[id]
		if v.state == stFree {
			return fmt.Errorf("ace: ledger page %#x -> free cvm %d", page, id)
		}
		if page%pageSize != 0 || page < v.base || page >= v.base+v.size {
			return fmt.Errorf("ace: ledger page %#x outside cvm %d [%#x,%#x)",
				page, id, v.base, v.base+v.size)
		}
		counts[id]++
	}
	runningRef := make(map[int]int) // cvm id -> hart holding it
	for hartID, hs := range p.host {
		if hs == nil || hs.active < 0 || hs.active >= MaxCVMs {
			return fmt.Errorf("ace: hart %d host slot references bad cvm", hartID)
		}
		if p.cvms[hs.active].state != stRunning {
			return fmt.Errorf("ace: hart %d runs cvm %d in state %v",
				hartID, hs.active, p.cvms[hs.active].state)
		}
		if prev, dup := runningRef[hs.active]; dup {
			return fmt.Errorf("ace: cvm %d running on harts %d and %d",
				hs.active, prev, hartID)
		}
		runningRef[hs.active] = hartID
	}
	for i := range p.cvms {
		v := &p.cvms[i]
		if v.state == stFree {
			if counts[i] != 0 {
				return fmt.Errorf("ace: free cvm %d holds %d ledger pages", i, counts[i])
			}
			if v.sharedPage != 0 || v.measure != 0 {
				return fmt.Errorf("ace: free cvm %d has residual state", i)
			}
			continue
		}
		if want := int(v.size / pageSize); counts[i] != want {
			return fmt.Errorf("ace: cvm %d owns %d ledger pages, want %d",
				i, counts[i], want)
		}
		if v.measure == 0 {
			return fmt.Errorf("ace: live cvm %d has zero measurement", i)
		}
		if v.sharedPage != 0 &&
			(v.sharedPage%pageSize != 0 || v.sharedPage < v.base ||
				v.sharedPage+pageSize > v.base+v.size) {
			return fmt.Errorf("ace: cvm %d shared page %#x outside its region",
				i, v.sharedPage)
		}
		if v.state == stRunning {
			if _, ok := runningRef[i]; !ok {
				return fmt.Errorf("ace: cvm %d marked running but no hart holds it", i)
			}
		}
	}
	return nil
}

// sbiErrDenied widens the SBI denial code through a function call, since
// converting a negative constant to uint64 is a compile-time error.
var sbiErrDenied = widen(rv.SBIErrDenied)

func widen(v int64) uint64 { return uint64(v) }
