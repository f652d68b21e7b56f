// Package inject is the deterministic fault-injection engine: seeded,
// reproducible perturbations of a running machine that model the failure
// classes a virtual firmware monitor must survive — cosmic-ray bit flips
// in firmware state, spurious and lost device interrupts, and rogue
// firmware behaviors (PMP overreach, runaway CSR writes, lockups, control
// flow that never returns to the OS). The chaos campaign (campaign.go)
// sweeps these across every firmware × policy × platform combination and
// asserts the monitor's crash containment holds: the OS keeps making
// forward progress, or the machine stops with a structured MonitorFault.
package inject

import (
	"fmt"
	"math/rand"

	"govfm/internal/core"
	"govfm/internal/hart"
)

// Kind classifies an injectable fault.
type Kind int

const (
	// BitFlipMem flips one bit in the firmware's memory image.
	BitFlipMem Kind = iota
	// BitFlipGPR flips one bit in a general-purpose register while the
	// firmware world is executing (OS registers are never touched: a
	// corrupted OS is not a firmware fault the monitor could contain).
	BitFlipGPR
	// BitFlipCSR flips one bit in a firmware-owned virtual M-mode CSR
	// (mscratch/mepc/mtvec/mcause/mtval). The supervisor shadow and the
	// delegation registers belong to the OS and are never targeted.
	BitFlipCSR
	// BitFlipVPMP flips one bit in a virtual PMP address register.
	BitFlipVPMP
	// SpuriousIRQ raises a virtual device interrupt the firmware never
	// asked for (CLINT software interrupt or an immediate timer).
	SpuriousIRQ
	// LostIRQ drops the firmware's pending virtual interrupts and disarms
	// its timer (the OS's own deadline is never touched).
	LostIRQ
	// PMPOverreach redirects the firmware's control flow into OS memory —
	// the canonical rogue-firmware access the isolation policy must block.
	PMPOverreach
	// RunawayCSR models wild CSR writes: the virtual mtvec is overwritten
	// with garbage (including zero), so the next virtual trap double-faults.
	RunawayCSR
	// StuckWFI masks every virtual M interrupt so the firmware's next wfi
	// can never be woken.
	StuckWFI
	// NeverMret corrupts the virtual mepc so the firmware's return to the
	// OS jumps into the weeds instead.
	NeverMret
	// MMIOError makes the next device access on the bus fail with an
	// access fault while the firmware is executing.
	MMIOError

	// The TEE deck (tee.go): forged confidential-compute lifecycle calls
	// and probes aimed at the Dorami monitor wall. The hypercall kinds
	// hijack the OS into a generated gadget that issues real ecalls
	// through the monitor's trap path, so the policy FSM sees exactly
	// what a malicious host would send.

	// TEEForgedSteal issues a COVH run-CVM call with an arbitrary id from
	// host context — a forged hart steal.
	TEEForgedSteal
	// TEEForgedReturn issues a COVG guest call from host context with no
	// CVM occupying the hart — the host impersonating a confidential
	// guest.
	TEEForgedReturn
	// TEEDoubleDonate promotes the same physical region twice in a row;
	// the second donation must be refused by the page ledger.
	TEEDoubleDonate
	// TEEReclaimStorm fires a reclaim/destroy/reclaim burst at a random
	// CVM id — including reclaim-while-running and destroy-while-running
	// orderings the FSM must refuse.
	TEEReclaimStorm
	// TEEWallProbe redirects the firmware's control flow into the
	// monitor's own memory: the locked PMP wall must fault it.
	TEEWallProbe

	NumKinds int = iota
)

// TEEDeck lists the confidential-compute fault kinds: the campaign's TEE
// deck, which sweeps only the TEE boundary.
var TEEDeck = []Kind{TEEForgedSteal, TEEForgedReturn, TEEDoubleDonate,
	TEEReclaimStorm, TEEWallProbe}

func (k Kind) String() string {
	switch k {
	case BitFlipMem:
		return "bitflip-mem"
	case BitFlipGPR:
		return "bitflip-gpr"
	case BitFlipCSR:
		return "bitflip-csr"
	case BitFlipVPMP:
		return "bitflip-vpmp"
	case SpuriousIRQ:
		return "spurious-irq"
	case LostIRQ:
		return "lost-irq"
	case PMPOverreach:
		return "pmp-overreach"
	case RunawayCSR:
		return "runaway-csr"
	case StuckWFI:
		return "stuck-wfi"
	case NeverMret:
		return "never-mret"
	case MMIOError:
		return "mmio-error"
	case TEEForgedSteal:
		return "tee-forged-steal"
	case TEEForgedReturn:
		return "tee-forged-return"
	case TEEDoubleDonate:
		return "tee-double-donate"
	case TEEReclaimStorm:
		return "tee-reclaim-storm"
	case TEEWallProbe:
		return "tee-wall-probe"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault describes one injected fault.
type Fault struct {
	Kind   Kind
	Hart   int
	Cycles uint64 // hart cycle count at injection
	World  core.World
	Detail string
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@hart%d cyc=%d %v: %s", f.Kind, f.Hart, f.Cycles, f.World, f.Detail)
}

// firmwareOnly marks kinds that are only meaningful while the firmware
// world is live on the hart; when it is not, the injector falls back to a
// state-targeting kind whose effect materializes at the next firmware entry.
var firmwareOnly = [NumKinds]bool{
	BitFlipGPR:   true,
	PMPOverreach: true,
	MMIOError:    true,
	TEEWallProbe: true,
}

// osOnly marks kinds that hijack the OS into a hypercall gadget: they
// need the hart executing the OS world directly (virtual S-mode, bare
// addressing) so the generated ecall sequence reaches the policy through
// the real trap path.
var osOnly = [NumKinds]bool{
	TEEForgedSteal:  true,
	TEEForgedReturn: true,
	TEEDoubleDonate: true,
	TEEReclaimStorm: true,
}

// universal lists the kinds applicable in any world.
var universal = func() []Kind {
	var ks []Kind
	for k := Kind(0); int(k) < NumKinds; k++ {
		if !firmwareOnly[k] && !osOnly[k] {
			ks = append(ks, k)
		}
	}
	return ks
}()

// Injector applies seeded, deterministic faults to a monitored machine.
// The same seed and injection schedule reproduce the same fault sequence.
type Injector struct {
	rng  *rand.Rand
	mon  *core.Monitor
	m    *hart.Machine
	deck []Kind // nil: all kinds; otherwise Inject draws from this set

	// Total counts all injected faults; Counts breaks them down by kind.
	Total  int
	Counts [NumKinds]int
}

// SetDeck restricts Inject to the given fault kinds (world-gating
// fallbacks still apply). A nil deck restores the full set.
func (in *Injector) SetDeck(deck []Kind) { in.deck = deck }

// New builds an injector for a monitored machine.
func New(seed int64, mon *core.Monitor) *Injector {
	return &Injector{
		rng: rand.New(rand.NewSource(seed)),
		mon: mon,
		m:   mon.Machine,
	}
}

// Inject applies one randomly chosen fault appropriate for the hart's
// current world and returns its description.
func (in *Injector) Inject() Fault {
	ctx := in.mon.Ctx[in.rng.Intn(len(in.mon.Ctx))]
	fw := ctx.World() == core.WorldFirmware && !ctx.Degraded
	var k Kind
	if len(in.deck) > 0 {
		k = in.deck[in.rng.Intn(len(in.deck))]
	} else {
		k = Kind(in.rng.Intn(NumKinds))
	}
	if (firmwareOnly[k] && !fw) || (osOnly[k] && !in.gadgetReady(ctx)) {
		k = universal[in.rng.Intn(len(universal))]
	}
	return in.InjectKind(ctx, k)
}

// InjectKind applies one fault of the given kind to ctx's hart. Kinds
// gated on the firmware world are applied unconditionally — tests use this
// to force a specific scenario.
func (in *Injector) InjectKind(ctx *core.HartCtx, k Kind) Fault {
	h := ctx.Hart
	v := ctx.V
	detail := ""

	switch k {
	case BitFlipMem:
		addr := core.FirmwareBase + uint64(in.rng.Int63n(core.FirmwareSize))
		bit := uint(in.rng.Intn(8))
		if b, err := in.m.Bus.ReadBytes(addr, 1); err == nil {
			b[0] ^= 1 << bit
			_ = in.m.Bus.WriteBytes(addr, b)
		}
		detail = fmt.Sprintf("mem[%#x] bit %d", addr, bit)

	case BitFlipGPR:
		reg := 1 + in.rng.Intn(31)
		bit := uint(in.rng.Intn(64))
		h.Regs[reg] ^= 1 << bit
		detail = fmt.Sprintf("x%d bit %d", reg, bit)

	case BitFlipCSR:
		targets := []struct {
			name string
			p    *uint64
		}{
			{"mscratch", &v.Mscratch}, {"mepc", &v.Mepc}, {"mtvec", &v.Mtvec},
			{"mcause", &v.Mcause}, {"mtval", &v.Mtval},
		}
		t := targets[in.rng.Intn(len(targets))]
		bit := uint(in.rng.Intn(64))
		*t.p ^= 1 << bit
		detail = fmt.Sprintf("v%s bit %d", t.name, bit)

	case BitFlipVPMP:
		idx := in.rng.Intn(v.PMP.NumEntries())
		bit := uint(in.rng.Intn(54)) // PMP address registers are 54 bits
		v.PMP.ForceAddr(idx, v.PMP.Addr(idx)^1<<bit)
		in.mon.ReinstallPMP(ctx)
		detail = fmt.Sprintf("vpmpaddr%d bit %d", idx, bit)

	case SpuriousIRQ:
		if in.rng.Intn(2) == 0 {
			in.mon.VClint().SetVirtMsip(h.ID, true)
			detail = "virtual msip raised"
		} else {
			in.mon.VClint().SetVirtMtimecmp(h.ID, 0)
			detail = "virtual mtimecmp rewound to 0"
		}

	case LostIRQ:
		in.mon.VClint().SetVirtMsip(h.ID, false)
		in.mon.VClint().SetVirtMtimecmp(h.ID, ^uint64(0))
		detail = "virtual msip cleared, virtual timer disarmed"

	case PMPOverreach:
		off := uint64(in.rng.Int63n(0x10000)) &^ 3
		h.PC = core.OSBase + off
		detail = fmt.Sprintf("firmware pc redirected to %#x", h.PC)

	case RunawayCSR:
		switch in.rng.Intn(3) {
		case 0:
			v.Mtvec = 0
		case 1:
			v.Mtvec = in.rng.Uint64()
		default:
			v.Mtvec = core.MiralisBase // points into the monitor's carve-out
		}
		detail = fmt.Sprintf("vmtvec = %#x", v.Mtvec)

	case StuckWFI:
		v.Mie = 0
		in.mon.VClint().SetVirtMsip(h.ID, false)
		detail = "vmie = 0, pending wakeups cleared"

	case NeverMret:
		bits := in.rng.Uint64() | 1<<12 // guaranteed non-trivial displacement
		v.Mepc ^= bits
		detail = fmt.Sprintf("vmepc corrupted to %#x", v.Mepc)

	case MMIOError:
		n := 1 + in.rng.Intn(2)
		in.m.Bus.InjectDeviceFaults(n)
		detail = fmt.Sprintf("next %d device access(es) fail", n)

	case TEEForgedSteal, TEEForgedReturn, TEEDoubleDonate, TEEReclaimStorm:
		detail = in.injectTEECall(ctx, k)

	case TEEWallProbe:
		off := uint64(in.rng.Int63n(core.MiralisSize)) &^ 3
		h.PC = core.MiralisBase + off
		detail = fmt.Sprintf("firmware pc redirected into monitor memory %#x", h.PC)
	}

	in.Total++
	in.Counts[k]++
	return Fault{Kind: k, Hart: h.ID, Cycles: h.Cycles, World: ctx.World(), Detail: detail}
}
