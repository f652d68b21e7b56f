package inject

import (
	"fmt"
	"hash/fnv"
	"strings"

	"govfm"
	"govfm/internal/core"
	"govfm/internal/policy/ace"
	"govfm/internal/policy/sandbox"
)

// The chaos campaign: for every firmware × policy × platform combination,
// under each fault deck, boot a monitored system with containment and the
// watchdog enabled, let it reach steady state, then repeatedly inject
// faults and verify the recovery contract — after every fault the guest
// resumes forward progress (retired instructions keep increasing), or the
// machine stops with a structured MonitorFault on record. A fault that
// wedges the machine with neither is a containment failure.

// decks are the fault decks a campaign runs every combo under, in order.
// The classic deck draws from every kind. The TEE deck draws only from
// TEEDeck (forged lifecycle hypercalls, wall probes), and after every
// fault its combos also check the confidential-compute invariants: the
// Dorami wall holds on every hart, the ACE FSM's structural invariants
// hold, and the monitor-state fingerprint never changes.
var decks = []string{"classic", "tee"}

// The campaign's pacing: the steps run between injections, the progress
// window after a fault, and the firmware's watchdog cycle budget. The
// budget lies well above the longest legitimate firmware residency
// (gosbi's full boot is ~140k cycles), and the window comfortably exceeds
// it in steps: a starved OS only resumes after the budget expires, and
// the campaign has to keep running long enough to see it.
const (
	gapSteps       = 500
	recoverySteps  = 1_000_000
	watchdogBudget = 400_000
)

// CampaignConfig parameterizes a chaos campaign. Zero values select the
// standard sweep.
type CampaignConfig struct {
	Seed           int64
	Platforms      []string // default: visionfive2 + p550
	Firmwares      []string // default: gosbi, minsbi, rtos
	Policies       []string // default: sandbox, keystone, ace
	FaultsPerCombo int      // default 12
}

func (c *CampaignConfig) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Platforms) == 0 {
		c.Platforms = []string{"visionfive2", "p550"}
	}
	if len(c.Firmwares) == 0 {
		c.Firmwares = []string{"gosbi", "minsbi", "rtos"}
	}
	if len(c.Policies) == 0 {
		c.Policies = []string{"sandbox", "keystone", "ace"}
	}
	if c.FaultsPerCombo == 0 {
		c.FaultsPerCombo = 12
	}
}

// ComboResult is the outcome of one firmware × policy × platform cell
// under one deck.
type ComboResult struct {
	Deck, Platform, Firmware, Policy string

	Injected  int // faults applied
	Contained int // fault records with Contained=true
	Reported  int // total fault records
	Rebuilds  int // fresh systems built (after halts / prolonged degraded mode)

	// ByKind breaks Injected down by fault kind (accumulated across
	// rebuilds).
	ByKind [NumKinds]int

	WatchdogFires    uint64
	FirmwareRestarts uint64
	DegradedCalls    uint64

	// WallChecks counts Dorami-wall invariant checks that passed on world
	// switches (the campaign fails the combo if any world switch skipped
	// or failed its check).
	WallChecks uint64

	// HashIntact reports the sandbox invariant: the policy's boot-image
	// hash and the OS text window never changed (always true for non-
	// sandbox policies, which do not hash).
	HashIntact bool

	// Failures lists faults after which the machine neither made forward
	// progress nor produced a fault record, and any recovered panics.
	Failures []string
}

func (r *ComboResult) String() string {
	return fmt.Sprintf("%-7s %-12s %-7s %-9s inj=%-3d contained=%-3d reported=%-3d wdog=%-2d restarts=%-2d degraded=%-3d rebuilds=%-2d wall=%-4d fail=%d",
		r.Deck, r.Platform, r.Firmware, r.Policy, r.Injected, r.Contained, r.Reported,
		r.WatchdogFires, r.FirmwareRestarts, r.DegradedCalls, r.Rebuilds,
		r.WallChecks, len(r.Failures))
}

// Report aggregates a campaign: one result per deck × combo, deck by
// deck.
type Report struct {
	Results []ComboResult

	TotalInjected int // across both decks
}

// Format renders the campaign as an aligned table, then each deck's
// totals and its injections by kind.
func (r *Report) Format() string {
	var b strings.Builder
	for i := range r.Results {
		fmt.Fprintln(&b, r.Results[i].String())
	}
	for _, deck := range decks {
		var t ComboResult
		for _, res := range r.Results {
			if res.Deck != deck {
				continue
			}
			t.Injected += res.Injected
			t.Contained += res.Contained
			t.Reported += res.Reported
			t.Failures = append(t.Failures, res.Failures...)
			for k, n := range res.ByKind {
				t.ByKind[k] += n
			}
		}
		fmt.Fprintf(&b, "%s total: %d injected, %d contained, %d reported, %d failure(s); by kind:",
			deck, t.Injected, t.Contained, t.Reported, len(t.Failures))
		for k, n := range t.ByKind {
			if n > 0 {
				fmt.Fprintf(&b, " %s=%d", Kind(k), n)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RunCampaign executes the full sweep under every deck. Each deck seeds
// its combos alike, from the seed and the combo's place in the sweep.
func RunCampaign(cfg CampaignConfig) (*Report, error) {
	cfg.defaults()
	rep := &Report{}
	for _, deck := range decks {
		combo := int64(0)
		for _, plat := range cfg.Platforms {
			for _, fw := range cfg.Firmwares {
				for _, pol := range cfg.Policies {
					combo++
					if fw == "rtos" && pol == "sandbox" {
						continue // govfm.New rejects the pair: the RTOS's app runs from the range the sandbox revokes
					}
					res, err := runCombo(cfg, deck, plat, fw, pol, cfg.Seed*1000+combo)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/%s/%s: %w", deck, plat, fw, pol, err)
					}
					rep.Results = append(rep.Results, *res)
					rep.TotalInjected += res.Injected
				}
			}
		}
	}
	return rep, nil
}

// comboSystem is one live system under test plus its invariant baselines.
type comboSystem struct {
	sys     *govfm.System
	sandbox *sandbox.Policy // non-nil for the sandbox policy
	osHash  uint64          // FNV-64a of the OS text window after warmup
	vmHash  uint64          // sandbox BootHash after warmup
}

// hashWindow is how much of the OS image the campaign hashes for the
// integrity invariant — the text the boot kernel executes from.
const hashWindow = 1024

func buildCombo(plat, fw, pol string) (*comboSystem, error) {
	cs := &comboSystem{}
	var policy govfm.Policy
	switch pol {
	case "sandbox":
		// Report mode: log violations and keep running — the paper's
		// production posture, and the one that lets a rogue firmware hammer
		// the sandbox until the watchdog writes it off.
		cs.sandbox = sandbox.New(sandbox.Options{Report: true})
		policy = cs.sandbox
	case "keystone":
		policy = govfm.KeystonePolicy()
	case "ace":
		policy = govfm.ACEPolicy()
	case "none":
		policy = nil
	default:
		return nil, fmt.Errorf("unknown policy %q", pol)
	}

	sys, err := govfm.New(govfm.Config{
		Platform:       govfm.Platform(plat),
		Harts:          1,
		Firmware:       govfm.FirmwareKind(fw),
		Kernel:         govfm.BootKernel(1, 400, 6, 120),
		Virtualize:     true,
		Policy:         policy,
		Containment:    true,
		WatchdogBudget: watchdogBudget,
	})
	if err != nil {
		return nil, err
	}
	cs.sys = sys

	// Warm up to steady state: the OS retiring instructions (or, for the
	// OS-less RTOS, a fixed slice of its test run).
	h := sys.Machine.Harts[0]
	if fw == "rtos" {
		sys.Machine.Run(2_000)
	} else {
		sys.Machine.RunUntil(func() bool { return h.SInstret > 64 }, 3_000_000)
	}
	cs.osHash = osTextHash(sys)
	if cs.sandbox != nil {
		cs.vmHash = cs.sandbox.BootHash
	}
	return cs, nil
}

func osTextHash(sys *govfm.System) uint64 {
	img, err := sys.Machine.Bus.ReadBytes(core.OSBase, hashWindow)
	if err != nil {
		return 0
	}
	fh := fnv.New64a()
	fh.Write(img)
	return fh.Sum64()
}

// progress returns the forward-progress counter for the combo: retired
// S-mode instructions when an OS runs, total retired instructions for the
// OS-less RTOS.
func progress(cs *comboSystem, fw string) uint64 {
	h := cs.sys.Machine.Harts[0]
	if fw == "rtos" {
		return h.Instret
	}
	return h.SInstret
}

// progressThreshold is how many newly retired instructions count as the
// guest being alive again after a fault.
const progressThreshold = 16

func runCombo(cfg CampaignConfig, deck, plat, fw, pol string, seed int64) (res *ComboResult, err error) {
	res = &ComboResult{Deck: deck, Platform: plat, Firmware: fw, Policy: pol, HashIntact: true}
	tee := deck == "tee"
	defer func() {
		if r := recover(); r != nil {
			// The acceptance bar is zero process panics: anything that
			// escapes the monitor's own boundaries is a campaign failure,
			// not a crash.
			res.Failures = append(res.Failures, fmt.Sprintf("panic escaped containment: %v", r))
			err = nil
		}
	}()

	cs, err := buildCombo(plat, fw, pol)
	if err != nil {
		return nil, err
	}
	var inj *Injector
	var monHash uint64
	// arm points a fresh injector, seeded with s, at cs's system and
	// takes its monitor-state fingerprint.
	arm := func(s int64) {
		inj = New(s, cs.sys.Monitor)
		if tee {
			inj.SetDeck(TEEDeck)
		}
		monHash = cs.sys.Monitor.MonitorStateHash()
	}
	arm(seed)
	degradedRounds := 0

	// teeCheck asserts the confidential-compute invariants on the live
	// system: the Dorami wall holds on every hart, the ACE FSM is
	// structurally consistent, and the monitor's protected state is
	// byte-identical to its post-boot fingerprint.
	teeCheck := func(after string) {
		mon := cs.sys.Monitor
		for _, ctx := range mon.Ctx {
			if werr := mon.CheckWall(ctx); werr != nil {
				res.Failures = append(res.Failures,
					fmt.Sprintf("%s: hart%d: %v", after, ctx.Hart.ID, werr))
			}
		}
		if ap, ok := mon.Policy.(*ace.Policy); ok && ap != nil {
			if ierr := ap.CheckInvariants(); ierr != nil {
				res.Failures = append(res.Failures,
					fmt.Sprintf("%s: %v", after, ierr))
			}
		}
		if h := mon.MonitorStateHash(); h != monHash {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%s: monitor state hash changed %#x -> %#x", after, monHash, h))
		}
	}

	finishCombo := func() {
		mon := cs.sys.Monitor
		for k := 0; k < NumKinds; k++ {
			res.ByKind[k] += inj.Counts[k]
		}
		for _, f := range mon.Faults {
			res.Reported++
			if f.Contained {
				res.Contained++
			}
			if f.Kind == core.FaultWallBreach {
				res.Failures = append(res.Failures,
					fmt.Sprintf("wall breach recorded: %s", f.Reason))
			}
		}
		st := mon.TotalStats()
		res.WatchdogFires += st.WatchdogFires
		res.FirmwareRestarts += st.FirmwareRestarts
		res.DegradedCalls += st.DegradedCalls
		res.WallChecks += st.WallChecks
		if st.WallChecks != st.WorldSwitches {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"wall checked on %d of %d world switches", st.WallChecks, st.WorldSwitches))
		}
		if cs.sandbox != nil {
			if cs.sandbox.BootHash != cs.vmHash || osTextHash(cs.sys) != cs.osHash {
				res.HashIntact = false
			}
		}
		if tee {
			teeCheck("combo finish")
		}
	}

	rebuild := func() error {
		finishCombo()
		res.Rebuilds++
		degradedRounds = 0
		ncs, err := buildCombo(plat, fw, pol)
		if err != nil {
			return err
		}
		cs = ncs
		arm(seed + int64(res.Rebuilds))
		return nil
	}

	for i := 0; i < cfg.FaultsPerCombo; i++ {
		if halted, _ := cs.sys.Machine.Halted(); halted || degradedRounds >= 4 {
			if err := rebuild(); err != nil {
				return nil, err
			}
		}

		cs.sys.Machine.Run(gapSteps)
		mon := cs.sys.Monitor
		preFaults := mon.FaultCount
		f := inj.Inject()
		res.Injected++

		base := progress(cs, fw)
		progressed := cs.sys.Machine.RunUntil(func() bool {
			return progress(cs, fw) > base+progressThreshold
		}, recoverySteps)
		halted, reason := cs.sys.Machine.Halted()

		switch {
		case progressed:
			// Forward progress: the fault was absorbed or contained.
		case halted && mon.FaultCount > preFaults:
			// The machine stopped, but with a structured fault on record —
			// a reported, diagnosable end state.
		case halted && strings.HasPrefix(reason, "guest-exit"):
			// The guest ended its own run through the exit device — a
			// controlled shutdown (possibly reporting the corruption it
			// detected), not a wedge.
		default:
			res.Failures = append(res.Failures,
				fmt.Sprintf("%v: no forward progress and no fault record (halted=%v reason=%q)",
					f, halted, reason))
			// A wedged system poisons every later measurement: start fresh
			// so the remaining faults are still informative.
			if err := rebuild(); err != nil {
				return nil, err
			}
		}

		if tee {
			teeCheck(f.String())
		}

		if mon.Ctx[0].Degraded {
			degradedRounds++
		}
	}
	finishCombo()
	return res, nil
}
