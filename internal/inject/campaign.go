package inject

import (
	"fmt"
	"hash/fnv"
	"strings"

	"govfm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/obs"
	"govfm/internal/policy/ace"
	"govfm/internal/policy/sandbox"
)

// The chaos campaign: for every firmware × policy × platform combination,
// boot a monitored system with containment and the watchdog enabled, let
// it reach steady state, then repeatedly inject faults and verify the
// recovery contract — after every fault the guest resumes forward progress
// (retired instructions keep increasing), or the machine stops with a
// structured MonitorFault on record. A fault that wedges the machine with
// neither is a containment failure.

// CampaignConfig parameterizes a chaos campaign. Zero values select the
// standard sweep.
type CampaignConfig struct {
	Seed           int64
	Platforms      []string // default: visionfive2 + p550
	Firmwares      []string // default: gosbi, minsbi, rtos
	Policies       []string // default: sandbox, keystone, ace
	FaultsPerCombo int      // default 12
	GapSteps       uint64   // steps between injections (default 500)
	RecoverySteps  uint64   // progress window after a fault (default 400k)
	WatchdogBudget uint64   // firmware cycle budget (default 2M)

	// Obs, when non-nil, receives an "inject:<kind>" instant for every
	// injection on the trace. Detection metrics live in the Report (the
	// campaign rebuilds injectors, so per-injector collectors would
	// shadow each other); cmd/chaos surfaces them into the registry.
	Obs *obs.Observer

	// TEE restricts the injector to the TEE fault deck (forged lifecycle
	// hypercalls, wall probes) and adds the confidential-compute
	// invariants after every fault: the Dorami wall holds on every hart,
	// the ACE FSM's structural invariants hold, and the monitor-state
	// fingerprint never changes.
	TEE bool

	// Fork makes every combo boot once: the post-warmup machine is
	// snapshotted (copy-on-write, with the monitor and policy forked
	// alongside), and every rebuild spawns from that image instead of
	// re-booting and re-warming a fresh system. Behaviorally equivalent —
	// the machine-equivalence gate checks forks — but rebuilds cost
	// microseconds instead of a full simulated boot.
	Fork bool
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
	if c.GapSteps == 0 {
		c.GapSteps = 500
	}
	if c.RecoverySteps == 0 {
		// Must comfortably exceed the watchdog budget in steps: a starved
		// OS only resumes after the budget expires, and the campaign has to
		// keep running long enough to see it.
		c.RecoverySteps = 1_000_000
	}
	if c.WatchdogBudget == 0 {
		// Well above the longest legitimate firmware residency (gosbi's
		// full boot is ~140k cycles) and well below RecoverySteps.
		c.WatchdogBudget = 400_000
	}
}

// ComboResult is the outcome of one firmware × policy × platform cell.
type ComboResult struct {
	Platform, Firmware, Policy string

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
	return fmt.Sprintf("%-12s %-7s %-9s inj=%-3d contained=%-3d reported=%-3d wdog=%-2d restarts=%-2d degraded=%-3d rebuilds=%-2d wall=%-4d fail=%d",
		r.Platform, r.Firmware, r.Policy, r.Injected, r.Contained, r.Reported,
		r.WatchdogFires, r.FirmwareRestarts, r.DegradedCalls, r.Rebuilds,
		r.WallChecks, len(r.Failures))
}

// Report aggregates a campaign.
type Report struct {
	Results []ComboResult

	TotalInjected  int
	TotalContained int
	TotalReported  int
	TotalFailures  int

	// ByKind is the campaign-wide injection breakdown.
	ByKind [NumKinds]int
}

// Format renders the campaign as an aligned table.
func (r *Report) Format() string {
	var b strings.Builder
	for i := range r.Results {
		fmt.Fprintln(&b, r.Results[i].String())
	}
	fmt.Fprintf(&b, "total: %d injected, %d contained, %d reported, %d failure(s)\n",
		r.TotalInjected, r.TotalContained, r.TotalReported, r.TotalFailures)
	return b.String()
}

// RunCampaign executes the full sweep.
func RunCampaign(cfg CampaignConfig) (*Report, error) {
	cfg.defaults()
	rep := &Report{}
	combo := int64(0)
	for _, plat := range cfg.Platforms {
		for _, fw := range cfg.Firmwares {
			for _, pol := range cfg.Policies {
				combo++
				if fw == "rtos" && pol == "sandbox" {
					continue // govfm.New rejects the pair: the RTOS's app runs from the range the sandbox revokes
				}
				res, err := runCombo(cfg, plat, fw, pol, cfg.Seed*1000+combo)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", plat, fw, pol, err)
				}
				rep.Results = append(rep.Results, *res)
				rep.TotalInjected += res.Injected
				rep.TotalContained += res.Contained
				rep.TotalReported += res.Reported
				rep.TotalFailures += len(res.Failures)
				for k := 0; k < NumKinds; k++ {
					rep.ByKind[k] += res.ByKind[k]
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

func buildCombo(cfg CampaignConfig, plat, fw, pol string) (*comboSystem, error) {
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
		WatchdogBudget: cfg.WatchdogBudget,
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

// comboSource produces fresh systems for one campaign cell. In Fork mode
// the first build cold-boots and captures a post-warmup image plus a
// never-run fork template (machine + monitor clone) whose state matches
// the image; every later build spawns from that pair in O(pages touched)
// instead of re-simulating the boot.
type comboSource struct {
	cfg           CampaignConfig
	plat, fw, pol string

	img            *hart.Image
	template       *govfm.System
	osHash, vmHash uint64
}

func (s *comboSource) build() (*comboSystem, error) {
	if !s.cfg.Fork {
		return buildCombo(s.cfg, s.plat, s.fw, s.pol)
	}
	if s.img == nil {
		cs, err := buildCombo(s.cfg, s.plat, s.fw, s.pol)
		if err != nil {
			return nil, err
		}
		img, err := cs.sys.Machine.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("post-warmup snapshot: %w", err)
		}
		tm, err := hart.SpawnFromImage(img)
		if err != nil {
			return nil, err
		}
		tmpl := &govfm.System{Machine: tm, Platform: cs.sys.Platform}
		if cs.sys.Monitor != nil {
			tmpl.Monitor, err = cs.sys.Monitor.Fork(tm)
			if err != nil {
				return nil, fmt.Errorf("monitor fork: %w", err)
			}
		}
		s.img, s.template = img, tmpl
		s.osHash, s.vmHash = cs.osHash, cs.vmHash
		return cs, nil
	}
	child, err := hart.SpawnFromImage(s.img)
	if err != nil {
		return nil, err
	}
	cs := &comboSystem{
		sys:    &govfm.System{Machine: child, Platform: s.template.Platform},
		osHash: s.osHash,
		vmHash: s.vmHash,
	}
	if s.template.Monitor != nil {
		cs.sys.Monitor, err = s.template.Monitor.Fork(child)
		if err != nil {
			return nil, fmt.Errorf("monitor fork: %w", err)
		}
		if sb, ok := cs.sys.Monitor.Policy.(*sandbox.Policy); ok {
			cs.sandbox = sb
		}
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

func runCombo(cfg CampaignConfig, plat, fw, pol string, seed int64) (res *ComboResult, err error) {
	res = &ComboResult{Platform: plat, Firmware: fw, Policy: pol, HashIntact: true}
	defer func() {
		if r := recover(); r != nil {
			// The acceptance bar is zero process panics: anything that
			// escapes the monitor's own boundaries is a campaign failure,
			// not a crash.
			res.Failures = append(res.Failures, fmt.Sprintf("panic escaped containment: %v", r))
			err = nil
		}
	}()

	src := &comboSource{cfg: cfg, plat: plat, fw: fw, pol: pol}
	cs, err := src.build()
	if err != nil {
		return nil, err
	}
	inj := New(seed, cs.sys.Monitor)
	if cfg.Obs != nil {
		inj.AttachTracer(cfg.Obs.Trace)
	}
	if cfg.TEE {
		inj.SetDeck(TEEDeck)
	}
	monHash := cs.sys.Monitor.MonitorStateHash()
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
		if cfg.TEE {
			teeCheck("combo finish")
		}
	}

	rebuild := func() error {
		finishCombo()
		res.Rebuilds++
		degradedRounds = 0
		ncs, err := src.build()
		if err != nil {
			return err
		}
		cs = ncs
		inj = New(seed+int64(res.Rebuilds), cs.sys.Monitor)
		if cfg.Obs != nil {
			inj.AttachTracer(cfg.Obs.Trace)
		}
		if cfg.TEE {
			inj.SetDeck(TEEDeck)
		}
		monHash = cs.sys.Monitor.MonitorStateHash()
		return nil
	}

	for i := 0; i < cfg.FaultsPerCombo; i++ {
		if halted, _ := cs.sys.Machine.Halted(); halted || degradedRounds >= 4 {
			if err := rebuild(); err != nil {
				return nil, err
			}
		}

		cs.sys.Machine.Run(cfg.GapSteps)
		mon := cs.sys.Monitor
		preFaults := mon.FaultCount
		f := inj.Inject()
		res.Injected++

		base := progress(cs, fw)
		progressed := cs.sys.Machine.RunUntil(func() bool {
			return progress(cs, fw) > base+progressThreshold
		}, cfg.RecoverySteps)
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

		if cfg.TEE {
			teeCheck(f.String())
		}

		if mon.Ctx[0].Degraded {
			degradedRounds++
		}
	}
	finishCombo()
	return res, nil
}
