// Command chaos runs the fault-injection campaign: seeded, deterministic
// faults (bit flips, spurious/lost interrupts, rogue-firmware behaviors,
// MMIO errors) injected into monitored systems across every firmware ×
// policy × platform combination, asserting the monitor's crash containment
// contract — after every fault the guest resumes forward progress, or the
// machine stops with a structured MonitorFault on record.
//
// Usage:
//
//	go run ./cmd/chaos -smoke              # fixed-seed CI gate (~2s)
//	go run ./cmd/chaos -faults 50 -seed 7  # longer campaign, chosen seed
//	go run ./cmd/chaos -profile vf2        # one platform only
//	go run ./cmd/chaos -smoke -metrics-out chaos.json  # detection metrics
//
// With -tee the injector draws only from the TEE fault deck — forged
// confidential-compute lifecycle hypercalls and probes at the Dorami
// monitor wall — and after every fault the campaign additionally asserts
// the confidential-compute invariants: the locked-PMP wall holds on every
// hart, the ACE lifecycle FSM is structurally consistent, and the
// monitor's protected state fingerprint never changes:
//
//	go run ./cmd/chaos -tee -smoke          # TEE CI gate, all three policies
//	go run ./cmd/chaos -tee -faults 50      # longer TEE campaign
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"govfm/internal/inject"
	"govfm/internal/obs"
)

var profileAlias = map[string][]string{
	"vf2":  {"visionfive2"},
	"p550": {"p550"},
	"all":  {"visionfive2", "p550"},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		seed    = flag.Int64("seed", 1, "campaign seed")
		faults  = flag.Int("faults", 12, "faults injected per combination")
		smoke   = flag.Bool("smoke", false, "fixed-seed smoke campaign: every firmware x policy x platform, used as a CI gate")
		profile = flag.String("profile", "all", "platform profile: vf2, p550, or all")
		budget  = flag.Uint64("budget", 0, "watchdog cycle budget (0 = default)")
		tee     = flag.Bool("tee", false, "restrict injection to the TEE fault deck and assert the confidential-compute invariants (wall, ACE FSM, monitor-state fingerprint) after every fault")

		metricsOut  = flag.String("metrics-out", "", "write campaign detection metrics (JSON) to this file")
		metricsDump = flag.Bool("metrics", false, "print campaign detection metrics on exit")
		traceOut    = flag.String("trace-out", "", "write injection instants as Chrome trace_event JSON to this file")
	)
	flag.Parse()

	profiles, ok := profileAlias[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "chaos: unknown profile %q (want vf2, p550, or all)\n", *profile)
		return 2
	}
	if *smoke {
		*seed = 1
		*faults = 12
		profiles = profileAlias["all"]
	}

	var ob *obs.Observer
	if *metricsOut != "" || *metricsDump || *traceOut != "" {
		ob = obs.New(obs.Options{})
	}

	start := time.Now()
	rep, err := inject.RunCampaign(inject.CampaignConfig{
		Seed:           *seed,
		Platforms:      profiles,
		FaultsPerCombo: *faults,
		WatchdogBudget: *budget,
		Obs:            ob,
		TEE:            *tee,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 2
	}
	fmt.Print(rep.Format())
	if ob != nil {
		// Surface the campaign's detection metrics into the registry: the
		// Report already aggregates across every combo and rebuild.
		ob.Metrics.Collect(func(emit func(name string, value uint64)) {
			emit("chaos.injected", uint64(rep.TotalInjected))
			emit("chaos.detected", uint64(rep.TotalReported))
			emit("chaos.contained", uint64(rep.TotalContained))
			emit("chaos.failures", uint64(rep.TotalFailures))
			for k := inject.Kind(0); int(k) < inject.NumKinds; k++ {
				if n := rep.ByKind[k]; n > 0 {
					emit("chaos.inject."+k.String(), uint64(n))
				}
			}
		})
		if *metricsDump {
			fmt.Printf("metrics:\n%s", ob.Metrics.Dump())
		}
		if *metricsOut != "" {
			if err := ob.WriteMetricsFile(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			}
		}
		if *traceOut != "" {
			if err := ob.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			}
		}
	}
	fmt.Printf("campaign: %d combos in %.1fs\n", len(rep.Results), time.Since(start).Seconds())
	for _, r := range rep.Results {
		for _, f := range r.Failures {
			fmt.Printf("FAILURE %s/%s/%s: %s\n", r.Platform, r.Firmware, r.Policy, f)
		}
		if !r.HashIntact {
			fmt.Printf("FAILURE %s/%s/%s: sandbox integrity hash changed\n",
				r.Platform, r.Firmware, r.Policy)
		}
	}
	for _, r := range rep.Results {
		if len(r.Failures) > 0 || !r.HashIntact {
			return 1
		}
	}
	return 0
}
