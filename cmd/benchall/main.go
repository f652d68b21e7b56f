// Command benchall regenerates every table and figure of the paper's
// evaluation section on the simulated platforms and prints them in order,
// with the paper's reference numbers alongside for comparison, then the
// fork-latency table. The full sweep takes about 10 s.
//
// Usage:
//
//	benchall [-only fig3,table4,...] [-cpuprofile f] [-memprofile f]
//
// -h lists the -only keys. A key that names no experiment exits 2 having
// run nothing. Host speed is the repo benchmark's (benchmark/), not
// benchall's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"govfm/internal/bench"
	"govfm/internal/hart"
)

// experiments are benchall's -only keys, in the order the full sweep runs
// them.
var experiments = []struct {
	key string
	run func(w io.Writer) error
}{
	{"fig3", fig3}, {"table4", table4}, {"table5", table5},
	{"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12}, {"fig13", fig13},
	{"fig14", fig14}, {"boot", boot}, {"ablation", ablation}, {"rva23", rva23},
	{"fork", fork},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program; it returns the process exit code so tests can
// drive it directly. 0 = every selected experiment ran, 1 = one failed,
// 2 = usage error.
func run(args []string, out, errw io.Writer) int {
	keys := make([]string, len(experiments))
	for i, e := range experiments {
		keys[i] = e.key
	}
	fs := flag.NewFlagSet("benchall", flag.ContinueOnError)
	fs.SetOutput(errw)
	only := fs.String("only", "", "comma-separated subset of experiments: "+strings.Join(keys, ","))
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		if !slices.Contains(keys, s) {
			fmt.Fprintf(errw, "benchall: unknown experiment %q (want one of %s)\n", s, strings.Join(keys, ","))
			return 2
		}
		want[s] = true
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(errw, "benchall: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errw, "benchall: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(errw, "benchall: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(errw, "benchall: %v\n", err)
			}
		}()
	}

	for _, e := range experiments {
		if len(want) > 0 && !want[e.key] {
			continue
		}
		fmt.Fprintln(out, "================================================================")
		if err := e.run(out); err != nil {
			fmt.Fprintf(errw, "benchall: %s: %v\n", e.key, err)
			return 1
		}
		fmt.Fprintln(out)
	}
	return 0
}

func fig3(w io.Writer) error {
	res, err := bench.Fig3(hart.VisionFive2, 10_000)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintf(w, "\ntotals:\n%s\n", res.Collector.Format())
	fmt.Fprintln(w, "paper:    five causes 99.98%; 5500 traps/s; 1.17 world-switches/s")
	fmt.Fprintf(w, "measured: five causes %.2f%%; %.0f traps/s; %.2f world-switches/s\n",
		100*res.TopShare, res.NativeTrapRate, res.WorldSwitchRate)
	return nil
}

func table4(w io.Writer) error {
	fmt.Fprintln(w, "Table 4: Overhead of Miralis operations in cycles")
	fmt.Fprintf(w, "%-14s %12s %14s\n", "platform", "emulation", "world switch")
	for _, mk := range []func() *hart.Config{hart.VisionFive2, hart.PremierP550} {
		r, err := bench.Table4(mk)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %12.0f %14.0f\n", r.Platform, r.EmulationCycles, r.WorldSwitchCycles)
	}
	fmt.Fprintln(w, "paper: VF2 483 / 2704; P550 271 / 4098")
	return nil
}

func table5(w io.Writer) error {
	fmt.Fprintln(w, "Table 5: Cost of timer read and IPI (ns)")
	r, err := bench.Table5(hart.VisionFive2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %10s %10s\n", "", "read time", "IPI")
	for _, mode := range bench.Modes {
		fmt.Fprintf(w, "%-20s %10.0f %10.0f\n", mode, r.ReadTime[mode], r.IPI[mode])
	}
	fmt.Fprintln(w, "paper (VF2): native 288ns/3.96µs; miralis 208ns/3.65µs; no-offload 7.26µs/39.8µs")
	fmt.Fprintln(w, "(our IPI is a same-core round trip; the paper measures cross-core delivery)")
	return nil
}

func fig10(w io.Writer) error {
	res, err := bench.Fig10(hart.VisionFive2)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "paper: miralis ≈ native; no-offload ≈ 1.9% average overhead")
	return nil
}

func fig11(w io.Writer) error {
	res, err := bench.Fig11(hart.VisionFive2)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "paper: miralis ≥ native (write slightly better); no-offload ≈ 10.6% down")
	return nil
}

func fig12(w io.Writer) error {
	res, err := bench.Fig12(hart.VisionFive2)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "paper: miralis ≤ native below p95 (263 vs 279 ns median); no-offload ≈ 2x")
	return nil
}

func fig13(w io.Writer) error {
	for _, mk := range []func() *hart.Config{hart.VisionFive2, hart.PremierP550} {
		res, err := bench.Fig13(mk)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Format())
	}
	fmt.Fprintln(w, "paper: miralis up to +7.6%/+1.2% (VF2/P550) on network loads;")
	fmt.Fprintln(w, "       no-offload up to 259% overhead on Redis (P550)")
	return nil
}

func fig14(w io.Writer) error {
	res, err := bench.Fig14(hart.VisionFive2)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "paper: ≈1% average enclave overhead on RV8")
	return nil
}

func boot(w io.Writer) error {
	res, err := bench.BootTime(hart.VisionFive2)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "paper: 48.0s vs 47.5s native (≈1%); 61.3s without offload (≈29%)")
	return nil
}

func ablation(w io.Writer) error {
	res, err := bench.OffloadAblation(hart.VisionFive2)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "each fast path contributes in proportion to its trap share (§3.4)")
	return nil
}

func rva23(w io.Writer) error {
	res, err := bench.RVA23Ablation()
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "paper (§3.4, §8.3): hardware time CSR + Sstc remove the need for")
	fmt.Fprintln(w, "fast-path offloading on RVA23-class CPUs")
	return nil
}

func fork(w io.Writer) error {
	fmt.Fprintln(w, "Fork latency: COW spawn-from-snapshot vs. cold boot (200-case campaign)")
	fmt.Fprintf(w, "%-14s %6s %12s %12s %12s %8s\n",
		"platform", "cases", "spawn-ns", "fork-c/s", "cold-c/s", "speedup")
	r, err := bench.ForkLatency(hart.VisionFive2, 200)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %6d %12d %12.0f %12.0f %7.2fx\n",
		r.Platform, r.Cases, r.SpawnNsPerCase, r.ForkCasesPerSec, r.ColdCasesPerSec, r.Speedup)
	fmt.Fprintf(w, "(shared image %d pages; every case must still finish with guest-exit-pass)\n",
		r.ImagePages)
	return nil
}
