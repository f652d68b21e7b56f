package bench

import (
	"slices"
	"strings"
	"testing"

	"govfm/internal/core"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
	"govfm/internal/trace"
)

// The figure tests assert the *shape* of each paper result: who wins, by
// roughly what factor, and where the crossovers are — not absolute numbers
// (DESIGN.md documents the calibration).

func TestFig3BootTrapDistribution(t *testing.T) {
	res, err := Fig3(hart.VisionFive2, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	// Paper: five offloadable causes account for 99.98% of boot traps.
	if res.TopShare < 0.95 {
		t.Errorf("top-cause share %.4f, want > 0.95", res.TopShare)
	}
	if res.BootTraps < 300 {
		t.Errorf("boot produced only %d traps", res.BootTraps)
	}
	if len(res.Collector.Windows) < 2 {
		t.Errorf("expected multiple windows, got %d", len(res.Collector.Windows))
	}
	// Paper: 5500 traps/s during boot drop to 1.17 world switches per
	// second with offload — several orders of magnitude. Require at least
	// a factor of 50 here.
	if res.WorldSwitchRate > res.NativeTrapRate/50 {
		t.Errorf("offloaded world-switch rate %.1f/s too close to native trap rate %.1f/s",
			res.WorldSwitchRate, res.NativeTrapRate)
	}
}

// TestFig3TablesAligned checks both Fig. 3 tables: in every row, each
// right-aligned column ends at the same offset as its header's, the
// longest bucket names included.
func TestFig3TablesAligned(t *testing.T) {
	c := trace.NewCollector(0, func() uint64 { return 0 })
	counts := map[string]uint64{}
	for i, b := range trace.Buckets {
		counts[b] = uint64(1000 * (i + 1))
		c.Total[b] = counts[b]
		c.TrapsToM += counts[b]
	}
	c.Windows = []trace.Window{{Counts: counts}, {Counts: map[string]uint64{}}}

	// fieldEnds returns the end offset of every run of non-spaces.
	fieldEnds := func(line string) []int {
		var ends []int
		for i := range len(line) {
			if line[i] != ' ' && (i+1 == len(line) || line[i+1] == ' ') {
				ends = append(ends, i+1)
			}
		}
		return ends
	}
	// check skips each line's first column, which is left-aligned.
	check := func(table, header string, rows []string) {
		want := fieldEnds(header)
		for _, r := range rows {
			got := fieldEnds(r)
			if len(got) > len(want) || !slices.Equal(got[1:], want[1:len(got)]) {
				t.Errorf("%s: columns of %q end at %v, the header's at %v", table, r, got, want)
			}
		}
	}
	// Fig3Result.Format: a title, the header, a row per window, a summary.
	fig := strings.Split(strings.TrimSuffix((&Fig3Result{Collector: c}).Format(), "\n"), "\n")
	check("Fig3Result.Format", fig[1], fig[2:len(fig)-1])
	// Collector.Format: the header, a row per bucket, the total.
	tot := strings.Split(strings.TrimSuffix(c.Format(), "\n"), "\n")
	check("Collector.Format", tot[0], tot[1:])
}

func TestFig10CoreMarkProShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	res, err := Fig10(hart.VisionFive2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	for _, row := range res.Rows {
		// Paper: Miralis within noise of native; no-offload ~1.9% overhead
		// on CPU workloads. Allow generous bands.
		if row.Relative[Miralis] < 0.97 {
			t.Errorf("%s: miralis relative %.3f < 0.97", row.Workload, row.Relative[Miralis])
		}
		if row.Relative[MiralisNoOffload] < 0.80 || row.Relative[MiralisNoOffload] > 1.01 {
			t.Errorf("%s: no-offload relative %.3f outside (0.80, 1.01)",
				row.Workload, row.Relative[MiralisNoOffload])
		}
	}
}

func TestFig11IOzoneShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	res, err := Fig11(hart.VisionFive2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	for _, op := range []string{"read", "write"} {
		m := res.Throughput[op]
		if m[Miralis] < 0.97*m[Native] {
			t.Errorf("%s: miralis throughput %.1f below native %.1f", op, m[Miralis], m[Native])
		}
		// Paper: ~10.6% no-offload overhead on IOzone.
		if m[MiralisNoOffload] > 0.99*m[Native] {
			t.Errorf("%s: no-offload should show visible overhead (%.1f vs %.1f)",
				op, m[MiralisNoOffload], m[Native])
		}
		if m[MiralisNoOffload] < 0.60*m[Native] {
			t.Errorf("%s: no-offload overhead implausibly large (%.1f vs %.1f)",
				op, m[MiralisNoOffload], m[Native])
		}
	}
}

func TestFig12MemcachedLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	res, err := Fig12(hart.VisionFive2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	// Paper: Miralis at or slightly below native up to the 95th
	// percentile; no-offload roughly doubles the latency.
	for _, p := range []int{25, 50, 75, 90} {
		nat := res.PercentilesNs[Native][p]
		mir := res.PercentilesNs[Miralis][p]
		noo := res.PercentilesNs[MiralisNoOffload][p]
		if mir > 1.03*nat {
			t.Errorf("p%d: miralis %.0fns exceeds native %.0fns by >3%%", p, mir, nat)
		}
		if noo < 1.3*nat {
			t.Errorf("p%d: no-offload %.0fns should be much slower than native %.0fns",
				p, noo, nat)
		}
	}
}

func TestFig13ApplicationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	for name, mk := range map[string]func() *hart.Config{
		"visionfive2": hart.VisionFive2, "p550": hart.PremierP550,
	} {
		res, err := Fig13(mk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("\n%s", res.Format())
		byName := map[string]FigRow{}
		for _, r := range res.Rows {
			byName[r.Workload] = r
			if r.Relative[Miralis] < 0.97 {
				t.Errorf("%s/%s: miralis relative %.3f", name, r.Workload, r.Relative[Miralis])
			}
		}
		// The network-heavy workloads must suffer most without offload
		// (paper: up to 259% overhead on Redis, mild on GCC).
		if byName["redis"].Relative[MiralisNoOffload] >= byName["gcc"].Relative[MiralisNoOffload] {
			t.Errorf("%s: redis (%.3f) must lose more than gcc (%.3f) without offload",
				name, byName["redis"].Relative[MiralisNoOffload],
				byName["gcc"].Relative[MiralisNoOffload])
		}
		if byName["redis"].Relative[MiralisNoOffload] > 0.75 {
			t.Errorf("%s: redis no-offload relative %.3f too good — trap rate too low",
				name, byName["redis"].Relative[MiralisNoOffload])
		}
		// Trap-rate ordering mirrors the paper: memcached > redis > gcc.
		if byName["memcached"].TrapRate <= byName["redis"].TrapRate {
			t.Errorf("%s: memcached trap rate must exceed redis", name)
		}
		if byName["redis"].TrapRate <= byName["gcc"].TrapRate {
			t.Errorf("%s: redis trap rate must exceed gcc", name)
		}
	}
}

func TestFig14KeystoneRV8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	res, err := Fig14(hart.VisionFive2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	// Paper: ~1% average enclave overhead.
	if res.Average < 0.90 || res.Average > 1.02 {
		t.Errorf("average enclave relative %.3f outside (0.90, 1.02)", res.Average)
	}
	for _, r := range res.Rows {
		if r.Relative < 0.85 || r.Relative > 1.05 {
			t.Errorf("%s: enclave relative %.3f outside (0.85, 1.05)", r.Benchmark, r.Relative)
		}
	}
}

func TestBootTimeShape(t *testing.T) {
	res, err := BootTime(hart.VisionFive2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	nat, mir, noo := res.Seconds[Native], res.Seconds[Miralis], res.Seconds[MiralisNoOffload]
	// Paper: 48.0s vs 47.5s (≈1%) vs 61.3s (≈29%).
	if mir > 1.05*nat {
		t.Errorf("miralis boot %.4fs exceeds native %.4fs by >5%%", mir, nat)
	}
	if noo < 1.10*nat {
		t.Errorf("no-offload boot %.4fs should be well above native %.4fs", noo, nat)
	}
}

func TestTrapRateCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	// The synthetic applications must land near the paper's measured trap
	// rates (the quantity that drives every overhead result).
	r := &Runner{NewConfig: hart.VisionFive2}
	targets := map[string][2]float64{ // name -> [min, max] traps/s
		"redis":     {100_000, 600_000},
		"memcached": {150_000, 900_000},
		"gcc":       {1_000, 60_000},
	}
	for _, w := range Applications() {
		want, ok := targets[w.Name]
		if !ok {
			continue
		}
		met, err := r.Run(w, Native)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f traps/s (paper: redis 272k, memcached 388k)", w.Name, met.TrapRate)
		if met.TrapRate < want[0] || met.TrapRate > want[1] {
			t.Errorf("%s: trap rate %.0f outside [%.0f, %.0f]",
				w.Name, met.TrapRate, want[0], want[1])
		}
	}
}

func TestRVA23AblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	res, err := RVA23Ablation()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	// Without offload, the VisionFive 2 suffers badly while the
	// RVA23-class CPU runs at parity — the paper's §3.4 prediction.
	if res.NoOffloadRelative["visionfive2"] > 0.85 {
		t.Errorf("VF2 no-offload relative %.3f too good", res.NoOffloadRelative["visionfive2"])
	}
	if res.NoOffloadRelative["rva23"] < 0.99 {
		t.Errorf("RVA23 no-offload relative %.3f should be at parity", res.NoOffloadRelative["rva23"])
	}
	// The hardware features must eliminate nearly all world switches
	// (paper: time CSR + Sstc remove 96.5% of them).
	vf2, rva := res.NoOffloadSwitches["visionfive2"], res.NoOffloadSwitches["rva23"]
	if rva*20 > vf2 {
		t.Errorf("RVA23 world switches %d not <5%% of VF2's %d", rva, vf2)
	}
}

func TestOffloadAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	res, err := OffloadAblation(hart.VisionFive2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	// Each additional fast path must help (weakly), and the time-read
	// path alone must recover most of the gap — it is the dominant cause.
	prev := -1.0
	for _, name := range res.Order {
		if res.Relative[name] < prev-0.01 {
			t.Errorf("enabling more fast paths must not hurt: %s %.3f after %.3f",
				name, res.Relative[name], prev)
		}
		prev = res.Relative[name]
	}
	none, tr, all := res.Relative["none"], res.Relative["time-read"], res.Relative["all"]
	if (tr - none) < 0.25*(all-none) {
		t.Errorf("time-read offload must recover a large share of the gap: none=%.3f tr=%.3f all=%.3f",
			none, tr, all)
	}
	if all < 0.97 {
		t.Errorf("full offload must reach near-parity, got %.3f", all)
	}
}

// TestMultiHartWorkload: the monitor virtualizes all four cores at once —
// each hart gets its own context, virtual CSR file, and PMP multiplexing,
// and cross-hart IPIs flow through the virtual CLINT.
func TestMultiHartWorkload(t *testing.T) {
	cfg := hart.VisionFive2() // 4 harts
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.BuildGosbi(core.FirmwareBase, firmware.Options{
		OSEntry: core.OSBase, Harts: cfg.Harts, FirmwareSize: core.FirmwareSize,
	})
	kern := kernel.BuildBoot(core.OSBase, kernel.BootOptions{
		Harts: cfg.Harts, TimeReads: 50, TimerSets: 2, Misaligned: 10,
	})
	_ = m.LoadImage(core.FirmwareBase, fw.Bytes)
	_ = m.LoadImage(core.OSBase, kern)
	mon, err := core.Attach(m, core.Options{Offload: true, FirmwareEntry: core.FirmwareBase})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	m.Run(50_000_000)
	if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
		t.Fatalf("%v %q", ok, reason)
	}
	// Hart 1 was started through HSM and took the IPI round trip.
	if mon.Ctx[1].Stats.Emulations == 0 {
		t.Error("hart 1 must have been virtualized too")
	}
}
