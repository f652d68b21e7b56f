package bench

import (
	"fmt"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/rv"
)

// Microbenchmarks for Tables 4 and 5: per-operation cycle costs measured
// by two-point differencing (run the loop with N1 and N2 operations and
// divide the cycle delta by the op delta), which cancels boot and loop
// overhead exactly.

// buildCsrwFirmware builds a minimal firmware that executes n emulated
// "csrw mscratch, x0" instructions (the paper's Table 4 probe) and halts.
func buildCsrwFirmware(base uint64, n int) []byte {
	a := asm.New(base)
	a.Label("start")
	a.Li(asm.S0, uint64(n))
	a.Beqz(asm.S0, "done")
	a.Label("loop")
	a.Csrw(rv.CSRMscratch, asm.X0) // traps to the monitor in vM-mode
	a.Addi(asm.S0, asm.S0, -1)
	a.Bnez(asm.S0, "loop")
	a.Label("done")
	a.Li(asm.T0, hart.ExitBase)
	a.Li(asm.T1, hart.ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// buildEcallKernel builds a kernel performing n SBI calls to an
// unsupported extension — the firmware's shortest path, measuring the full
// OS -> VFM -> firmware -> VFM -> OS round trip of Table 4.
func buildEcallKernel(base uint64, n int) []byte {
	a := asm.New(base)
	a.Li(asm.S0, uint64(n))
	a.Beqz(asm.S0, "done")
	a.Li(asm.A7, 0x0BADBEEF) // unknown extension: ENOTSUP immediately
	a.Li(asm.A6, 0)
	a.Label("loop")
	a.Ecall()
	a.Addi(asm.S0, asm.S0, -1)
	a.Bnez(asm.S0, "loop")
	a.Label("done")
	a.Li(asm.A0, 0)
	a.Li(asm.A7, rv.SBIExtReset)
	a.Li(asm.A6, 0)
	a.Ecall()
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// buildTimeReadKernel builds a kernel reading the time CSR n times in a
// tight loop (Table 5, "read time").
func buildTimeReadKernel(base uint64, n int) []byte {
	a := asm.New(base)
	a.Li(asm.S0, uint64(n))
	a.Beqz(asm.S0, "done")
	a.Label("loop")
	a.Csrr(asm.T0, rv.CSRTime)
	a.Addi(asm.S0, asm.S0, -1)
	a.Bnez(asm.S0, "loop")
	a.Label("done")
	a.Li(asm.A0, 0)
	a.Li(asm.A7, rv.SBIExtReset)
	a.Li(asm.A6, 0)
	a.Ecall()
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// buildIPIKernel builds a kernel sending n self-IPIs, taking the resulting
// supervisor software interrupt each time (Table 5, "IPI").
func buildIPIKernel(base uint64, n int) []byte {
	a := asm.New(base)
	a.La(asm.T0, "strap")
	a.Csrw(rv.CSRStvec, asm.T0)
	a.Li(asm.T0, 1<<rv.IntSSoft)
	a.Csrrs(asm.X0, rv.CSRSie, asm.T0)
	a.Li(asm.S0, uint64(n))
	a.Beqz(asm.S0, "done")
	a.Label("loop")
	a.La(asm.T0, "got_ipi")
	a.Sd(asm.X0, asm.T0, 0)
	a.Li(asm.A0, 1) // hart mask: self
	a.Li(asm.A1, 0)
	a.Li(asm.A7, rv.SBIExtIPI)
	a.Li(asm.A6, rv.SBIIPISendIPI)
	a.Ecall()
	a.Csrrsi(asm.X0, rv.CSRSstatus, 1<<rv.MstatusSIE)
	a.Label("wait")
	a.La(asm.T0, "got_ipi")
	a.Ld(asm.T1, asm.T0, 0)
	a.Beqz(asm.T1, "wait")
	a.Csrrci(asm.X0, rv.CSRSstatus, 1<<rv.MstatusSIE)
	a.Addi(asm.S0, asm.S0, -1)
	a.Bnez(asm.S0, "loop")
	a.Label("done")
	a.Li(asm.A0, 0)
	a.Li(asm.A7, rv.SBIExtReset)
	a.Li(asm.A6, 0)
	a.Ecall()
	a.Label("hang")
	a.J("hang")
	a.Label("strap")
	a.Li(asm.T0, 1<<rv.IntSSoft)
	a.Csrrc(asm.X0, rv.CSRSip, asm.T0)
	a.La(asm.T0, "got_ipi")
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.T0, 0)
	a.Sret()
	a.Align(8)
	a.Label("got_ipi")
	a.Space(8)
	return a.MustAssemble()
}

// setupFirmwareImage builds a machine with a raw firmware image loaded
// (no OS), booted through the monitor when virtualize is set, ready to run.
// Construction is separated from execution so a caller can pick the
// machine's host tiers before it runs.
func setupFirmwareImage(cfg *hart.Config, img []byte, virtualize bool) (*hart.Machine, error) {
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		return nil, err
	}
	if err := m.LoadImage(core.FirmwareBase, img); err != nil {
		return nil, err
	}
	if virtualize {
		mon, err := core.Attach(m, core.Options{FirmwareEntry: core.FirmwareBase})
		if err != nil {
			return nil, err
		}
		mon.Boot()
	} else {
		m.Reset(core.FirmwareBase)
	}
	return m, nil
}

// runFirmwareImage boots a raw firmware image (no OS) and returns hart-0
// cycles at halt.
func runFirmwareImage(cfg *hart.Config, img []byte, virtualize bool) (uint64, error) {
	m, err := setupFirmwareImage(cfg, img, virtualize)
	if err != nil {
		return 0, err
	}
	if err := runToPass(m, 500_000_000); err != nil {
		return 0, fmt.Errorf("micro firmware run: %w", err)
	}
	return m.Harts[0].Cycles, nil
}

// setupKernelImage builds a machine with gosbi + a kernel image loaded in
// the given mode, ready to run.
func setupKernelImage(newCfg func() *hart.Config, kern []byte, mode Mode) (*hart.Machine, error) {
	m, _, err := bootGosbi(newCfg, kern, monitorOptions(mode))
	return m, err
}

// runKernelImage boots gosbi + a kernel image in the given mode and
// returns hart-0 cycles at halt.
func runKernelImage(newCfg func() *hart.Config, kern []byte, mode Mode) (uint64, error) {
	m, err := setupKernelImage(newCfg, kern, mode)
	if err != nil {
		return 0, err
	}
	if err := runToPass(m, 2_000_000_000); err != nil {
		return 0, fmt.Errorf("micro kernel run: %w", err)
	}
	return m.Harts[0].Cycles, nil
}

// perOp returns the per-operation cycle cost by two-point differencing.
func perOp(c1, c2 uint64, n1, n2 int) float64 {
	return float64(c2-c1) / float64(n2-n1)
}

// Table4Result holds the Miralis operation costs (paper Table 4).
type Table4Result struct {
	Platform          string
	EmulationCycles   float64 // one emulated "csrw mscratch, x0"
	WorldSwitchCycles float64 // full OS->VFM->firmware->VFM->OS round trip
}

// Table4 measures instruction-emulation and world-switch costs.
func Table4(newCfg func() *hart.Config) (*Table4Result, error) {
	const n1, n2 = 200, 1800
	cfg := newCfg()
	c1, err := runFirmwareImage(newCfg(), buildCsrwFirmware(core.FirmwareBase, n1), true)
	if err != nil {
		return nil, err
	}
	c2, err := runFirmwareImage(newCfg(), buildCsrwFirmware(core.FirmwareBase, n2), true)
	if err != nil {
		return nil, err
	}
	emu := perOp(c1, c2, n1, n2)

	k1, err := runKernelImage(newCfg, buildEcallKernel(core.OSBase, n1), Miralis)
	if err != nil {
		return nil, err
	}
	k2, err := runKernelImage(newCfg, buildEcallKernel(core.OSBase, n2), Miralis)
	if err != nil {
		return nil, err
	}
	ws := perOp(k1, k2, n1, n2)
	return &Table4Result{Platform: cfg.Name, EmulationCycles: emu, WorldSwitchCycles: ws}, nil
}

// Table5Result holds the time-read and IPI costs in nanoseconds for the
// three system configurations (paper Table 5).
type Table5Result struct {
	Platform string
	ReadTime map[Mode]float64 // ns per op
	IPI      map[Mode]float64 // ns per op
}

// Table5 measures the cost of the two hottest offloaded operations.
func Table5(newCfg func() *hart.Config) (*Table5Result, error) {
	const n1, n2 = 500, 4500
	cfg := newCfg()
	res := &Table5Result{
		Platform: cfg.Name,
		ReadTime: make(map[Mode]float64),
		IPI:      make(map[Mode]float64),
	}
	for _, mode := range Modes {
		c1, err := runKernelImage(newCfg, buildTimeReadKernel(core.OSBase, n1), mode)
		if err != nil {
			return nil, err
		}
		c2, err := runKernelImage(newCfg, buildTimeReadKernel(core.OSBase, n2), mode)
		if err != nil {
			return nil, err
		}
		res.ReadTime[mode] = NsPerOp(cfg, perOp(c1, c2, n1, n2))

		i1, err := runKernelImage(newCfg, buildIPIKernel(core.OSBase, n1/5), mode)
		if err != nil {
			return nil, err
		}
		i2, err := runKernelImage(newCfg, buildIPIKernel(core.OSBase, n2/5), mode)
		if err != nil {
			return nil, err
		}
		res.IPI[mode] = NsPerOp(cfg, perOp(i1, i2, n1/5, n2/5))
	}
	return res, nil
}
