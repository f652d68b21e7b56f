package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
)

// passImage writes a raw program that stores the pass code to the exit
// device, assembled at the default -base.
func passImage(t *testing.T) string {
	t.Helper()
	a := asm.New(core.FirmwareBase)
	a.Li(asm.T6, hart.ExitBase)
	a.Li(asm.T5, hart.ExitPass)
	a.Sd(asm.T5, asm.T6, 0)
	a.Label("spin")
	a.J("spin")
	path := filepath.Join(t.TempDir(), "pass.bin")
	if err := os.WriteFile(path, a.MustAssemble(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		want    []string // substrings of stdout
		notWant []string
	}{
		{name: "default", code: 0,
			want: []string{`reason="guest-exit-pass"`, "cycles=75675 instret=5286", "monitor: "}},
		{name: "rtos", args: []string{"-firmware", "rtos"}, code: 0,
			want: []string{"cycles=39044", "monitor: emulations=52 world-switches=4"}},
		{name: "native-rtos", args: []string{"-native", "-firmware", "rtos"}, code: 0,
			want: []string{"cycles=10258"}, notWant: []string{"monitor:"}},
		{name: "minsbi-keystone", args: []string{"-firmware", "minsbi", "-policy", "keystone"}, code: 0,
			want: []string{"cycles=73095", "monitor: emulations=90 world-switches=22 fast-path=23"}},
		{name: "rtos-sandbox", args: []string{"-firmware", "rtos", "-policy", "sandbox"}, code: 1,
			notWant: []string{"cycles="}},
		{name: "bad-policy", args: []string{"-policy", "bogus"}, code: 2},
		{name: "bad-platform", args: []string{"-platform", "bogus"}, code: 2},
		{name: "bad-firmware", args: []string{"-firmware", "bogus"}, code: 2},
		{name: "bad-flag", args: []string{"-bogus"}, code: 2},
		{name: "image", args: []string{"-image", passImage(t)}, code: 0,
			want: []string{`reason="guest-exit-pass"`}, notWant: []string{"monitor:"}},
		{name: "step-budget", args: []string{"-max-steps", "10"}, code: 1,
			want: []string{"steps=10 halted=false"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s%s", code, tc.code, out.String(), errw.String())
			}
			for _, s := range tc.want {
				if !strings.Contains(out.String(), s) {
					t.Errorf("output lacks %q:\n%s", s, out.String())
				}
			}
			for _, s := range tc.notWant {
				if strings.Contains(out.String(), s) {
					t.Errorf("output has %q:\n%s", s, out.String())
				}
			}
		})
	}
}

// TestRunFlushesCPUProfile checks that a failing run still writes its
// CPU profile.
func TestRunFlushesCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	var out, errw bytes.Buffer
	if code := run([]string{"-max-steps", "10", "-cpuprofile", path}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, errw.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile not flushed: %v", err)
	}
}
