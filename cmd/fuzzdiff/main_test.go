package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	var out, errw bytes.Buffer

	if code := run([]string{"-profile", "bogus"}, &out, &errw); code != 2 {
		t.Errorf("unknown profile: exit %d, want 2", code)
	}
	if code := run([]string{"-bad-flag"}, &out, &errw); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	for _, b := range []string{"0", "-5"} {
		if code := run([]string{"-budget", b}, &out, &errw); code != 2 {
			t.Errorf("-budget %s: exit %d, want 2", b, code)
		}
	}
	// Two modes at once run neither: the error names both flags.
	for _, args := range [][]string{{"-equiv", "9", "-tee", "5"}, {"-smoke", "-chaos", "1"}} {
		errw.Reset()
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-") && !strings.Contains(errw.String(), a) {
				t.Errorf("%v: message does not name %s: %q", args, a, errw.String())
			}
		}
	}

	// A flag the mode would ignore, a count that runs nothing, and -smoke
	// with the seed or profile it pins: each exits 2, naming the flag.
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"-equiv", "9", "-budget", "5"}, "-budget"},
		{[]string{"-hext", "5", "-repros", t.TempDir(), "-budget", "9"}, "-budget"},
		{[]string{"-chaos", "-3"}, "-chaos -3"},
		{[]string{"-equiv", "0"}, "-equiv 0"},
		{[]string{"-smoke", "-seed", "3"}, "-seed"},
		{[]string{"-smoke", "-profile", "vf2"}, "-profile"},
	} {
		errw.Reset()
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errw.String(), tc.name) {
			t.Errorf("%v: message does not name %s: %q", tc.args, tc.name, errw.String())
		}
	}

	out.Reset()
	code := run([]string{"-profile", "vf2", "-seed", "3", "-budget", "2000",
		"-repros", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Errorf("short clean run: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "0 divergence(s)") {
		t.Errorf("summary missing: %s", out.String())
	}
}

func TestRunInjectMode(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-profile", "vf2", "-seed", "5", "-inject", "6"}, &out, &errw)
	if code != 0 {
		t.Errorf("inject mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "inject: cases=6") {
		t.Errorf("inject summary missing: %s", out.String())
	}
}

func TestRunEquivMode(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-profile", "vf2", "-equiv", "9"}, &out, &errw)
	if code != 0 {
		t.Errorf("equiv mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "equiv: 9 cases (6 multi-hart)") {
		t.Errorf("equiv summary missing: %s", out.String())
	}
}

func TestRunChaosMode(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-profile", "vf2", "-chaos", "1"}, &out, &errw)
	if code != 0 {
		t.Errorf("chaos mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	// Eight combos on one platform (rtos x sandbox is rejected) per deck.
	for _, deck := range []string{"classic", "tee"} {
		rows := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, deck+" ") && strings.Contains(line, "inj=1 ") {
				rows++
			}
		}
		if rows != 8 {
			t.Errorf("%d %s rows, want 8:\n%s", rows, deck, out.String())
		}
		if !strings.Contains(out.String(), deck+" total: 8 injected") {
			t.Errorf("%s total missing: %s", deck, out.String())
		}
	}
}
