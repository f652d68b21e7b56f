package fuzz

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ReplayJSON decodes a serialized test case and re-runs it in lockstep on
// an engine and its twin (runPair), returning the finding (nil when
// execution stays convergent). Engines are cached per profile: reproducer
// tests replay many cases and engine construction is the expensive part.
func ReplayJSON(data []byte) (*Finding, error) {
	var tc TestCase
	if err := json.Unmarshal(data, &tc); err != nil {
		return nil, fmt.Errorf("fuzz: bad test case: %w", err)
	}
	e, twin, err := cachedPair(tc.Profile)
	if err != nil {
		return nil, err
	}
	f, _ := runPair(e, twin, &tc)
	return f, nil
}

var (
	engineMu    sync.Mutex
	engineCache = map[string][2]*Engine{}
)

// cachedPair returns the profile's cached engine and twin (newPair).
func cachedPair(profile string) (e, twin *Engine, err error) {
	engineMu.Lock()
	defer engineMu.Unlock()
	if p, ok := engineCache[profile]; ok {
		return p[0], p[1], nil
	}
	if e, twin, err = newPair(profile); err != nil {
		return nil, nil, err
	}
	engineCache[profile] = [2]*Engine{e, twin}
	return e, twin, nil
}

// CaseHash returns a short content hash identifying a test case.
func CaseHash(tc *TestCase) string {
	data, _ := tc.Marshal()
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:6])
}

// WriteRepro emits a finding as a self-contained reproducer Go test file
// under dir (conventionally internal/verif/fuzz/testdata/repros — testdata
// is invisible to the go tool, so checked-in reproducers do not affect
// builds; TestReplayRepros extracts and replays their embedded cases).
// Committed reproducers are regression tests: they assert that the case no
// longer diverges, so they are checked in *after* the monitor fix.
func WriteRepro(dir string, f *Finding) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	hash := CaseHash(f.Case)
	data, err := f.Case.Marshal()
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("repro_%s_%s.go", f.Case.Profile, hash)
	path := filepath.Join(dir, name)

	src := fmt.Sprintf(`// Code generated by cmd/fuzzdiff; self-contained divergence reproducer.
//
// Divergence: %s at step %d (word %#08x)
//
%s// The embedded case must replay clean once the underlying bug is fixed;
// TestReplayRepros (and this test, if run directly) assert zero
// divergence.
package repros

import (
	"testing"

	"govfm/internal/verif/fuzz"
)

func TestRepro_%s(t *testing.T) {
	f, err := fuzz.ReplayJSON([]byte(reproCase_%s))
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("case still diverges:\n%%s", f)
	}
}

const reproCase_%s = %s%s%s
`, f.Where, f.Step, f.Word, deltaComment(f), hash, hash, hash, "`", data, "`")

	return path, os.WriteFile(path, []byte(src), 0o644)
}

func deltaComment(f *Finding) string {
	s := ""
	for _, d := range f.Deltas {
		s += "//   " + deltaString(d) + "\n"
	}
	if s != "" {
		s = "// Deltas at divergence:\n" + s + "//\n"
	}
	return s
}
