package govfm_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guardedDocs are the documents whose file paths and quick-start flags
// TestDocReferences keeps in step with the tree.
var guardedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// docPath matches a repository path in prose, with or without a
	// leading "./".
	docPath = regexp.MustCompile(`(?:^|[^\w/-])(?:\./)?((?:cmd|internal|scripts|examples)/[\w./-]*)`)
	// goRunCmd matches a command line that runs one of the cmd/ tools.
	goRunCmd = regexp.MustCompile(`go run \./cmd/([\w-]+)(.*)`)
	// cliFlag matches a flag on a command line.
	cliFlag = regexp.MustCompile(`(?:^|\s)--?([a-zA-Z][\w-]*)`)
)

// TestDocReferences fails when a guarded document names a cmd/, internal/,
// scripts/ or examples/ path that does not exist, or when a README
// `go run ./cmd/<name>` line passes a flag that cmd/<name> does not
// register.
func TestDocReferences(t *testing.T) {
	for _, doc := range guardedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPath.FindAllStringSubmatch(string(data), -1) {
			p := strings.TrimRight(m[1], ".")
			// In internal/hart.CostModel the part after the dot names a
			// package member: only the directory has to exist.
			if dir, member, ok := strings.Cut(p, "."); ok && member != "" &&
				member[0] >= 'A' && member[0] <= 'Z' {
				p = dir
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s mentions %s, which does not exist", doc, m[1])
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(readme), "\n") {
		m := goRunCmd.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, rest := m[1], m[2]
		if i := strings.IndexAny(rest, "#|&>;`"); i >= 0 {
			rest = rest[:i]
		}
		src := cmdSource(t, name)
		if src == "" {
			t.Errorf("README runs cmd/%s, which has no Go source: %s", name, strings.TrimSpace(line))
			continue
		}
		for _, f := range cliFlag.FindAllStringSubmatch(rest, -1) {
			if !regexp.MustCompile(`\.[A-Z]\w*\("` + regexp.QuoteMeta(f[1]) + `",`).MatchString(src) {
				t.Errorf("README runs cmd/%s with -%s, which it does not register: %s",
					name, f[1], strings.TrimSpace(line))
			}
		}
	}
}

// cmdSource returns the concatenated non-test Go source of cmd/<name>.
func cmdSource(t *testing.T, name string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.String()
}
