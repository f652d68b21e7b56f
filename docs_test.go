package govfm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guardedDocs are the documents whose file paths, Go identifiers, test
// names and command-line flags TestDocReferences keeps in step with the
// tree.
var guardedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// guardedScripts are the files whose `go run ./cmd/<name>` lines
// TestDocReferences checks for unregistered flags.
var guardedScripts = []string{"scripts/verify.sh", ".github/workflows/*.yml"}

var (
	// docPath matches a repository path in prose, with or without a
	// leading "./".
	docPath = regexp.MustCompile(`(?:^|[^\w/-])(?:\./)?((?:cmd|internal|scripts|examples)/[\w./-]*)`)
	// docCmd matches a mention of one of the cmd/ tools in a document;
	// goRunCmd matches a script line that runs one.
	docCmd   = regexp.MustCompile(`\b(rvsim|fuzzdiff|benchall)\b`)
	goRunCmd = regexp.MustCompile(`go run \./cmd/([\w-]+)`)
	// cliFlag matches a whole token that is a flag, with or without a value.
	cliFlag = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)(?:=.*)?$`)
	// fence matches a fenced code block; docCode matches inline code.
	fence   = regexp.MustCompile("(?s)```.*?```")
	docCode = regexp.MustCompile("`([^`\n]+)`")
	// goMember matches inline code that is exactly X.Y or X.Y().
	goMember = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\(\))?$`)
	// testName matches a test, benchmark or fuzz target name, or the
	// prefix of one used as a -run or -bench pattern.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
)

// TestDocReferences fails when a guarded document names a cmd/, internal/,
// scripts/ or examples/ path that does not exist; names in inline code a
// `X.Y` (or `X.Y()`) whose X is a package or type of the module but whose
// Y is neither a top-level declaration of package X nor a field or method
// of a type named X; or names a Test/Benchmark/Fuzz function that no test
// file declares (a name counts when it prefixes a declared one, as a -run
// pattern does). It also fails when a guarded document mentions a tool
// with a flag that cmd/<name> does not register (`rvsim -flag`, inline
// code included), or a guarded script's `go run ./cmd/<name>` line passes
// one.
func TestDocReferences(t *testing.T) {
	ix := indexModule(t)
	for _, doc := range guardedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := fence.ReplaceAllString(string(data), "")
		for _, m := range docCode.FindAllStringSubmatch(prose, -1) {
			id := goMember.FindStringSubmatch(m[1])
			if id == nil {
				continue
			}
			x, y := id[1], id[2]
			decls, isPkg := ix.decls[x]
			members, isType := ix.members[x]
			if (isPkg || isType) && !decls[y] && !members[y] {
				t.Errorf("%s mentions `%s`, but %s declares no %s", doc, m[1], x, y)
			}
		}
		for _, name := range testName.FindAllString(string(data), -1) {
			if !ix.hasTestPrefix(name) {
				t.Errorf("%s mentions %s, which prefixes no test, benchmark or fuzz function", doc, name)
			}
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
		checkFlags(t, doc, string(data), docCmd)
	}

	for _, pattern := range guardedScripts {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s matches no file (%v)", pattern, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			// Join continued lines, so a command's later flags stay on its line.
			checkFlags(t, file, strings.ReplaceAll(string(data), "\\\n", " "), goRunCmd)
		}
	}
}

// checkFlags fails the test for every flag that text passes a cmd/ tool,
// named by cmd's first group, and that the tool does not register. The
// flags are the run of tokens after the name, up to the first that is
// neither a flag nor a flag's value, on the same line and before any of
// "`#|&>;)".
func checkFlags(t *testing.T, file, text string, cmd *regexp.Regexp) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		for _, m := range cmd.FindAllStringSubmatchIndex(line, -1) {
			name, rest := line[m[2]:m[3]], line[m[1]:]
			if i := strings.IndexAny(rest, "`#|&>;)"); i >= 0 {
				rest = rest[:i]
			}
			if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
				continue // cmd/rvsim/main.go, rvsim's, fuzzdiff-mode
			}
			src := cmdSource(t, name)
			if src == "" {
				t.Errorf("%s runs cmd/%s, which has no Go source: %s", file, name, strings.TrimSpace(line))
				continue
			}
			afterFlag := false
			for _, tok := range strings.Fields(rest) {
				f := cliFlag.FindStringSubmatch(tok)
				if f == nil {
					if !afterFlag || strings.HasPrefix(tok, "-") {
						break
					}
					afterFlag = false // the flag's value
					continue
				}
				afterFlag = true
				if !regexp.MustCompile(`\.[A-Z]\w*\("` + regexp.QuoteMeta(f[1]) + `",`).MatchString(src) {
					t.Errorf("%s passes cmd/%s -%s, which it does not register: %s",
						file, name, f[1], strings.TrimSpace(line))
				}
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

// goIndex is what TestDocReferences knows of the module's Go code.
type goIndex struct {
	decls   map[string]map[string]bool // package name -> top-level names
	members map[string]map[string]bool // type name -> field and method names
	tests   []string                   // Test*, Benchmark* and Fuzz* functions
}

// hasTestPrefix reports whether some test function's name starts with name.
func (ix *goIndex) hasTestPrefix(name string) bool {
	for _, fn := range ix.tests {
		if strings.HasPrefix(fn, name) {
			return true
		}
	}
	return false
}

// indexModule parses every Go file of the module (nested modules and
// testdata excluded) into a goIndex.
func indexModule(t *testing.T) *goIndex {
	t.Helper()
	ix := &goIndex{decls: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		if v != "" {
			m[k][v] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					add(ix.members, typeName(d.Recv.List[0].Type), d.Name.Name)
					continue
				}
				add(ix.decls, pkg, d.Name.Name)
				if strings.HasSuffix(path, "_test.go") && testName.MatchString(d.Name.Name) {
					ix.tests = append(ix.tests, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(ix.decls, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(ix.decls, pkg, s.Name.Name)
						add(ix.members, s.Name.Name, "")
						var fields []*ast.Field
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields.List
						case *ast.InterfaceType:
							fields = tt.Methods.List
						}
						for _, fl := range fields {
							for _, n := range fl.Names {
								add(ix.members, s.Name.Name, n.Name)
							}
							if len(fl.Names) == 0 { // embedded
								add(ix.members, s.Name.Name, typeName(fl.Type))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// typeName returns the bare type name of a receiver or embedded field
// expression (T, *T, pkg.T, T[P]).
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}
