package ekho_test

import (
	"bytes"
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

// designRef matches a citation of a DESIGN.md section, also when a
// comment's line break falls between the file name and the section sign.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]*§(\d+)`)

// Every "DESIGN.md §N" cited in Go source outside benchmark/ and
// testdata/, in README.md and in EXPERIMENTS.md names a "## N." heading
// of DESIGN.md.
func TestDesignSectionRefsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	files, err := repoFiles(".")
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, path := range files {
		cited := path == "README.md" || path == "EXPERIMENTS.md" ||
			strings.HasSuffix(path, ".go") && !strings.HasPrefix(path, "benchmark"+string(filepath.Separator))
		if !cited {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllSubmatchIndex(b, -1) {
			refs++
			if n := string(b[m[2]:m[3]]); !sections[n] {
				line := 1 + bytes.Count(b[:m[0]], []byte("\n"))
				t.Errorf("%s:%d cites DESIGN.md §%s, which has no \"## %s.\" heading", path, line, n, n)
			}
		}
	}
	if refs == 0 {
		t.Error("found no DESIGN.md §N citation; the pattern no longer matches how they are written")
	}
}

// Every name DESIGN.md sets in backticks, outside its fenced blocks,
// exists in the repository:
//
//   - a dotted Go name (`pkg.Type.Method`, `Type.Field`, `name`) is
//     declared: a package-level func, method, type, var or const, or a
//     struct field or interface method, in the named package when the
//     first part names one, and anywhere otherwise;
//   - a name that no Go declaration has appears in the Go or JSON sources
//     as a string literal (an experiment id, `fig11`), and one with an
//     underscore (a metric or a JSON key) or an HTTP path (`/metrics`)
//     anywhere in them;
//   - a repository path (`internal/hub`, `BENCH_e2e.json`, `detector.go`)
//     is a file or directory, found by base name when it has no slash;
//   - a binary (`ekho-server`) is a directory under cmd/.
//
// Other spans (formulas, command lines, flags) are not checked.
func TestDesignNamesExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design = regexp.MustCompile("(?ms)^```.*?^```").ReplaceAll(design, nil)
	files, err := repoFiles(".")
	if err != nil {
		t.Fatal(err)
	}
	var goFiles []string
	var sources bytes.Buffer
	bases := map[string]bool{}
	for _, path := range files {
		bases[filepath.Base(path)] = true
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".json") {
			continue
		}
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources.Write(b)
	}
	pkgDecls, allDecls, err := declaredNames(goFiles)
	if err != nil {
		t.Fatal(err)
	}
	goName := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	fileName := regexp.MustCompile(`^[\w.-]+\.(go|json|md|txt|yml)$`)
	repoPath := regexp.MustCompile(`^[\w.-]+(/[\w.-]*)+$`)
	binary := regexp.MustCompile(`^ekho-[a-z]+$`)
	checked, skipped := 0, []string(nil)
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllSubmatch(design, -1) {
		span := strings.Join(strings.Fields(string(m[1])), " ")
		ok := true
		switch {
		case fileName.MatchString(span):
			ok = bases[span]
		case goName.MatchString(span):
			parts := strings.Split(strings.TrimSuffix(span, "()"), ".")
			decls := allDecls
			if pkg, isPkg := pkgDecls[parts[0]]; isPkg {
				decls, parts = pkg, parts[1:]
			}
			for _, p := range parts {
				ok = ok && decls[p]
			}
			if !ok {
				ok = bytes.Contains(sources.Bytes(), []byte(`"`+span+`"`)) ||
					strings.Contains(span, "_") && bytes.Contains(sources.Bytes(), []byte(span))
			}
		case strings.HasPrefix(span, "/") && !strings.Contains(span, " "):
			ok = bytes.Contains(sources.Bytes(), []byte(span))
		case repoPath.MatchString(span):
			_, err := os.Stat(span)
			ok = err == nil
		case binary.MatchString(span):
			_, err := os.Stat(filepath.Join("cmd", span))
			ok = err == nil
		default:
			skipped = append(skipped, span)
			continue
		}
		checked++
		if !ok {
			t.Errorf("DESIGN.md names `%s`, which the repository does not have", span)
		}
	}
	t.Logf("%d backticked names checked; %d other spans skipped: %s", checked, len(skipped), strings.Join(skipped, " | "))
}

// repoFiles lists the files under root, skipping dot directories and
// root's testdata/ tree (the reachability gate's fixture module).
func repoFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "testdata")) {
				return filepath.SkipDir
			}
			return nil
		}
		out = append(out, path)
		return nil
	})
	return out, err
}

// declaredNames parses the Go files and returns the names each package
// declares (keyed by package name, a _test suffix dropped) and the union
// of them all.
func declaredNames(files []string) (map[string]map[string]bool, map[string]bool, error) {
	pkgs, all := map[string]map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if pkgs[name] == nil {
			pkgs[name] = map[string]bool{}
		}
		add := func(id *ast.Ident) {
			pkgs[name][id.Name] = true
			all[id.Name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
						ast.Inspect(spec.Type, func(n ast.Node) bool {
							switch n := n.(type) {
							case *ast.FuncType:
								return false // parameter names are not fields
							case *ast.Field:
								for _, id := range n.Names {
									add(id)
								}
							}
							return true
						})
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	return pkgs, all, nil
}
