package ekho_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachExceptions lists the internal declarations the reachability gate
// tolerates although no binary reaches them, each with its reason. Keep it
// at ten entries or fewer: the fix for an unreached declaration is to
// delete it or move it into a _test.go file.
var reachExceptions = map[string]string{}

// Every top-level declaration in internal/ is reached from a binary: a
// main in cmd/*, examples/* or benchmark/, an init function, a
// package-level var initialiser, or the exported API of the ekho facade.
// Code that only tests reach belongs in a _test.go file.
func TestEveryInternalDeclReachable(t *testing.T) {
	if len(reachExceptions) > 10 {
		t.Errorf("%d reachability exceptions; at most 10 are allowed", len(reachExceptions))
	}
	l, err := rootPkgs()
	if err != nil {
		t.Fatal(err)
	}
	unreached := unreachedDecls(l, ".")
	seen := map[string]bool{}
	for _, d := range unreached {
		seen[d.key] = true
		if _, ok := reachExceptions[d.key]; !ok {
			t.Errorf("%s: %s is reached from no binary", d.pos, d.key)
		}
	}
	for key := range reachExceptions {
		if !seen[key] {
			t.Errorf("reachability exception %s is stale: the declaration is reached or gone", key)
		}
	}
}

// The gate against a fixture module whose verdicts are known.
func TestReachGateFixture(t *testing.T) {
	root := filepath.Join("testdata", "reach")
	l, err := loadReachPkgs(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unreachedDecls(l, root) {
		got = append(got, d.key)
	}
	want := []string{
		"internal/lib.T.Unused", // an unreferenced method
		"internal/lib.Unused",   // an unreferenced exported func
		"internal/lib.helper",   // called only from a flagged func
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %q, want %q", got, want)
	}
}

// reachStdMethods names the methods of standard interfaces a value
// satisfies without the source naming the interface: fmt's Stringer and
// Formatter, net.Addr, io's readers and writers, sort and heap, flag.Value,
// json's marshallers and errors' unwrapping.
var reachStdMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"Network", "Read", "Write", "Close", "ReadFrom", "WriteTo",
	"Len", "Less", "Swap", "Push", "Pop", "Set", "Get",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText", "ServeHTTP",
}

type reachDecl struct {
	key string // package directory relative to the root, dot, name
	pos token.Position
}

type reachPkg struct {
	path, dir string
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
}

type reachNode struct {
	reachDecl
	internal bool
	syntax   []ast.Node     // the declaration's syntax, whose uses it reaches
	also     []types.Object // further declarations it reaches
	info     *types.Info
}

// reachLoader parses and type-checks every non-test package under a root
// for linux, resolving imports of the root's modules (including nested
// ones) to their directories and everything else from GOROOT source.
type reachLoader struct {
	fset *token.FileSet
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.pkg == nil {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

func modulePath(gomod string) string {
	f, err := os.Open(gomod)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

func loadReachPkgs(root string) (*reachLoader, error) {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = "linux", "amd64"
	l := &reachLoader{fset: token.NewFileSet(), pkgs: map[string]*reachPkg{}, std: importer.ForCompiler(token.NewFileSet(), "source", nil)}
	type module struct{ path, dir string }
	modOf := map[string]module{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			mod := modOf[filepath.Dir(path)]
			if mp := modulePath(filepath.Join(path, "go.mod")); mp != "" {
				mod = module{mp, path}
			}
			modOf[path] = mod
			return nil
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := ctx.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		mod := modOf[dir]
		ip := mod.path
		if rel, _ := filepath.Rel(mod.dir, dir); rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		p := l.pkgs[ip]
		if p == nil {
			p = &reachPkg{path: ip, dir: dir}
			l.pkgs[ip] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range l.pkgs {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// rootPkgs loads the repository's packages once for every gate in this
// file.
var rootPkgs = sync.OnceValues(func() (*reachLoader, error) { return loadReachPkgs(".") })

// unreachedDecls returns the top-level declarations of the internal
// packages loaded from root that no root reaches, sorted by key. A declaration
// reaches every object its syntax uses (generic instances count as their
// origin), and a reached type reaches each of its methods whose name is a
// method of some interface: one declared or named in the source, or a
// standard one in reachStdMethods.
func unreachedDecls(l *reachLoader, root string) []reachDecl {
	topModule := modulePath(filepath.Join(root, "go.mod"))
	nodes := map[types.Object]*reachNode{}
	methods := map[types.Object][]types.Object{}
	ifaceMethods := map[string]bool{}
	for _, name := range reachStdMethods {
		ifaceMethods[name] = true
	}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	var roots []types.Object
	var inits []*reachNode // package-level var initialisers, which run at start-up
	for _, p := range l.pkgs {
		rel, _ := filepath.Rel(root, p.dir)
		rel = filepath.ToSlash(rel)
		internal := strings.HasPrefix(rel, "internal/") || strings.Contains(rel, "/internal/")
		facade := p.path == topModule
		for _, obj := range p.info.Uses {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		add := func(obj types.Object, name string, api bool, syntax ...ast.Node) {
			nodes[obj] = &reachNode{reachDecl: reachDecl{rel + "." + name, l.fset.Position(obj.Pos())}, internal: internal, syntax: syntax, info: p.info}
			if facade && api {
				roots = append(roots, obj)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(p.info.Types[it].Type)
				}
				return true
			})
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					name, api := d.Name.Name, obj.Exported()
					if d.Recv != nil {
						recv := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						tn := recv.(*types.Named).Obj()
						methods[tn] = append(methods[tn], obj)
						name, api = tn.Name()+"."+name, api && tn.Exported()
					}
					add(obj, name, api, d)
					if d.Recv == nil && (name == "init" || name == "main" && p.pkg.Name() == "main") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					var group []types.Object // an iota block stands or falls whole
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(p.info.Defs[s.Name], s.Name.Name, s.Name.IsExported(), s)
						case *ast.ValueSpec:
							var syntax []ast.Node
							if s.Type != nil {
								syntax = append(syntax, s.Type)
							}
							for _, v := range s.Values {
								syntax = append(syntax, v)
							}
							if d.Tok == token.VAR && len(s.Values) > 0 {
								inits = append(inits, &reachNode{syntax: syntax, info: p.info})
							}
							for _, id := range s.Names {
								if id.Name != "_" {
									obj := p.info.Defs[id]
									add(obj, id.Name, id.IsExported(), syntax...)
									group = append(group, obj)
								}
							}
						}
					}
					if d.Tok == token.CONST && usesIota(d) {
						for _, obj := range group {
							nodes[obj].also = group
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if nodes[obj] != nil && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	visit := func(n *reachNode) {
		for _, obj := range n.also {
			mark(obj)
		}
		for _, syntax := range n.syntax {
			ast.Inspect(syntax, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.Ident:
					if obj := n.info.Uses[x]; obj != nil {
						mark(obj)
					}
				case *ast.SelectorExpr:
					if sel := n.info.Selections[x]; sel != nil {
						mark(sel.Obj())
					}
				}
				return true
			})
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	for _, n := range inits {
		visit(n)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		visit(nodes[obj])
		for _, m := range methods[obj] {
			if ifaceMethods[m.Name()] {
				mark(m)
			}
		}
	}

	var out []reachDecl
	for obj, n := range nodes {
		if n.internal && !reached[obj] {
			out = append(out, n.reachDecl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// The ratchet holds what simplicity work has shrunk to its checked-in
// ceiling in testdata/ratchet.json:
//
//   - non_test_lines: lines of non-test Go outside benchmark/ and
//     testdata/, as `find . -name '*.go' ! -name '*_test.go' ! -path
//     './benchmark/*' ! -path './testdata/*' | xargs wc -l` counts them;
//   - settable_values: the exported fields of every struct type under
//     internal/ named Config or Scenario or ending in one of them, plus
//     every flag a package in cmd/ or benchmark/ defines;
//   - design_md_bytes: the size of DESIGN.md, so that the document does
//     not grow back into a change log unreviewed.
//
// A count above its entry fails. Raising an entry is a reviewed change
// with its reason in CHANGES.md. A count below its entry is logged, so the
// change that shrank it lowers the entry too.
func TestRatchet(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "ratchet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ceiling map[string]int
	if err := json.Unmarshal(raw, &ceiling); err != nil {
		t.Fatal(err)
	}
	l, err := rootPkgs()
	if err != nil {
		t.Fatal(err)
	}
	lines, err := nonTestLines(".")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{
		"non_test_lines":  lines,
		"settable_values": settableValues(l, "."),
		"design_md_bytes": int(design.Size()),
	}
	for name, n := range got {
		limit, ok := ceiling[name]
		switch {
		case !ok:
			t.Errorf("testdata/ratchet.json has no %q entry (count %d)", name, n)
		case n > limit:
			t.Errorf("%s rose to %d, above its ratchet of %d", name, n, limit)
		case n < limit:
			t.Logf("%s fell to %d: lower its entry in testdata/ratchet.json from %d", name, n, limit)
		}
	}
}

// nonTestLines counts the newlines in every non-test .go file under root,
// skipping root's benchmark/ and testdata/ trees.
func nonTestLines(root string) (int, error) {
	skip := map[string]bool{filepath.Join(root, "benchmark"): true, filepath.Join(root, "testdata"): true}
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		n += bytes.Count(b, []byte("\n"))
		return err
	})
	return n, err
}

// flagDefiners are the flag package's functions and FlagSet methods that
// define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// settableValues counts what a user can set: the exported fields of the
// Config and Scenario structs under root's internal/, and the flags
// defined in its cmd/ and benchmark/ packages.
func settableValues(l *reachLoader, root string) int {
	n := 0
	for _, p := range l.pkgs {
		rel, _ := filepath.Rel(root, p.dir)
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "internal/") {
			scope := p.pkg.Scope()
			for _, name := range scope.Names() {
				if !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Scenario") {
					continue
				}
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						n++
					}
				}
			}
		}
		if rel == "benchmark" || strings.HasPrefix(rel, "benchmark/") || strings.HasPrefix(rel, "cmd/") {
			for _, f := range p.files {
				ast.Inspect(f, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
								fn.Pkg().Path() == "flag" && flagDefiners[fn.Name()] {
								n++
							}
						}
					}
					return true
				})
			}
		}
	}
	return n
}
