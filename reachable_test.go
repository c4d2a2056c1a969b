package fpsping_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the top-level functions and methods that no binary
// reaches but that stay in non-test code, each with the reason a _test.go
// file cannot hold it. Keys are "dir.Func" or "dir.Type.Method", dir
// relative to the repository root.
var reachAllow = map[string]string{
	"internal/dist.SampleN":               "sampling fixture of the tests in five packages",
	"internal/dist.NewMixture":            "law fixture of the dist and fit tests",
	"internal/queueing.MD1.WaitTailExact": "exact M/D/1 tail netsim's TestLinkMD1AgainstAnalytic checks the simulator against",
	"internal/queueing.MD1.MeanWait":      "exact M/D/1 mean netsim's TestLinkMD1AgainstAnalytic checks the simulator against",
	"internal/netsim.NewWFQ":              "WFQ scheduler the root BenchmarkWFQIsolation builds; no binary sets netsim's scheduler knob",
}

// stdlibProbes lists, per standard-library package, the interfaces its
// functions look for by type assertion on values handed to them as any or
// error. Reaching a function of the package uses these interfaces.
var stdlibProbes = map[string][]string{
	"fmt":           {"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter", "error"},
	"log":           {"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter", "error"},
	"errors":        {"interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"},
	"encoding/json": {"json.Marshaler", "json.Unmarshaler", "encoding.TextMarshaler", "encoding.TextUnmarshaler"},
}

// probeImports are the packages stdlibProbes' type expressions name.
var probeImports = []string{"encoding", "encoding/json", "fmt"}

// perfbenchOnly lists the functions and methods outside perfbench/ that
// only perfbench's binary reaches, each with the reason perfbench calls it.
// perfbench times both sides of a comparison with one program, so it
// changes only in a change of its own; these stay until such a change
// stops calling them.
var perfbenchOnly = map[string]string{
	"internal/queueing.DEK1.SolveFrom": "timed as queueing.solve_from_us; it ignores its argument and runs Solve",
	"internal/core.LoadGrid":           "builds perfbench's walk grid; the front ends take grids through CheckLoadGrid",
	"internal/core.CompiledModel.Law":  "hands perfbench the compiled law it times as mgf.quantile_us",
	"internal/core.CompiledLaw.Law":    "unwraps that law to the mgf.Sum whose Tail perfbench times",
	"internal/mgf.Sum.Tail":            "timed as mgf.tail_us; the served inversion calls tailDensity",
}

// TestProductionReachable checks that every top-level function and method
// in the repository's non-test Go files, perfbench/ included, is reached
// from a binary or is on reachAllow. Code that only tests call belongs in a
// _test.go file. What an allowlisted function reaches counts as reached
// too. loadProgram says how reachability is decided.
//
// It walks first from every root outside perfbench/, then adds perfbench's:
// the functions outside perfbench/ that only the second walk reaches must
// be exactly perfbenchOnly's keys.
func TestProductionReachable(t *testing.T) {
	p := loadProgram(t, ".")
	p.reachRoots(func(dir string) bool { return !inPerfbench(dir) })
	p.walk()
	withoutPerfbench := make(map[string]bool)
	for key, fn := range p.byKey {
		withoutPerfbench[key] = fn.reached
	}
	p.reachRoots(inPerfbench)
	p.walk()
	var only []string
	for key, fn := range p.byKey {
		if fn.reached && !withoutPerfbench[key] && !inPerfbench(fn.dir) {
			only = append(only, key)
		}
	}
	sort.Strings(only)
	for key, why := range perfbenchOnly {
		if why == "" {
			t.Errorf("perfbenchOnly[%q] needs a reason", key)
		}
	}
	if want := slices.Sorted(maps.Keys(perfbenchOnly)); !slices.Equal(only, want) {
		t.Errorf("reached only from perfbench: %q\nperfbenchOnly: %q", only, want)
	}
	for key, why := range reachAllow {
		fn := p.byKey[key]
		switch {
		case fn == nil:
			t.Errorf("reachAllow[%q] names no function or method", key)
		case fn.reached:
			t.Errorf("%s is reached from a binary; remove it from reachAllow", key)
		case why == "":
			t.Errorf("reachAllow[%q] needs a reason", key)
		default:
			p.reach(fn)
		}
	}
	if len(reachAllow) > 10 {
		t.Errorf("reachAllow has %d entries; keep it to 10 or fewer", len(reachAllow))
	}
	p.walk()
	for _, fn := range p.dead() {
		t.Errorf("no binary reaches %s (%s): delete it, move it into a _test.go file, or allowlist it with a reason", fn.key, fn.pos)
	}
}

// TestReachabilityFixture pins the analysis' verdicts on the small module
// in testdata/reach: a method that shares its name with a called method of
// another type is dead, while methods reached only through an implicitly
// instantiated generic interface, or only by errors.Is, are live.
func TestReachabilityFixture(t *testing.T) {
	p := loadProgram(t, "testdata/reach")
	p.reachRoots(func(string) bool { return true })
	p.walk()
	var got []string
	for _, fn := range p.dead() {
		got = append(got, fn.key)
	}
	want := []string{"app.uncalled.Size", "codec.Store.Load", "codec.Unused"}
	if !slices.Equal(got, want) {
		t.Errorf("dead = %q, want %q", got, want)
	}
}

// funcDecl is one top-level function or method of non-test code.
type funcDecl struct {
	key, pos, dir string
	body          *ast.BlockStmt
	info          *types.Info
	reached       bool
}

// root is one reachability root: a main or init function, or a
// package-level var declaration, in directory dir.
type root struct {
	dir   string
	reach func()
}

// inPerfbench reports whether dir is perfbench/ or below it.
func inPerfbench(dir string) bool {
	return dir == "perfbench" || strings.HasPrefix(dir, "perfbench/")
}

// program is the type-checked non-test code of every module under a root,
// with the reachability state of its functions.
type program struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string      // import path -> directory, module packages
	files map[string][]*ast.File // directory -> parsed non-test files
	pkgs  map[string]*types.Package
	infos map[string]*types.Info // root-relative directory -> type info

	funcs map[*types.Func]*funcDecl
	byKey map[string]*funcDecl
	roots []root
	queue []*funcDecl

	probes   map[string][]types.Type // stdlibProbes, type-checked
	seen     map[types.Type]bool
	ifaces   []types.Type // interfaces reached code uses
	concrete []types.Type // named module types, generic ones as instantiated
	checked  [2]int       // ifaces[:checked[0]] x concrete[:checked[1]] are matched
}

// loadProgram type-checks every package of every module under root,
// skipping testdata and hidden directories, each from source exactly once
// and with the standard library imported from export data, and records the
// roots, which reachRoots reaches: every main and init function and every
// package-level var declaration.
//
// Reachability follows go/types objects, never names. A reached body
// reaches every module function and method its identifiers denote, a
// generic one through its origin. A method is also reached when it is a
// method of an interface that reached code uses and its receiver type
// implements that interface. Reached code uses an interface that is the
// type of one of its values, or of a parameter or result of a function it
// refers to, and the interfaces stdlibProbes lists for a standard-library
// package whose functions it calls. Receiver types are the module's named
// types, a generic one as instantiated in reached code.
func loadProgram(t *testing.T, root string) *program {
	t.Helper()
	p := &program{
		root:   root,
		fset:   token.NewFileSet(),
		dirs:   make(map[string]string),
		files:  make(map[string][]*ast.File),
		pkgs:   make(map[string]*types.Package),
		infos:  make(map[string]*types.Info),
		funcs:  make(map[*types.Func]*funcDecl),
		byKey:  make(map[string]*funcDecl),
		seen:   make(map[types.Type]bool),
		probes: make(map[string][]types.Type),
	}
	modules := make(map[string]string) // directory -> module path
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(p.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(file)
		if p.files[dir] == nil {
			p.dirs[importPath(t, modules, filepath.ToSlash(dir))] = dir
		}
		p.files[dir] = append(p.files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p.std = stdImporter(t, p)

	probePkg := types.NewPackage("probes", "probes")
	for _, ip := range probeImports {
		pkg, err := p.std.Import(ip)
		if err != nil {
			t.Fatal(err)
		}
		probePkg.Scope().Insert(types.NewPkgName(token.NoPos, probePkg, pkg.Name(), pkg))
	}
	for pkg, exprs := range stdlibProbes {
		for _, e := range exprs {
			tv, err := types.Eval(p.fset, probePkg, token.NoPos, e)
			if err != nil {
				t.Fatalf("stdlibProbes[%q]: %v", pkg, err)
			}
			p.probes[pkg] = append(p.probes[pkg], tv.Type)
		}
	}

	var paths []string
	for ip := range p.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := p.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// Import returns the module package at path, type-checking it on first
// use, or the standard-library package from export data.
func (p *program) Import(ip string) (*types.Package, error) {
	dir, ok := p.dirs[ip]
	if !ok {
		return p.std.Import(ip)
	}
	if pkg := p.pkgs[ip]; pkg != nil {
		return pkg, nil
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(ip, p.fset, p.files[dir], info)
	if err != nil {
		return nil, err
	}
	p.pkgs[ip] = pkg
	rel, err := filepath.Rel(p.root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	p.infos[rel] = info
	var vars []*ast.GenDecl
	for _, f := range p.files[dir] {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.VAR {
					vars = append(vars, d)
				}
				continue
			}
			obj := info.Defs[d.Name].(*types.Func)
			fn := &funcDecl{key: rel + ".", pos: p.fset.Position(d.Pos()).String(), dir: rel, body: d.Body, info: info}
			p.funcs[obj] = fn
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				fn.key += namedOf(recv.Type()).Obj().Name() + "."
			}
			fn.key += obj.Name()
			if obj.Name() == "init" || obj.Name() == "main" && pkg.Name() == "main" {
				p.roots = append(p.roots, root{rel, func() { p.reach(fn) }})
			} else {
				p.byKey[fn.key] = fn
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n := tn.Type().(*types.Named); n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				p.seen[n] = true
				p.concrete = append(p.concrete, n)
			}
		}
	}
	for _, d := range vars {
		p.roots = append(p.roots, root{rel, func() { p.scan(d, info) }})
	}
	return pkg, nil
}

// stdImporter imports the standard-library packages the module code
// imports from export data, found with one go list call.
func stdImporter(t *testing.T, p *program) types.Importer {
	t.Helper()
	need := map[string]bool{}
	for _, ip := range probeImports {
		need[ip] = true
	}
	for _, files := range p.files {
		for _, f := range files {
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if _, ok := p.dirs[ip]; !ok {
					need[ip] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for ip := range need {
		args = append(args, ip)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, "=")
		exports[ip] = file
	}
	return importer.ForCompiler(p.fset, "gc", func(ip string) (io.ReadCloser, error) {
		return os.Open(exports[ip])
	})
}

// reachRoots reaches the roots in the directories keep accepts.
func (p *program) reachRoots(keep func(dir string) bool) {
	for _, r := range p.roots {
		if keep(r.dir) {
			r.reach()
		}
	}
}

// walk propagates reachability until no new function is reached.
func (p *program) walk() {
	for {
		for len(p.queue) > 0 {
			fn := p.queue[len(p.queue)-1]
			p.queue = p.queue[:len(p.queue)-1]
			if fn.body != nil {
				p.scan(fn.body, fn.info)
			}
		}
		p.rootMethods()
		if len(p.queue) == 0 {
			return
		}
	}
}

func (p *program) reach(fn *funcDecl) {
	if !fn.reached {
		fn.reached = true
		p.queue = append(p.queue, fn)
	}
}

// scan records what node uses: the functions its identifiers denote, and
// the types of its expressions and variables.
func (p *program) scan(node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				p.useType(tv.Type)
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				p.useFunc(obj)
			case *types.Var:
				p.useType(obj.Type())
			}
		}
		return true
	})
}

func (p *program) useFunc(f *types.Func) {
	f = f.Origin()
	if fn := p.funcs[f]; fn != nil {
		p.reach(fn)
	}
	if f.Pkg() != nil {
		for _, probe := range p.probes[f.Pkg().Path()] {
			p.useType(probe)
		}
	}
}

// useType records an interface with methods, an instance of a generic
// module type, and the parameters and results of a function type.
func (p *program) useType(typ types.Type) {
	if typ == nil || p.seen[typ] {
		return
	}
	p.seen[typ] = true
	if sig, ok := typ.(*types.Signature); ok {
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for v := range tuple.Variables() {
				p.useType(v.Type())
			}
		}
		return
	}
	if _, ok := typ.(*types.TypeParam); ok {
		return
	}
	if types.IsInterface(typ) {
		if typ.Underlying().(*types.Interface).NumMethods() > 0 {
			p.ifaces = append(p.ifaces, typ)
		}
		return
	}
	if n := namedOf(typ); n != nil && n.TypeArgs().Len() > 0 && !p.seen[n] && p.pkgs[n.Obj().Pkg().Path()] != nil {
		p.seen[n] = true
		p.concrete = append(p.concrete, n)
	}
}

// rootMethods reaches, on every receiver type that implements a used
// interface, the methods of that interface.
func (p *program) rootMethods() {
	for i, iface := range p.ifaces {
		it := iface.Underlying().(*types.Interface)
		for c, typ := range p.concrete {
			if i < p.checked[0] && c < p.checked[1] {
				continue
			}
			if !types.Implements(typ, it) {
				if typ = types.NewPointer(typ); !types.Implements(typ, it) {
					continue
				}
			}
			for m := range it.Methods() {
				obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name())
				p.useFunc(obj.(*types.Func))
			}
		}
	}
	p.checked = [2]int{len(p.ifaces), len(p.concrete)}
}

// dead returns the unreached functions and methods, sorted by key.
func (p *program) dead() []*funcDecl {
	var out []*funcDecl
	for _, fn := range p.byKey {
		if !fn.reached {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// namedOf returns the named type of t or of the type t points to.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// importPath returns the import path of the package in dir, from the
// module path of the nearest enclosing go.mod.
func importPath(t *testing.T, modules map[string]string, dir string) string {
	t.Helper()
	for d := dir; ; d = path.Dir(d) {
		mod, ok := modules[d]
		if !ok {
			if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
				for _, line := range strings.Split(string(data), "\n") {
					if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
						mod = strings.TrimSpace(rest)
						break
					}
				}
			}
			modules[d] = mod
		}
		switch {
		case mod == "":
		case d == dir:
			return mod
		case d == ".":
			return mod + "/" + dir
		default:
			return mod + "/" + strings.TrimPrefix(dir, d+"/")
		}
		if d == "." {
			t.Fatalf("%s: no go.mod above it", dir)
		}
	}
}
