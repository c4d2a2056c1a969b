package fpsping_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow lists the top-level functions and methods that no binary
// reaches but that stay in non-test code, each with the reason a _test.go
// file cannot hold it. Keys are "dir.Func" or "dir.Type.Method", dir
// relative to the repository root.
var reachAllow = map[string]string{
	"internal/client.WithHTTPClient":      "option in the typed client's public API; no binary swaps the HTTP client",
	"internal/client.WithTransport":       "option in the typed client's public API; no binary swaps the transport",
	"internal/dist.SampleN":               "sampling fixture of the tests in five packages",
	"internal/dist.NewMixture":            "law fixture of the dist and fit tests",
	"internal/queueing.MD1.WaitTailExact": "exact M/D/1 tail netsim's TestLinkMD1AgainstAnalytic checks the simulator against",
	"internal/queueing.MD1.MeanWait":      "exact M/D/1 mean netsim's TestLinkMD1AgainstAnalytic checks the simulator against",
	"internal/netsim.NewWFQ":              "WFQ scheduler the root BenchmarkWFQIsolation builds; no binary sets netsim's scheduler knob",
}

// stdlibIfaceMethods are the method names of the standard-library
// interfaces the module's types implement (fmt.Stringer, error,
// http.Handler, sort.Interface, heap.Interface, json.Marshaler,
// flag.Value). A method with one of these names is called through the
// interface, not by name.
var stdlibIfaceMethods = []string{
	"String", "Error", "Unwrap", "ServeHTTP", "Len", "Less", "Swap",
	"Push", "Pop", "MarshalJSON", "UnmarshalJSON", "Set",
}

// TestProductionReachable checks that every top-level function and method
// in the repository's non-test Go files, perfbench/ included, is reached
// from a binary or is on reachAllow. Code that only tests call belongs in a
// _test.go file.
//
// The analysis matches names, not types, so it errs toward "live": it can
// miss dead code but never flags live code. Roots are every main and init
// function, every identifier in a package-level var, const or type
// declaration, and every method named like an interface method. A reached
// body reaches the functions of its own package named by a bare
// identifier, the functions of an imported package named by pkg.Name, and
// every method named by any other selector. What an allowlisted function
// calls counts as reached too.
func TestProductionReachable(t *testing.T) {
	p := parseProduction(t, ".")
	p.walk()
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

	var dead []string
	for key, fn := range p.byKey {
		if !fn.reached {
			dead = append(dead, key+" ("+fn.pos+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no binary reaches %s: delete it, move it into a _test.go file, or allowlist it with a reason", d)
	}
}

// prodFunc is one top-level function or method of non-test code.
type prodFunc struct {
	pkg     string // import path of the declaring package
	pos     string
	body    *ast.BlockStmt
	imports map[string]string // local name -> import path, of its file
	reached bool
}

// production is the name-level call graph of the repository's non-test code.
type production struct {
	byKey    map[string]*prodFunc   // reachAllow-style key -> declaration
	byFunc   map[string][]*prodFunc // "importpath.Name" -> functions
	byMethod map[string][]*prodFunc // method name -> methods
	queue    []*prodFunc
}

// prodFile is one parsed non-test file.
type prodFile struct {
	f        *ast.File
	dir, pkg string
	imports  map[string]string
}

// parseProduction parses every non-test .go file under root, skipping
// testdata and hidden directories, and reaches the roots.
func parseProduction(t *testing.T, root string) *production {
	t.Helper()
	p := &production{
		byKey:    make(map[string]*prodFunc),
		byFunc:   make(map[string][]*prodFunc),
		byMethod: make(map[string][]*prodFunc),
	}
	var files []prodFile
	fset := token.NewFileSet()
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
		// Object resolution tells a package name (unresolved) from a
		// local variable that shadows it.
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		files = append(files, prodFile{f: f, dir: dir, pkg: importPath(t, modules, dir), imports: fileImports(f)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, pf := range files {
		for _, decl := range pf.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := &prodFunc{pkg: pf.pkg, pos: fset.Position(fd.Pos()).String(), body: fd.Body, imports: pf.imports}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				p.byKey[pf.dir+"."+recvName(fd.Recv.List[0].Type)+"."+name] = fn
				p.byMethod[name] = append(p.byMethod[name], fn)
				continue
			}
			if name != "init" { // a package may declare several
				p.byKey[pf.dir+"."+name] = fn
			}
			p.byFunc[pf.pkg+"."+name] = append(p.byFunc[pf.pkg+"."+name], fn)
		}
	}

	ifaceMethods := append([]string(nil), stdlibIfaceMethods...)
	for _, pf := range files {
		roots := p.byFunc[pf.pkg+".init"]
		if pf.f.Name.Name == "main" {
			roots = append(roots, p.byFunc[pf.pkg+".main"]...)
		}
		for _, fn := range roots {
			p.reach(fn)
		}
		for _, decl := range pf.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok == token.IMPORT {
				continue
			}
			p.refs(gd, pf.pkg, pf.imports)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if it, ok := ts.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, n := range m.Names {
							ifaceMethods = append(ifaceMethods, n.Name)
						}
					}
				}
			}
		}
	}
	for _, name := range ifaceMethods {
		for _, m := range p.byMethod[name] {
			p.reach(m)
		}
	}
	return p
}

// walk propagates reachability until no new function is reached.
func (p *production) walk() {
	for len(p.queue) > 0 {
		fn := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		if fn.body != nil {
			p.refs(fn.body, fn.pkg, fn.imports)
		}
	}
}

func (p *production) reach(fn *prodFunc) {
	if !fn.reached {
		fn.reached = true
		p.queue = append(p.queue, fn)
	}
}

// refs reaches everything node names: bare identifiers resolve in pkg,
// pkg.Name selectors in the imported package, other selectors to every
// method of that name.
func (p *production) refs(node ast.Node, pkg string, imports map[string]string) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
				if path, ok := imports[x.Name]; ok {
					for _, fn := range p.byFunc[path+"."+n.Sel.Name] {
						p.reach(fn)
					}
					return false
				}
			}
			for _, m := range p.byMethod[n.Sel.Name] {
				p.reach(m)
			}
		case *ast.Ident:
			for _, fn := range p.byFunc[pkg+"."+n.Name] {
				p.reach(fn)
			}
		}
		return true
	})
}

// fileImports maps each import's local name to its path.
func fileImports(f *ast.File) map[string]string {
	out := make(map[string]string)
	for _, spec := range f.Imports {
		ip, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(ip)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		out[name] = ip
	}
	return out
}

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
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
