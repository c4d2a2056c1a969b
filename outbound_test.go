package fpsping_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"testing"
)

// outboundFuncs are the net/http package-level functions and variables
// that send a request or build one to send.
var outboundFuncs = map[string]bool{
	"NewRequest": true, "NewRequestWithContext": true,
	"Get": true, "Head": true, "Post": true, "PostForm": true,
	"DefaultClient": true, "DefaultTransport": true,
}

// TestOutboundHTTPOnlyInClient checks that internal/client is the only
// package outside perfbench/ whose non-test code sends HTTP requests: no
// other package calls http.NewRequest*, http.Get and its siblings, holds
// an http.Client or http.Transport, or reads an http.Response's body. The
// daemon's callers, the router included, then share one exchange and one
// response cap.
func TestOutboundHTTPOnlyInClient(t *testing.T) {
	p := loadProgram(t, ".")
	found := make(map[string]bool)
	add := func(pos token.Pos, what string) {
		at := p.fset.Position(pos)
		found[fmt.Sprintf("%s:%d: %s", at.Filename, at.Line, what)] = true
	}
	for dir, info := range p.infos {
		if dir == "internal/client" || inPerfbench(dir) {
			continue
		}
		for id, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Parent() == obj.Pkg().Scope() && outboundFuncs[obj.Name()] {
				add(id.Pos(), "uses http."+obj.Name())
			}
		}
		for expr, tv := range info.Types {
			for _, name := range []string{"Client", "Transport"} {
				if httpType(tv.Type, name) {
					add(expr.Pos(), "holds an http."+name)
				}
			}
			if sel, ok := expr.(*ast.SelectorExpr); ok && sel.Sel.Name == "Body" && httpType(info.TypeOf(sel.X), "Response") {
				add(expr.Pos(), "reads a response body")
			}
		}
	}
	for _, f := range slices.Sorted(maps.Keys(found)) {
		t.Errorf("outbound HTTP outside internal/client: %s", f)
	}
}

// httpType reports whether typ is net/http's named type name or a pointer
// to it.
func httpType(typ types.Type, name string) bool {
	n := namedOf(typ)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "net/http" && n.Obj().Name() == name
}
