// Package gocheck is the Go-code half of flexvet: where the analyze
// package checks the (contract, presentation) pair, gocheck checks
// the user Go code that must honor it. The paper's optimizations are
// sound only because annotations are promises — a borrowed []byte
// really is dropped before return, an [idempotent] handler really is
// re-executable — and nothing in the runtime can see a broken promise
// until it corrupts. These analyzers close that gap the way gVisor's
// checklocks/checkescape passes encode runtime invariants as static
// analyses.
//
// The suite follows the go/analysis model — one Analyzer per
// invariant, each a function over a typechecked package pass — with a
// self-contained driver (load.go) so the toolchain is the only
// dependency. Findings are ordinary flexvet Diagnostics (FV017, FV018,
// FV020, FV023) and render beside the presentation-side checks.
package gocheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"flexrpc/internal/analyze"
	"flexrpc/internal/idl"
	"flexrpc/internal/pres"
)

// An Analyzer is one Go-side flexvet check.
type Analyzer struct {
	// ID is the check's registry identifier ("FV017"...).
	ID string
	// Name is the short kebab-case name.
	Name string
	// Doc is a one-line summary.
	Doc string
	// Run inspects one package pass and reports findings.
	Run func(*Pass)
}

// Analyzers is the Go-side suite, in ID order.
var Analyzers = []*Analyzer{
	BorrowEscape,
	IdempotentPurity,
	ContextDiscipline,
	NetpollBorrow,
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Pkg      *Package
	Contract *pres.Presentation // nil when no PDL contract is bound
	analyzer *Analyzer
	checker  *Checker
}

// A Checker runs the analyzer suite and accumulates findings.
type Checker struct {
	// Contract optionally binds the PDL presentation whose
	// annotations the Go code must honor; annotation-dependent
	// checks (FV018) are silent without it.
	Contract *pres.Presentation
	// TrimDir, when set, is stripped from reported file paths so
	// diagnostics and goldens are stable across checkouts.
	TrimDir string

	diags []analyze.Diagnostic
}

// CheckPackages runs every analyzer over every package. A panicking
// analyzer is reported as a LoadError (internal failure, exit 2)
// naming the analyzer, never as a finding.
func (c *Checker) CheckPackages(pkgs []*Package) (diags []analyze.Diagnostic, err error) {
	for _, pkg := range pkgs {
		for _, a := range Analyzers {
			if perr := c.runOne(a, pkg); perr != nil {
				return nil, perr
			}
		}
	}
	analyze.SortDiags(c.diags)
	return c.diags, nil
}

func (c *Checker) runOne(a *Analyzer, pkg *Package) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = loadErrf("analyzer %s panicked on %s: %v", a.ID, pkg.ImportPath, r)
		}
	}()
	a.Run(&Pass{Pkg: pkg, Contract: c.Contract, analyzer: a, checker: c})
	return nil
}

// Reportf files a finding at the given position under the pass's
// analyzer ID, with severity and fix taken from the check registry.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	file := position.Filename
	if p.checker.TrimDir != "" {
		if rel, err := filepath.Rel(p.checker.TrimDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	info := analyze.Lookup(p.analyzer.ID)
	p.checker.diags = append(p.checker.diags, analyze.Diagnostic{
		ID:       p.analyzer.ID,
		Severity: info.Severity,
		Pos:      idl.Pos{File: file, Line: position.Line, Col: position.Column},
		Message:  fmt.Sprintf(format, args...),
		Fix:      info.Fix,
	})
}

// ---- flexrpc API recognition ----------------------------------------
//
// The analyzers key on the runtime package's API by object identity
// where possible and by (name, package-path) where the object comes
// through the flexrpc re-export layer. Matching the path by suffix
// keeps the checks working when the module is vendored or renamed.

// isFlexPkg reports whether a types package is the flexrpc runtime
// or its public re-export surface.
func isFlexPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "flexrpc" || strings.HasSuffix(path, "flexrpc") ||
		strings.Contains(path, "flexrpc/")
}

// namedOf unwraps pointers and aliases down to a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isFlexType reports whether t (possibly behind a pointer) is the
// named flexrpc type with the given name.
func isFlexType(t types.Type, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	return n.Obj().Name() == name && isFlexPkg(n.Obj().Pkg())
}

// callMethod resolves a call expression to (receiver-type-name,
// method-name) when the callee is a method on a flexrpc type.
func callMethod(info *types.Info, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	n := namedOf(selection.Recv())
	if n == nil || !isFlexPkg(n.Obj().Pkg()) {
		return "", "", false
	}
	return n.Obj().Name(), sel.Sel.Name, true
}

// calleeFunc resolves a call to its package-level *types.Func (direct
// calls and method calls), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// ---- handler discovery ----------------------------------------------

// A handlerSite is one server work function bound by
// Dispatcher.Handle("op", fn): the registered operation name plus the
// function body and the *Call parameter it receives.
type handlerSite struct {
	op      string       // operation name when the argument is a string literal, else ""
	fn      *ast.FuncLit // nil when the handler is a declared function
	decl    *ast.FuncDecl
	callVar *types.Var // the *runtime.Call parameter object
	body    *ast.BlockStmt
}

// node returns the full handler function node (including its
// parameter list), the scope against which "local" is judged.
func (h *handlerSite) node() ast.Node {
	if h.fn != nil {
		return h.fn
	}
	return h.decl
}

// handlers finds every Dispatcher.Handle registration in the package
// whose handler argument is a function literal or a function declared
// in the same package.
func handlers(pkg *Package) []handlerSite {
	var sites []handlerSite
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			recv, method, ok := callMethod(pkg.Info, call)
			if !ok || method != "Handle" || recv != "Dispatcher" {
				return true
			}
			site := handlerSite{}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if op, err := strconv.Unquote(lit.Value); err == nil {
					site.op = op
				}
			}
			switch h := ast.Unparen(call.Args[1]).(type) {
			case *ast.FuncLit:
				site.fn = h
				site.body = h.Body
				site.callVar = paramVar(pkg.Info, h.Type)
			case *ast.Ident:
				if obj, ok := pkg.Info.Uses[h].(*types.Func); ok {
					if fd := decls[obj]; fd != nil && fd.Body != nil {
						site.decl = fd
						site.body = fd.Body
						site.callVar = paramVar(pkg.Info, fd.Type)
					}
				}
			}
			if site.body != nil && site.callVar != nil {
				sites = append(sites, site)
			}
			return true
		})
	}
	return sites
}

// paramVar returns the object of the function's first parameter when
// it is a *runtime.Call.
func paramVar(info *types.Info, ft *ast.FuncType) *types.Var {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return nil
	}
	field := ft.Params.List[0]
	if len(field.Names) == 0 {
		return nil
	}
	obj, ok := info.Defs[field.Names[0]].(*types.Var)
	if !ok || !isFlexType(obj.Type(), "Call") {
		return nil
	}
	return obj
}

// declaredWithin reports whether an object's declaration lies inside
// the node's source range — i.e. the object is local to the handler
// rather than captured or package-level.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() != token.NoPos && node.Pos() <= obj.Pos() && obj.Pos() <= node.End()
}

// rootIdent peels selectors, indexes, stars and parens down to the
// base identifier of an lvalue expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
