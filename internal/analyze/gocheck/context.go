// FV020: context discipline. PR 3 plumbed contexts end-to-end —
// client deadlines ride InvokeContext through the transports into
// Call.Context — but one careless context.Background() anywhere on
// that path severs the chain silently. Two shapes are flagged:
//
//   - a handler passing context.Background()/TODO() to a
//     context-accepting call while Call.Context() sits unused in its
//     parameter — the server-side work escapes the client's deadline;
//   - a function that receives a ctx parameter but invokes a flexrpc
//     context-aware entry point (InvokeContext, CallContext,
//     CallTraceContext, ServeMessageRawContext, SessionServer.Handle)
//     with a fresh Background instead.
//
// Functions with no context in scope are not flagged: a top-level
// driver calling CallContext(context.Background(), ...) has nothing
// better to pass.
package gocheck

import (
	"go/ast"
	"go/types"
)

// ContextDiscipline is the FV020 analyzer.
var ContextDiscipline = &Analyzer{
	ID:   "FV020",
	Name: "dropped-context",
	Doc:  "fresh Background passed where a live context is in scope",
	Run:  runContextDiscipline,
}

// ctxEntryPoints are the flexrpc methods/functions whose first
// context argument continues the deadline chain.
var ctxEntryPoints = map[string]bool{
	"InvokeContext":          true,
	"CallContext":            true,
	"CallTraceContext":       true,
	"ServeMessageRawContext": true,
	"Handle":                 true, // SessionServer.Handle(ctx, ...)
	"HandleAppend":           true,
}

func runContextDiscipline(p *Pass) {
	info := p.Pkg.Info

	// Handler leg: inside handler bodies, any context-accepting call
	// fed a fresh Background while Call.Context() is available.
	for _, h := range handlers(p.Pkg) {
		body := h.body
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if freshContext(info, arg) && callTakesContext(info, call, arg) {
					p.Reportf(arg.Pos(),
						"handler passes a fresh %s while Call.Context() carries the client's deadline; the work escapes cancellation", freshContextName(info, arg))
				}
			}
			return true
		})
	}

	// Caller leg: functions that received a context but start the
	// flexrpc deadline chain from Background anyway.
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !hasContextParam(info, ft) {
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				if _, isLit := m.(*ast.FuncLit); isLit && m != n {
					return false // nested functions judged on their own params
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isCtxEntryPoint(info, call) {
					return true
				}
				for _, arg := range call.Args {
					if freshContext(info, arg) {
						p.Reportf(arg.Pos(),
							"%s drops the enclosing function's ctx parameter; the caller's deadline and retry budget are severed here", freshContextName(info, arg))
					}
				}
				return true
			})
			return true
		})
	}
}

// freshContext reports whether an expression is a direct
// context.Background() or context.TODO() call.
func freshContext(info *types.Info, e ast.Expr) bool {
	return freshContextName(info, e) != ""
}

// freshContextName returns "context.Background()"/"context.TODO()"
// for a direct fresh-context call, else "".
func freshContextName(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return "context." + fn.Name() + "()"
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	return n.Obj().Name() == "Context" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context"
}

// hasContextParam reports whether a function type declares a
// context.Context parameter.
func hasContextParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// callTakesContext reports whether arg occupies a context.Context
// parameter position of the call.
func callTakesContext(info *types.Info, call *ast.CallExpr, arg ast.Expr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i, a := range call.Args {
		if a != arg {
			continue
		}
		if i >= sig.Params().Len() {
			if sig.Variadic() {
				i = sig.Params().Len() - 1
			} else {
				return false
			}
		}
		return isContextType(sig.Params().At(i).Type())
	}
	return false
}

// isCtxEntryPoint reports whether a call targets one of the flexrpc
// context-aware entry points.
func isCtxEntryPoint(info *types.Info, call *ast.CallExpr) bool {
	if recv, method, ok := callMethod(info, call); ok {
		if !ctxEntryPoints[method] {
			return false
		}
		// Dispatcher.Handle registers handlers and takes no context;
		// only SessionServer.Handle continues the chain.
		if method == "Handle" && recv != "SessionServer" {
			return false
		}
		return true
	}
	fn := calleeFunc(info, call)
	return fn != nil && isFlexPkg(fn.Pkg()) && ctxEntryPoints[fn.Name()] && fn.Name() != "Handle"
}
