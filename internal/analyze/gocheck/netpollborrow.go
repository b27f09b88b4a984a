// FV023: record borrow-escape. The raw Sun RPC handler surface
// (Server.Register's ProcHandler) decodes straight out of the record
// buffer: xdr.Decoder.Opaque and FixedOpaque return slices that alias
// it. Every executor — serial, pool and netpoll alike — returns that
// buffer to the server's record pool the moment the handler returns,
// so a retained alias is rewritten by whichever record, on whichever
// connection, reuses the buffer next. This analyzer runs the FV017
// borrow-escape engine over every Register handler, with the
// decoder's borrowing accessors as the alias sources. The safe
// alternatives are a copy, append([]byte(nil), b...), and String, which
// copies into owned storage.
package gocheck

import (
	"go/ast"
	"go/types"
)

// NetpollBorrow is the FV023 analyzer.
var NetpollBorrow = &Analyzer{
	ID:   "FV023",
	Name: "record-borrow-escape",
	Doc:  "raw handler retains a []byte aliasing the pooled request record",
	Run:  runNetpollBorrow,
}

// decoderBorrowSources are the xdr.Decoder accessors whose []byte
// results alias the request record buffer.
var decoderBorrowSources = map[string]string{
	"Opaque":      "the pooled request record",
	"FixedOpaque": "the pooled request record",
}

func runNetpollBorrow(p *Pass) {
	for _, h := range rawHandlers(p.Pkg) {
		checkNetpollBorrow(p, h)
	}
}

// A rawHandlerSite is one ProcHandler bound by Server.Register(proc,
// fn): the handler function body plus the *xdr.Decoder parameter it
// decodes from.
type rawHandlerSite struct {
	fn     *ast.FuncLit // nil when the handler is a declared function
	decl   *ast.FuncDecl
	decVar *types.Var // the *xdr.Decoder parameter object
	body   *ast.BlockStmt
}

func (h *rawHandlerSite) node() ast.Node {
	if h.fn != nil {
		return h.fn
	}
	return h.decl
}

// rawHandlers finds every Server.Register registration in the package
// whose handler argument is a function literal or a function declared
// in the same package. The Decoder-typed first parameter requirement
// is guaranteed by Register's ProcHandler signature; resolving the
// parameter object just gives the analysis its receiver variable.
func rawHandlers(pkg *Package) []rawHandlerSite {
	var sites []rawHandlerSite
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
			if !ok || method != "Register" || recv != "Server" {
				return true
			}
			site := rawHandlerSite{}
			switch h := ast.Unparen(call.Args[1]).(type) {
			case *ast.FuncLit:
				site.fn = h
				site.body = h.Body
				site.decVar = decoderParamVar(pkg.Info, h.Type)
			case *ast.Ident:
				if obj, ok := pkg.Info.Uses[h].(*types.Func); ok {
					if fd := decls[obj]; fd != nil && fd.Body != nil {
						site.decl = fd
						site.body = fd.Body
						site.decVar = decoderParamVar(pkg.Info, fd.Type)
					}
				}
			}
			if site.body != nil && site.decVar != nil {
				sites = append(sites, site)
			}
			return true
		})
	}
	return sites
}

// decoderParamVar returns the object of the function's first parameter
// when it is a flexrpc Decoder.
func decoderParamVar(info *types.Info, ft *ast.FuncType) *types.Var {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return nil
	}
	field := ft.Params.List[0]
	if len(field.Names) == 0 {
		return nil
	}
	obj, ok := info.Defs[field.Names[0]].(*types.Var)
	if !ok || !isFlexType(obj.Type(), "Decoder") {
		return nil
	}
	return obj
}

// checkNetpollBorrow analyzes one Register handler body with the
// shared borrow engine, sourcing borrows from the decoder's aliasing
// accessors.
func checkNetpollBorrow(p *Pass, h rawHandlerSite) {
	info := p.Pkg.Info
	ba := &borrowAnalysis{
		p:        p,
		scope:    h.node(),
		body:     h.body,
		borrowed: make(map[*types.Var]string),
		storeFmt: "raw handler stores a []byte aliasing %s into %s; " +
			"the server recycles the record buffer when the handler returns",
		sendFmt: "raw handler sends a []byte aliasing %s on a channel; " +
			"the receiver outlives the call and the server recycles the record buffer under it",
		goFmt: "raw handler hands a []byte aliasing %s to a goroutine; " +
			"the server recycles the record buffer under it when the handler returns",
		captureFmt: "closure captures %s, a []byte aliasing %s; " +
			"if the closure outlives the handler the server recycles the record buffer under it",
	}
	ba.source = func(e ast.Expr) (string, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return "", false
		}
		recv, method, ok := callMethod(info, call)
		if !ok || recv != "Decoder" {
			return "", false
		}
		src, ok := decoderBorrowSources[method]
		if !ok || !onCallVar(info, call, h.decVar) {
			return "", false
		}
		return src, true
	}
	ba.run()
}
