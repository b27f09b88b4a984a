package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
)

// emitClient generates the typed client stub.
func (g *gen) emitClient() error {
	iface := g.compiled.Iface
	cname := goName(iface.Name) + "Client"
	g.pf("// %s is the generated client stub for interface %s.\n", cname, iface.Name)
	g.pf("// It works over any transport that provides a flexrpc.Invoker —\n")
	g.pf("// an in-process connection, simulated Mach IPC, or Sun RPC.\ntype %s struct {\n\tinv flexrpc.Invoker\n}\n\n", cname)
	g.pf("// New%s wraps a bound transport connection.\nfunc New%s(inv flexrpc.Invoker) *%s {\n\treturn &%s{inv: inv}\n}\n\n",
		cname, cname, cname, cname)

	for i := range iface.Ops {
		if err := g.emitClientMethod(cname, &iface.Ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// attrsFor returns the presentation attributes of op/param.
func (g *gen) attrsFor(op *ir.Operation, param string) *pres.ParamAttrs {
	if p := g.pres.Op(op.Name); p != nil {
		if a := p.Param(param); a != nil {
			return a
		}
	}
	return &pres.ParamAttrs{}
}

// attrComment renders non-default attributes for doc comments.
func attrComment(a *pres.ParamAttrs) string {
	var parts []string
	if a.Trashable {
		parts = append(parts, "trashable")
	}
	if a.Preserved {
		parts = append(parts, "preserved")
	}
	if a.Special {
		parts = append(parts, "special")
	}
	if a.NonUnique {
		parts = append(parts, "nonunique")
	}
	if a.LengthIs != "" {
		parts = append(parts, "length_is("+a.LengthIs+")")
	}
	if a.Dealloc == pres.DeallocNever {
		parts = append(parts, "dealloc(never)")
	}
	if a.Alloc == pres.AllocCaller {
		parts = append(parts, "alloc(caller)")
	}
	if a.Alloc == pres.AllocCallee {
		parts = append(parts, "alloc(callee)")
	}
	if len(parts) == 0 {
		return ""
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func isBufferKind(t *ir.Type) bool {
	return t.Kind == ir.Bytes || t.Kind == ir.FixedBytes
}

func (g *gen) emitClientMethod(cname string, op *ir.Operation) error {
	mname := goName(op.Name)
	retAttrs := g.attrsFor(op, pres.ResultParam)
	retCallerAlloc := op.HasResult() && isBufferKind(op.Result) && retAttrs.Alloc == pres.AllocCaller

	// Signature: in/inout params, then caller-alloc buffers, then
	// out/inout returns plus the result and error.
	var params, rets, zeros []string
	for _, p := range op.Params {
		gt, err := g.goType(p.Type)
		if err != nil {
			return err
		}
		if p.Dir == ir.In || p.Dir == ir.InOut {
			params = append(params, lowerFirst(goName(p.Name))+" "+gt)
		}
		if p.Dir == ir.Out || p.Dir == ir.InOut {
			a := g.attrsFor(op, p.Name)
			if isBufferKind(p.Type) && a.Alloc == pres.AllocCaller {
				params = append(params, lowerFirst(goName(p.Name))+"Buf []byte")
			}
			rets = append(rets, gt)
			zeros = append(zeros, g.zeroExpr(p.Type))
		}
	}
	if retCallerAlloc {
		params = append(params, "resultBuf []byte")
	}
	if op.HasResult() {
		gt, err := g.goType(op.Result)
		if err != nil {
			return err
		}
		rets = append(rets, gt)
		zeros = append(zeros, g.zeroExpr(op.Result))
	}
	rets = append(rets, "error")

	// Doc comment, including presentation annotations.
	g.pf("// %s invokes the %q operation.\n", mname, op.Name)
	for _, p := range op.Params {
		if c := attrComment(g.attrsFor(op, p.Name)); c != "" {
			g.pf("// Parameter %s carries presentation attributes %s.\n", p.Name, c)
		}
	}
	if c := attrComment(retAttrs); op.HasResult() && c != "" {
		g.pf("// The result carries presentation attributes %s.\n", c)
	}
	if op.Oneway {
		g.pf("// The operation is oneway: no reply is awaited.\n")
	}
	retSig := strings.Join(rets, ", ")
	if len(rets) > 1 {
		retSig = "(" + retSig + ")"
	}
	g.pf("func (c *%s) %s(%s) %s {\n", cname, mname, strings.Join(params, ", "), retSig)

	// Build the argument vector.
	g.pf("\targs := make([]flexrpc.Value, %d)\n", len(op.Params))
	for i, p := range op.Params {
		if p.Dir == ir.Out {
			continue
		}
		g.pf("\targs[%d] = %s\n", i, g.convToValue(lowerFirst(goName(p.Name)), p.Type))
	}
	// Out buffers.
	hasOutBufs := false
	for _, p := range op.Params {
		if p.Dir != ir.In && isBufferKind(p.Type) && g.attrsFor(op, p.Name).Alloc == pres.AllocCaller {
			hasOutBufs = true
		}
	}
	if hasOutBufs {
		g.pf("\toutBufs := make([][]byte, %d)\n", len(op.Params))
		for i, p := range op.Params {
			if p.Dir != ir.In && isBufferKind(p.Type) && g.attrsFor(op, p.Name).Alloc == pres.AllocCaller {
				g.pf("\toutBufs[%d] = %sBuf\n", i, lowerFirst(goName(p.Name)))
			}
		}
	} else {
		g.pf("\tvar outBufs [][]byte\n")
	}
	if retCallerAlloc {
		g.pf("\tresultLanding := resultBuf\n")
	} else {
		g.pf("\tvar resultLanding []byte\n")
	}

	if len(zeros) == 0 {
		g.pf("\t_, _, err := c.inv.Invoke(%q, args, outBufs, resultLanding)\n\treturn err\n}\n\n", op.Name)
		return nil
	}
	fail := "\tif err != nil {\n\t\treturn " + strings.Join(append(zeros, "err"), ", ") + "\n\t}\n"

	// Invoke, naming only the returns this operation has.
	outsVar, retVar := "outs", "ret"
	if len(zeros) == 1 && op.HasResult() {
		outsVar = "_"
	}
	if !op.HasResult() {
		retVar = "_"
	}
	g.pf("\t%s, %s, err := c.inv.Invoke(%q, args, outBufs, resultLanding)\n%s", outsVar, retVar, op.Name, fail)

	// Unpack returns through checked conversions: over an in-process
	// connection nothing else has looked at their types.
	var retExprs []string
	for i, p := range op.Params {
		if p.Dir == ir.In {
			continue
		}
		v := fmt.Sprintf("out%d", i)
		g.pf("\t%s, err := %s\n%s", v, g.convFromValue(fmt.Sprintf("outs[%d]", i), p.Type, g.what(op, "out param "+p.Name)), fail)
		retExprs = append(retExprs, v)
	}
	if op.HasResult() {
		g.pf("\tres, err := %s\n%s", g.convFromValue("ret", op.Result, g.what(op, "result")), fail)
		retExprs = append(retExprs, "res")
	}
	g.pf("\treturn %s\n}\n\n", strings.Join(append(retExprs, "nil"), ", "))
	return nil
}

// what renders the Go string literal a checked conversion names its
// value by: interface, operation and which part of it.
func (g *gen) what(op *ir.Operation, part string) string {
	return strconv.Quote(g.compiled.Iface.Name + "." + op.Name + " " + part)
}

// zeroExpr returns the zero-value literal for the Go mapping of t.
func (g *gen) zeroExpr(t *ir.Type) string {
	switch t.Kind {
	case ir.Bool:
		return "false"
	case ir.String:
		return `""`
	case ir.Struct:
		return goName(t.Name) + "{}"
	case ir.Bytes, ir.FixedBytes, ir.Seq, ir.Array:
		return "nil"
	default: // numerics, enums, port names
		return "0"
	}
}
