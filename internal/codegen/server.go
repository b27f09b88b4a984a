package codegen

import (
	"fmt"
	"strings"

	"flexrpc/internal/ir"
)

// emitServer generates the server-side skeleton: a Go interface the
// implementor fills in, and a Register function wiring it to a
// dispatcher.
func (g *gen) emitServer() error {
	iface := g.compiled.Iface
	sname := goName(iface.Name) + "Server"
	g.pf("// %s is the work-function interface a server implements.\n", sname)
	g.pf("// Every method receives the *flexrpc.Call for access to\n")
	g.pf("// presentation-negotiated state: ArgPrivate, OutBuffer,\n")
	g.pf("// ResultMoved and AfterReply.\ntype %s interface {\n", sname)
	for i := range iface.Ops {
		sig, err := g.serverMethodSig(&iface.Ops[i])
		if err != nil {
			return err
		}
		g.pf("\t%s\n", sig)
	}
	g.pf("}\n\n")

	g.pf("// Register%s wires an implementation into a dispatcher.\n", goName(iface.Name))
	g.pf("func Register%s(d *flexrpc.Dispatcher, impl %s) {\n", goName(iface.Name), sname)
	for i := range iface.Ops {
		if err := g.emitHandler(&iface.Ops[i]); err != nil {
			return err
		}
	}
	g.pf("}\n")
	return nil
}

func (g *gen) serverMethodSig(op *ir.Operation) (string, error) {
	var params []string
	params = append(params, "call *flexrpc.Call")
	for _, p := range op.Params {
		if p.Dir == ir.Out {
			continue
		}
		gt, err := g.goType(p.Type)
		if err != nil {
			return "", err
		}
		params = append(params, lowerFirst(goName(p.Name))+" "+gt)
	}
	var rets []string
	for _, p := range op.Params {
		if p.Dir == ir.In {
			continue
		}
		gt, err := g.goType(p.Type)
		if err != nil {
			return "", err
		}
		rets = append(rets, gt)
	}
	if op.HasResult() {
		gt, err := g.goType(op.Result)
		if err != nil {
			return "", err
		}
		rets = append(rets, gt)
	}
	rets = append(rets, "error")
	retSig := strings.Join(rets, ", ")
	if len(rets) > 1 {
		retSig = "(" + retSig + ")"
	}
	return fmt.Sprintf("%s(%s) %s", goName(op.Name), strings.Join(params, ", "), retSig), nil
}

func (g *gen) emitHandler(op *ir.Operation) error {
	g.pf("\td.Handle(%q, func(call *flexrpc.Call) error {\n", op.Name)
	// Unpack in arguments.
	var callArgs []string
	callArgs = append(callArgs, "call")
	for i, p := range op.Params {
		if p.Dir == ir.Out {
			continue
		}
		v := fmt.Sprintf("a%d", i)
		g.pf("\t\t%s, err := %s\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n",
			v, g.convFromValue(fmt.Sprintf("call.Arg(%d)", i), p.Type, g.what(op, "param "+p.Name)))
		callArgs = append(callArgs, v)
	}
	// Invoke the implementation.
	var outVars []string
	for i, p := range op.Params {
		if p.Dir == ir.In {
			continue
		}
		outVars = append(outVars, fmt.Sprintf("o%d", i))
	}
	if op.HasResult() {
		outVars = append(outVars, "res")
	}
	invoke := fmt.Sprintf("impl.%s(%s)", goName(op.Name), strings.Join(callArgs, ", "))
	if len(outVars) == 0 {
		g.pf("\t\treturn %s\n\t})\n", invoke)
		return nil
	}
	g.pf("\t\t%s, err := %s\n", strings.Join(outVars, ", "), invoke)
	g.pf("\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n")
	// Store results.
	for i, p := range op.Params {
		if p.Dir == ir.In {
			continue
		}
		g.pf("\t\tcall.SetOut(%d, %s)\n", i, g.convToValue(fmt.Sprintf("o%d", i), p.Type))
	}
	if op.HasResult() {
		g.pf("\t\tcall.SetResult(%s)\n", g.convToValue("res", op.Result))
	}
	g.pf("\t\treturn nil\n\t})\n")
	return nil
}
