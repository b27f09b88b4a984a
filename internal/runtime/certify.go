// Static plan certification: the compiled step lists of a Plan are a
// closed description of everything the hot path will do per call —
// which parameters land where, which steps allocate fresh storage,
// and what decode bound every variable-length item is held to. This
// file exports that structure (Plan.Certificate) and proves the two
// invariants the runtime's AllocsPerRun gates check dynamically:
//
//   - 0-alloc: an operation whose certificate says ClientAllocFree /
//     ServerAllocFree runs its marshal path without a per-call heap
//     allocation (the gates in alloc_test.go measure the same ops at
//     exactly zero);
//   - bounds: every variable-length decode step carries a finite
//     max-decode bound, so no hostile length prefix can force an
//     allocation past it.
//
// `flexc vet -certify` turns the certificate into a golden file per
// example — a compile-time artifact CI can diff instead of (as well
// as) re-measuring the allocator.
package runtime

import (
	"encoding/json"
	"fmt"

	"flexrpc/internal/ir"
)

// A StepCert describes one compiled marshal step of an operation.
type StepCert struct {
	// Phase says when the step runs (req-encode, req-decode,
	// rep-encode, rep-decode).
	Phase string `json:"phase"`
	// Param is the parameter name ("return" for the result).
	Param string `json:"param"`
	// Type is the parameter's wire-type signature.
	Type string `json:"type"`
	// Landing is where the value's bytes end up (decode phases) or
	// "none" for encode phases, which append into the recycled
	// frame.
	Landing Landing `json:"landing"`
	// Allocs reports whether the step counts toward its side's
	// allocation bound: a decode step that boxes or stores its value in
	// fresh heap memory per call (see decodeCost), or an opaque
	// [special] hook — so VerifyAllocBound can name the steps behind a
	// nonzero bound (the client's positional outs slice aside).
	Allocs bool `json:"allocs"`
	// MaxDecode is the bound applied to the step's variable-length
	// items, 0 when the step has none (scalars, fixed-size).
	MaxDecode uint32 `json:"max_decode,omitempty"`
	// Traced marks steps wrapped by the [traced] meter.
	Traced bool `json:"traced,omitempty"`
}

// An OpCert certifies one operation's compiled plan.
type OpCert struct {
	Op    string     `json:"op"`
	Steps []StepCert `json:"steps"`
	// NOut counts out/inout parameters; when non-zero the client
	// reply decode allocates the positional outs slice.
	NOut int `json:"nout"`
	// ClientAllocBound / ServerAllocBound are certified upper bounds
	// on per-call heap allocations (stats off) for each side's
	// marshal path (see decodeCost). Boxing a decoded value into its
	// interface Value counts, so a 16-field attribute struct with one
	// string field certifies 1 on the side that decodes it (one block
	// holds its headers, Values and scalars, and the string's bytes in
	// its tail), and so does a top-level string or owned byte buffer
	// (its header with its bytes); the borrow-mode 1KB put certifies a
	// server bound of 0, because the borrowed slice lands in the Call's
	// byte slot unboxed and the payload is never copied — exactly the
	// numbers the runtime's AllocsPerRun gates measure. A sequence of
	// allocating elements has no static element count: its bound covers
	// one element, and each further element adds that element's cost.
	ClientAllocBound int `json:"client_alloc_bound"`
	ServerAllocBound int `json:"server_alloc_bound"`
	// ClientAllocFree / ServerAllocFree: the bound is zero.
	ClientAllocFree bool `json:"client_alloc_free"`
	ServerAllocFree bool `json:"server_alloc_free"`
}

// A PlanCert is the full certificate for one endpoint's compiled
// plan: the static counterpart of the AllocsPerRun gates.
type PlanCert struct {
	Interface string   `json:"interface"`
	Codec     string   `json:"codec"`
	Trust     string   `json:"trust"`
	MaxDecode uint32   `json:"max_decode"`
	Ops       []OpCert `json:"ops"`
}

// Certificate derives the plan's static certificate from its
// compiled step lists. It never runs a step.
func (p *Plan) Certificate() *PlanCert {
	c := &PlanCert{
		Interface: p.Pres.Interface.Name,
		Codec:     p.Codec.Name(),
		Trust:     p.Pres.Trust.String(),
		MaxDecode: p.maxDecode,
	}
	for _, op := range p.Ops {
		c.Ops = append(c.Ops, op.certify())
	}
	return c
}

// certify builds one operation's certificate from its step lists:
// each step's landing is the one compileParam stored on it.
func (op *OpPlan) certify() OpCert {
	oc := OpCert{Op: op.Op.Name, NOut: op.nOut, Steps: []StepCert{}}
	add := func(phase string, st *step) {
		t := op.Op.Result
		if st.arg >= 0 {
			t = op.Op.Params[st.arg].Type
		}
		sc := StepCert{Phase: phase, Param: st.name, Type: "void", Landing: st.landing, Traced: st.traced}
		if t != nil {
			sc.Type = t.Signature()
		}
		cost := 0
		switch phase {
		case PhaseReqEncode, PhaseRepEncode:
			// Encode steps append into the recycled frame; only
			// opaque [special] hooks may allocate.
			if st.landing == LandSpecial {
				cost = 1
			}
		default:
			if variableLength(t) && st.landing != LandSpecial {
				sc.MaxDecode = op.plan.maxDecode
			}
			if st.borrow == nil {
				cost = decodeCost(t, st.landing)
			}
		}
		sc.Allocs = cost > 0
		if sideOf(phase) == "client" {
			oc.ClientAllocBound += cost
		} else {
			oc.ServerAllocBound += cost
		}
		oc.Steps = append(oc.Steps, sc)
	}
	for _, ph := range []struct {
		phase string
		steps []step
	}{
		{PhaseReqEncode, op.reqEnc}, {PhaseReqDecode, op.reqDec},
		{PhaseRepEncode, op.repEnc}, {PhaseRepDecode, op.repDec},
	} {
		for i := range ph.steps {
			add(ph.phase, &ph.steps[i])
		}
	}
	// The positional outs slice DecodeReply allocates when the
	// operation has out/inout parameters is a client-side per-call
	// allocation even when every step is clean.
	if op.nOut > 0 {
		oc.ClientAllocBound++
	}
	oc.ClientAllocFree = oc.ClientAllocBound == 0
	oc.ServerAllocFree = oc.ServerAllocBound == 0
	return oc
}

// sideOf names the side a phase runs on: the client encodes requests
// and decodes replies, the server the other two.
func sideOf(phase string) string {
	if phase == PhaseReqEncode || phase == PhaseRepDecode {
		return "client"
	}
	return "server"
}

// decodeCost bounds the heap allocations of decoding one value of
// wire type t into a Value: one box per top-level scalar (a bool boxes
// through the runtime's static byte table, for free; any other scalar
// only when it is below 256), and one block for a string or owned byte
// buffer, its header with its bytes in the block's tail (an empty
// string boxes for free). A borrowed or caller-landed buffer is its
// boxed header. A struct or array is one block plus what its leaves
// allocate apart (blockCost). A sequence is its backing, its boxed
// header, and either one slab for scalar elements at any count or one
// element's cost: its length is not static. A [special] hook is
// opaque: one allocation for whatever it builds, one for boxing it.
func decodeCost(t *ir.Type, l Landing) int {
	if t == nil || t.Kind == ir.Void {
		return 0
	}
	if l == LandSpecial {
		return 2
	}
	switch t.Kind {
	case ir.Bool:
		return 0
	case ir.Seq:
		return 2 + elemCost(t.Elem, l)
	case ir.Array, ir.Struct:
		return 1 + blockCost(t, l)
	}
	return 1
}

// blockCost counts the allocations a value of wire type t makes apart
// from the block it lands in: a sequence's backing plus its slab or one
// element. Its headers, Values and scalars are in the block, and so are
// its strings' and owned byte buffers' bytes, in the tail.
func blockCost(t *ir.Type, l Landing) int {
	switch t.Kind {
	case ir.Seq:
		return 1 + elemCost(t.Elem, l)
	case ir.Array:
		return t.Size * blockCost(t.Elem, l)
	case ir.Struct:
		cost := 0
		for _, f := range t.Fields {
			cost += blockCost(f.Type, l)
		}
		return cost
	}
	return 0
}

// elemCost is what one element adds to a sequence: one slab shared by
// all scalar elements, or the element's own cost.
func elemCost(elem *ir.Type, l Landing) int {
	if _, slab := seqLeaf(elem); slab {
		return 1
	}
	return decodeCost(elem, l)
}

// variableLength reports whether decoding t reads a length prefix
// the decode bound must cover.
func variableLength(t *ir.Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case ir.Bytes, ir.String, ir.Seq:
		return true
	case ir.Array, ir.Struct:
		if t.Elem != nil && variableLength(t.Elem) {
			return true
		}
		for _, f := range t.Fields {
			if variableLength(f.Type) {
				return true
			}
		}
	}
	return false
}

// VerifyBounds proves the certificate's bounds invariant: every
// variable-length decode step carries a finite max-decode bound.
func (c *PlanCert) VerifyBounds() error {
	for _, oc := range c.Ops {
		for _, sc := range oc.Steps {
			decode := sc.Phase == PhaseReqDecode || sc.Phase == PhaseRepDecode
			if decode && sc.Landing != LandSpecial && sc.MaxDecode == 0 && variableSig(sc.Type) {
				return fmt.Errorf("certify: %s.%s %s step is unbounded", oc.Op, sc.Param, sc.Phase)
			}
		}
	}
	return nil
}

// variableSig reports whether a wire-type signature names a
// variable-length kind (see ir.Type.Signature).
func variableSig(sig string) bool {
	switch {
	case sig == "bytes", sig == "string":
		return true
	case len(sig) >= 4 && sig[:4] == "seq<":
		return true
	}
	return false
}

// Render formats the certificate as indented JSON — the golden
// `flexc vet -certify` diffs. (Deliberately not named MarshalText:
// encoding/json would recurse through a TextMarshaler.)
func (c *PlanCert) Render() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
