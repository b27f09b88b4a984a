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
	// fresh heap memory per call (its program's allocations), or an
	// opaque [special] hook — so VerifyAllocBound can name the steps
	// behind a nonzero bound (the client's positional outs slice aside).
	Allocs bool `json:"allocs"`
	// MaxDecode is the bound applied to the step's variable-length
	// items, 0 when the step has none (scalars, fixed-size).
	MaxDecode uint32 `json:"max_decode,omitempty"`
	// Traced marks steps wrapped by the [traced] meter.
	Traced bool `json:"traced,omitempty"`
	// lengths: the step's program reads a length prefix.
	lengths bool
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
	// marshal path: the sum of its steps' programs' allocations.
	// Boxing a decoded value into its interface Value counts, so a
	// 16-field attribute struct with one string field certifies 1 on
	// the side that decodes it (one block holds its headers, Values and
	// scalars, and the string's bytes in its tail), and so does a
	// top-level string or owned byte buffer
	// (its header with its bytes); the borrow-mode 1KB put certifies a
	// server bound of 0, because the borrowed slice lands in the Call's
	// byte slot unboxed and the payload is never copied — exactly the
	// numbers the runtime's AllocsPerRun gates measure. A sequence of
	// allocating elements has no static element count: its bound covers
	// one element, and each further element adds that element's cost.
	// A caller-landed byte buffer ([alloc(caller)]) certifies 0 under a
	// precondition: the caller supplies a buffer the reply fits and
	// reuses it, so the step's bound view of it (slab.go) is rewritten.
	// No buffer, one too small or a new one costs one allocation more.
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
// each step's landing is the one compileParam stored on it, and its
// allocations and length prefixes are what its program recorded as
// compile emitted it.
func (op *OpPlan) certify() OpCert {
	oc := OpCert{Op: op.Op.Name, NOut: op.nOut, Steps: []StepCert{}}
	add := func(phase string, st *step) {
		sc := StepCert{Phase: phase, Param: st.name, Type: replyType(op.Op, st.arg).Signature(), Landing: st.landing, Traced: st.traced}
		decode := phase == PhaseReqDecode || phase == PhaseRepDecode
		cost := 0
		switch {
		case st.landing == LandSpecial && decode:
			// An opaque hook: one allocation for whatever it builds,
			// one for boxing it.
			cost = 2
		case st.landing == LandSpecial:
			// Other encode steps append into the recycled frame.
			cost = 1
		case decode:
			// A buffer viewed into a Call's slot or the caller's is not boxed.
			sc.lengths = st.prog.lengths
			if sc.lengths {
				sc.MaxDecode = op.plan.maxDecode
			}
			if !st.view && st.landing != LandCaller {
				cost = st.prog.allocs
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

// VerifyBounds proves the certificate's bounds invariant: every
// variable-length decode step carries a finite max-decode bound.
func (c *PlanCert) VerifyBounds() error {
	for _, oc := range c.Ops {
		for _, sc := range oc.Steps {
			decode := sc.Phase == PhaseReqDecode || sc.Phase == PhaseRepDecode
			if decode && sc.lengths && sc.MaxDecode == 0 {
				return fmt.Errorf("certify: %s.%s %s step is unbounded", oc.Op, sc.Param, sc.Phase)
			}
		}
	}
	return nil
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
