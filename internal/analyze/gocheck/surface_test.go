package gocheck_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"flexrpc/internal/analyze/gocheck"
	"flexrpc/internal/codegen"
	"flexrpc/internal/core"
)

// The uncalled-surface gate. Every package-level name and every method
// declared in a subject package (import path under surface.subject)
// must be reachable from a non-test file outside the subject packages:
// a mark-and-sweep over "declaration A mentions name B", rooted at
// everything the non-subject packages mention, so a helper whose only
// caller is itself unreachable is reported with it. A method is also
// reached when its receiver is reachable and implements an interface
// that has it. Names that must stay without a caller are extra roots
// listed, with a reason each, in surface.allow.
//
// The same gate covers option fields. A subject is an exported struct
// type under internal/ whose name ends in Options, Policy, Config,
// Profile or Params; an embedded struct contributes its own fields.
// Each exported field must be set by a non-test file outside its own
// package — as a composite-literal key, a positional literal element,
// an assignment, an increment or an address taken — or by a preset: a
// package-level variable of the field's package whose initializer sets
// it and which a non-test file outside that package uses
// (netsim.Ethernet10 sets LinkParams.Latency). A field nothing outside
// sets is a finding unless an allow line ("pkg.Type.Field" or a ".*"
// prefix) covers it.
//
// Settable values are what a caller can vary besides the presentation:
// the subject fields, plus every exported Set…/Enable… method of an
// exported type under internal/, plus every parameter of an exported
// New…/Connect…/Dial… function under internal/. Methods that carry one
// call's data rather than configure anything are not knobs (see
// notSettable). settableValues pins the total, so a change that adds or
// removes a knob shows it in its diff.
//
// What it cannot see: files the host's GOOS excludes (a name only
// netpoll_stub.go mentions reads as uncalled — declare it there), calls
// made through reflection, and a method kept alive only because its
// receiver matches an interface some caller asserts.

// A surfaceNode is one top-level declaration of a subject package. An
// iota block is one node with several names: its values are positional.
type surfaceNode struct {
	names []string // "runtime.Client.Invoke", "xdr.NewDecoder"
	pos   token.Position
	lines int             // doc comment included
	refs  map[string]bool // names the declaration mentions
}

// viaIface says: method is reached once its receiver type is, provided
// iface (a subject interface's name, or "" for one declared elsewhere)
// is reachable too.
type viaIface struct{ iface, method string }

type surface struct {
	subject string
	nodes   map[string]*surfaceNode
	roots   map[string]bool
	via     map[string][]viaIface // by receiver type name

	fields  map[string]token.Position // subject option fields, "pkg.Type.Field"
	set     map[string]bool           // fields a non-test file outside their package sets
	presets map[string][]string       // package-level var: own-package fields its initializer sets
	usedOut map[string]bool           // names a non-test file outside their package mentions
	setters []string                  // "pkg.Type.SetX", "pkg.Type.EnableX"
	params  int                       // parameters of New…/Connect…/Dial… functions
}

func newSurface(subject string) *surface {
	return &surface{
		subject: subject,
		nodes:   make(map[string]*surfaceNode),
		roots:   make(map[string]bool),
		via:     make(map[string][]viaIface),
		fields:  make(map[string]token.Position),
		set:     make(map[string]bool),
		presets: make(map[string][]string),
		usedOut: make(map[string]bool),
	}
}

func (s *surface) isSubject(p *types.Package) bool {
	return p != nil && strings.HasPrefix(p.Path(), s.subject)
}

// name is obj's surface name: "pkg.Name" for a package-level object of
// a subject package, "pkg.Type.Method" for a method, "" for all else.
func (s *surface) name(obj types.Object) string {
	if obj == nil || !s.isSubject(obj.Pkg()) {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Name() + "." + n.Obj().Name() + "." + f.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// add records the declarations and mentions of one gocheck.Load result.
// Loads share no type universe, so everything is keyed by name.
func (s *surface) add(pkgs []*gocheck.Package) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				s.addDecl(p, d)
			}
		}
		if s.isSubject(p.Types) {
			s.addKnobs(p)
		}
		s.addWrites(p)
	}
	s.addInterfaces(pkgs)
}

func (s *surface) addDecl(p *gocheck.Package, d ast.Decl) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Name.Name == "init" || d.Name.Name == "_" {
			s.declare(p, d, nil)
			return
		}
		s.declare(p, d, d.Doc, s.name(p.Info.Defs[d.Name]))
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return
		}
		positional := false // const block with iota or implicit repetition
		for _, spec := range d.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && d.Tok == token.CONST {
				positional = positional || len(vs.Values) == 0 || mentionsIota(vs)
			}
		}
		if positional {
			var names []string
			for _, spec := range d.Specs {
				names = append(names, s.specNames(p, spec)...)
			}
			s.declare(p, d, d.Doc, names...)
			return
		}
		for _, spec := range d.Specs {
			doc := d.Doc
			var n ast.Node = spec
			if len(d.Specs) == 1 {
				n = d
			} else if vs, ok := spec.(*ast.ValueSpec); ok {
				doc = vs.Doc
			} else if ts, ok := spec.(*ast.TypeSpec); ok {
				doc = ts.Doc
			}
			s.declare(p, n, doc, s.specNames(p, spec)...)
		}
	}
}

func mentionsIota(n ast.Node) (found bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// specNames lists the surface names a type or value spec declares; a
// spec declaring a blank name yields none and so roots what it mentions.
func (s *surface) specNames(p *gocheck.Package, spec ast.Spec) []string {
	var ids []*ast.Ident
	switch spec := spec.(type) {
	case *ast.TypeSpec:
		ids = []*ast.Ident{spec.Name}
	case *ast.ValueSpec:
		ids = spec.Names
	}
	var names []string
	for _, id := range ids {
		if id.Name == "_" {
			return nil
		}
		if name := s.name(p.Info.Defs[id]); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// declare records what n mentions: as a node under names, or — when n
// declares nothing the gate tracks — as roots.
func (s *surface) declare(p *gocheck.Package, n ast.Node, doc *ast.CommentGroup, names ...string) {
	refs := make(map[string]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if name := s.name(p.Info.Uses[id]); name != "" {
				refs[name] = true
			}
		}
		return true
	})
	if len(names) == 0 || names[0] == "" {
		for r := range refs {
			s.roots[r] = true
		}
		return
	}
	start := n.Pos()
	if doc != nil {
		start = doc.Pos()
	}
	node := &surfaceNode{
		names: names,
		pos:   p.Fset.Position(n.Pos()),
		lines: p.Fset.Position(n.End()).Line - p.Fset.Position(start).Line + 1,
		refs:  refs,
	}
	for _, name := range names {
		if prev := s.nodes[name]; prev != nil {
			panic(fmt.Sprintf("surface: %s declared at %s and %s: two subject packages share a name", name, prev.pos, node.pos))
		}
		s.nodes[name] = node
	}
}

// addInterfaces records, for every subject type this load can see and
// every interface it implements, which declared methods satisfy it.
// The interfaces considered are the ones the loaded packages declare,
// write as literals, or can name through a direct import, plus error
// and the Is/As/Unwrap methods package errors looks for.
func (s *surface) addInterfaces(pkgs []*gocheck.Package) {
	type iface struct {
		t    *types.Interface
		name string
	}
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, param, result types.Type) iface {
		var params, results []*types.Var
		if param != nil {
			params = append(params, types.NewVar(token.NoPos, nil, "", param))
		}
		results = append(results, types.NewVar(token.NoPos, nil, "", result))
		sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), types.NewTuple(results...), false)
		return iface{t: types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()}
	}
	ifaces := []iface{
		{t: errType.Underlying().(*types.Interface)},
		method("Is", errType, types.Typ[types.Bool]),
		method("As", types.Universe.Lookup("any").Type(), types.Typ[types.Bool]),
		method("Unwrap", nil, errType),
	}
	scopeIfaces := func(p *types.Package) {
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, iface{it, s.name(tn)})
				}
			}
		}
	}
	visible := make(map[*types.Package]bool)
	var all []*types.Package
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visible[p] {
			return
		}
		visible[p] = true
		all = append(all, p)
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	scoped := make(map[*types.Package]bool)
	for _, p := range pkgs {
		visit(p.Types)
		for _, q := range append([]*types.Package{p.Types}, p.Types.Imports()...) {
			if !scoped[q] {
				scoped[q] = true
				scopeIfaces(q)
			}
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
				ifaces = append(ifaces, iface{t: it})
			}
		}
	}
	for _, p := range all {
		if !s.isSubject(p) {
			continue
		}
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for _, i := range ifaces {
				if !types.Implements(ptr, i.t) {
					continue
				}
				for k := 0; k < i.t.NumMethods(); k++ {
					m := i.t.Method(k)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if method := s.name(obj); method != "" {
						s.via[s.name(tn)] = append(s.via[s.name(tn)], viaIface{i.name, method})
					}
				}
			}
		}
	}
}

// optionSuffixes end the names of the struct types whose exported
// fields are settable values.
var optionSuffixes = []string{"Options", "Policy", "Config", "Profile", "Params"}

// notSettable names the exported methods that have a setter's name but
// move one call's data instead of configuring an endpoint.
var notSettable = map[string]string{
	"runtime.Call.SetOut":     "a handler's out-parameter for the call in hand",
	"runtime.Call.SetResult":  "a handler's result for the call in hand",
	"xdr.Encoder.SetBytes":    "hands the encoder the bytes an append-style producer wrote",
	"fbuf.Buffer.SetProduced": "declares how many bytes the owner produced in place",
}

func hasPrefix(name string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// addKnobs records the settable values a subject package declares: its
// option types' fields, its setters and its constructors' parameters.
func (s *surface) addKnobs(p *gocheck.Package) {
	scope := p.Types.Scope()
	for _, n := range scope.Names() {
		switch obj := scope.Lookup(n).(type) {
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() || !obj.Exported() {
				continue
			}
			for _, suffix := range optionSuffixes {
				if strings.HasSuffix(n, suffix) && structNamed(named) != nil {
					s.addFields(p, named)
					break
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if name := s.name(m); m.Exported() && hasPrefix(m.Name(), "Set", "Enable") && notSettable[name] == "" {
					s.setters = append(s.setters, name)
				}
			}
		case *types.Func:
			if obj.Exported() && hasPrefix(n, "New", "Connect", "Dial") {
				s.params += obj.Type().(*types.Signature).Params().Len()
			}
		}
	}
}

// addFields records named's exported fields; an embedded subject
// struct contributes its own.
func (s *surface) addFields(p *gocheck.Package, named *types.Named) {
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() {
			if inner := structNamed(f.Type()); inner != nil && s.isSubject(inner.Obj().Pkg()) {
				s.addFields(p, inner)
			}
			continue
		}
		if f.Exported() {
			s.fields[fieldName(named, f)] = p.Fset.Position(f.Pos())
		}
	}
}

// structNamed is t, or what t points to, when that is a named struct.
func structNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		if _, ok := named.Underlying().(*types.Struct); ok {
			return named
		}
	}
	return nil
}

func fieldName(named *types.Named, f *types.Var) string {
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + f.Name()
}

// addWrites records the subject fields p sets outside their package,
// the subject names p mentions outside their package, and — when p is
// a subject — the own-package fields each package-level variable of p
// presets.
func (s *surface) addWrites(p *gocheck.Package) {
	own := p.Types.Path()
	for _, f := range p.Files {
		s.eachWrite(p, f, func(field string, pkg *types.Package) {
			if pkg.Path() != own {
				s.set[field] = true
			}
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() != own {
					if name := s.name(obj); name != "" {
						s.usedOut[name] = true
					}
				}
			}
			return true
		})
		if !s.isSubject(p.Types) {
			continue
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					var preset []string
					s.eachWrite(p, vs, func(field string, pkg *types.Package) {
						if pkg.Path() == own {
							preset = append(preset, field)
						}
					})
					for _, id := range vs.Names {
						if name := s.name(p.Info.Defs[id]); name != "" {
							s.presets[name] = append(s.presets[name], preset...)
						}
					}
				}
			}
		}
	}
}

// eachWrite calls fn for every subject field n sets, with the package
// that declares the field.
func (s *surface) eachWrite(p *gocheck.Package, n ast.Node, fn func(field string, pkg *types.Package)) {
	write := func(named *types.Named, f *types.Var) {
		if s.isSubject(named.Obj().Pkg()) {
			fn(fieldName(named, f), named.Obj().Pkg())
		}
	}
	selected := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || p.Info.Selections[sel] == nil || p.Info.Selections[sel].Kind() != types.FieldVal {
			return
		}
		selection := p.Info.Selections[sel]
		t, path := selection.Recv(), selection.Index()
		for k, i := range path {
			named := structNamed(t)
			if named == nil {
				return
			}
			f := named.Underlying().(*types.Struct).Field(i)
			if k == len(path)-1 {
				write(named, f)
			}
			t = f.Type()
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			named := structNamed(p.Info.Types[n].Type)
			if named == nil {
				return true
			}
			st := named.Underlying().(*types.Struct)
			for i, e := range n.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					write(named, st.Field(i))
					continue
				}
				for j := 0; j < st.NumFields(); j++ {
					if id, ok := kv.Key.(*ast.Ident); ok && st.Field(j).Name() == id.Name {
						write(named, st.Field(j))
					}
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				selected(l)
			}
		case *ast.IncDecStmt:
			selected(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selected(n.X)
			}
		}
		return true
	})
}

// unset returns the subject fields nothing outside their package sets,
// directly or through a preset it uses, in source order.
func (s *surface) unset() []string {
	set := maps.Clone(s.set)
	for v, fields := range s.presets {
		for _, f := range fields {
			set[f] = set[f] || s.usedOut[v]
		}
	}
	var out []string
	for f := range s.fields {
		if !set[f] {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := s.fields[out[i]], s.fields[out[j]]
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line || a.Line == b.Line && out[i] < out[j]
	})
	return out
}

// uncovered is the names no pattern in allow covers.
func uncovered(names, allow []string) (out []string) {
	for _, n := range names {
		covered := false
		for _, a := range allow {
			covered = covered || matches(a, n)
		}
		if !covered {
			out = append(out, n)
		}
	}
	return out
}

// matches reports whether an allowlist pattern covers name: an exact
// "pkg.Name" or "pkg.Type.Method", or a prefix ending in ".*" for the
// name itself and everything under it ("pkg.Type.*", "pkg.*").
func matches(pattern, name string) bool {
	if prefix, ok := strings.CutSuffix(pattern, ".*"); ok {
		return name == prefix || strings.HasPrefix(name, prefix+".")
	}
	return name == pattern
}

// dead sweeps from the roots plus every name an allow pattern covers
// and returns the declarations never reached, in source order.
func (s *surface) dead(allow []string) []*surfaceNode {
	live := make(map[*surfaceNode]bool)
	var mark func(name string)
	mark = func(name string) {
		n := s.nodes[name]
		if n == nil || live[n] {
			return
		}
		live[n] = true
		for r := range n.refs {
			mark(r)
		}
	}
	for r := range s.roots {
		mark(r)
	}
	for name := range s.nodes {
		for _, pattern := range allow {
			if matches(pattern, name) {
				mark(name)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for recv, edges := range s.via {
			if !live[s.nodes[recv]] {
				continue
			}
			for _, e := range edges {
				if m := s.nodes[e.method]; m != nil && !live[m] && (e.iface == "" || live[s.nodes[e.iface]]) {
					mark(e.method)
					changed = true
				}
			}
		}
	}
	seen := make(map[*surfaceNode]bool)
	var dead []*surfaceNode
	for _, n := range s.nodes {
		if !live[n] && !seen[n] {
			seen[n] = true
			dead = append(dead, n)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return dead
}

func totalLines(nodes []*surfaceNode) (n int) {
	for _, d := range nodes {
		n += d.lines
	}
	return n
}

type allowLine struct {
	line    int
	pattern string
}

const maxAllowLines = 9

// settableValues pins the settable-value count defined in the gate's
// header: option fields + setters + constructor parameters.
const settableValues = 154

// parseAllow reads the allowlist: "pattern reason…" per line, blank
// lines and #-comments skipped. A line without a reason is a finding.
func parseAllow(file, text string) (lines []allowLine, findings []string) {
	for i, l := range strings.Split(text, "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		pattern, reason, _ := strings.Cut(l, " ")
		if strings.TrimSpace(reason) == "" {
			findings = append(findings, fmt.Sprintf("%s:%d: %s: no reason given", file, i+1, pattern))
		}
		lines = append(lines, allowLine{i + 1, pattern})
	}
	if len(lines) > maxAllowLines {
		findings = append(findings, fmt.Sprintf("%s: %d entries, at most %d allowed", file, len(lines), maxAllowLines))
	}
	return lines, findings
}

// check returns one finding per unreachable declaration and per bad
// allowlist line; trim is cut from the front of reported file names.
func (s *surface) check(allowFile, allowText, trim string) []string {
	allow, findings := parseAllow(allowFile, allowText)
	unallowed := s.dead(nil)
	unset := s.unset()
	var patterns []string
	for _, a := range allow {
		stale := len(uncovered(unset, []string{a.pattern})) == len(unset)
		for _, n := range unallowed {
			for _, name := range n.names {
				stale = stale && !matches(a.pattern, name)
			}
		}
		if stale {
			findings = append(findings, fmt.Sprintf("%s:%d: stale: %s covers nothing that lacks a caller", allowFile, a.line, a.pattern))
		}
		patterns = append(patterns, a.pattern)
	}
	for _, n := range s.dead(patterns) {
		findings = append(findings, fmt.Sprintf("%s:%d: %s has no caller outside tests (%d lines)",
			strings.TrimPrefix(n.pos.Filename, trim), n.pos.Line, strings.Join(n.names, ", "), n.lines))
	}
	for _, f := range uncovered(unset, patterns) {
		pos := s.fields[f]
		findings = append(findings, fmt.Sprintf("%s:%d: %s is set by no non-test file outside its package",
			strings.TrimPrefix(pos.Filename, trim), pos.Line, f))
	}
	return findings
}

// generatedCaller type-checks the stub compiler's output for the
// interface TestGeneratedSourceTypeChecks uses against the loaded
// packages, so what generated code calls counts as called.
func generatedCaller(t *testing.T, root string, pkgs []*gocheck.Package) *gocheck.Package {
	t.Helper()
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(root, "internal/codegen/testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA,
		Filename: "shapes.idl",
		Source:   read("shapes.idl"),
		PDL:      read("shapes.pdl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := codegen.Generate(c, codegen.Options{Package: "gen"})
	if err != nil {
		t.Fatal(err)
	}
	fset := pkgs[0].Fset
	f, err := parser.ParseFile(fset, "gen.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(loadedImporter)
	for _, p := range pkgs {
		loaded.add(p.Types)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object)}
	tpkg, err := (&types.Config{Importer: loaded}).Check("gen", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("generated source: %v", err)
	}
	return &gocheck.Package{ImportPath: "gen", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// loadedImporter resolves imports to packages a Load already produced.
type loadedImporter map[string]*types.Package

func (m loadedImporter) add(p *types.Package) {
	if m[p.Path()] == nil {
		m[p.Path()] = p
		for _, imp := range p.Imports() {
			m.add(imp)
		}
	}
}

func (m loadedImporter) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("package %q was not loaded", path)
}

// TestSurfaceFixture runs the gate on testdata/src/surface: a dead
// function (and the helper only it calls), a function only a _test.go
// calls, a method reached only through an interface, an allowlisted
// name, a stale allowlist line, and an option type with a field the
// command sets, one only a preset it uses sets, and one that only a
// _test.go and its own package set.
func TestSurfaceFixture(t *testing.T) {
	root := repoRoot(t)
	const dir = "internal/analyze/gocheck/testdata/src/surface"
	pkgs, err := gocheck.Load(root, "./"+dir+"/...")
	if err != nil {
		t.Fatal(err)
	}
	s := newSurface("flexrpc/" + dir + "/internal/")
	s.add(pkgs)
	allow, err := os.ReadFile(filepath.Join(root, dir, "surface.allow"))
	if err != nil {
		t.Fatal(err)
	}
	got := s.check("surface.allow", string(allow), filepath.Join(root, dir)+string(filepath.Separator))
	want := []string{
		"surface.allow:3: stale: lib.Used covers nothing that lacks a caller",
		"internal/lib/lib.go:22: lib.Dead has no caller outside tests (2 lines)",
		"internal/lib/lib.go:24: lib.orphan has no caller outside tests (1 lines)",
		"internal/lib/lib.go:27: lib.OnlyTested has no caller outside tests (2 lines)",
		"internal/lib/lib.go:37: lib.Options.Tested is set by no non-test file outside its package",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSurface is the gate over the repository: the module, bench/ and
// generated stubs are the callers, internal/ is the subject.
func TestSurface(t *testing.T) {
	root := repoRoot(t)
	module, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := gocheck.Load(filepath.Join(root, "bench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	s := newSurface("flexrpc/internal/")
	s.add(module)
	s.add(bench)
	s.add([]*gocheck.Package{generatedCaller(t, root, module)})

	allowText, err := os.ReadFile(filepath.Join(root, "surface.allow"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.check("surface.allow", string(allowText), root+string(filepath.Separator)) {
		t.Error(f)
	}
	fields, setters, params := len(s.fields), len(s.setters), s.params
	if n := fields + setters + params; n != settableValues {
		t.Errorf("%d settable values (%d option fields, %d setters, %d constructor parameters), settableValues pins %d: set it to %d",
			n, fields, setters, params, settableValues, n)
	}
	if testing.Verbose() {
		t.Logf("%d settable values: %d option fields, %d setters, %d constructor parameters",
			fields+setters+params, fields, setters, params)
		allow, _ := parseAllow("surface.allow", string(allowText))
		unset := s.unset()
		for i, a := range allow {
			var others []string
			for j, b := range allow {
				if i != j {
					others = append(others, b.pattern)
				}
			}
			kept := len(uncovered(unset, others)) - len(uncovered(unset, append(others, a.pattern)))
			t.Logf("%s keeps %d declaration lines and %d option fields", a.pattern, totalLines(s.dead(others)), kept)
		}
		t.Logf("%d declaration lines lack a caller and %d option fields a writer before the allowlist",
			totalLines(s.dead(nil)), len(unset))
	}
}
