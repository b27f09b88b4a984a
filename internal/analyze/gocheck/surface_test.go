package gocheck_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
// What it cannot see: files the host's GOOS excludes (a name only
// netpoll_stub.go mentions reads as uncalled — declare it there), struct
// fields, and calls made through reflection.

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
}

func newSurface(subject string) *surface {
	return &surface{
		subject: subject,
		nodes:   make(map[string]*surfaceNode),
		roots:   make(map[string]bool),
		via:     make(map[string][]viaIface),
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

const maxAllowLines = 15

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
	var patterns []string
	for _, a := range allow {
		stale := true
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
// name and a stale allowlist line.
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
	if testing.Verbose() {
		allow, _ := parseAllow("surface.allow", string(allowText))
		for i, a := range allow {
			var others []string
			for j, b := range allow {
				if i != j {
					others = append(others, b.pattern)
				}
			}
			t.Logf("%s keeps %d declaration lines", a.pattern, totalLines(s.dead(others)))
		}
		t.Logf("%d declaration lines lack a caller before the allowlist", totalLines(s.dead(nil)))
	}
}
