package repro

// The reachability gate. It type-checks every non-test Go file of the module
// with the standard library alone and reports, in one failure:
//
//   - each package-level declaration (func, method, type, var, const) that no
//     entry point reaches;
//   - each struct field that reached code never reads;
//   - each bool, numeric, string or func field that reached code never
//     writes, which is therefore always zero;
//   - each such field whose only writes are its own zero-value fallback
//     (`if x.f == c { x.f = v }`), which therefore always holds v;
//   - each field of a module struct type whose every use is the receiver of
//     a method that returns nothing, such as a counter fed by Add that
//     nothing reads;
//   - each parameter that every call, of at least two, passes the same
//     constant or nil.
//
// A method is reached when something names it, or when its receiver type is
// reached and reached code calls a method of that name through an interface
// or a type parameter (or the name stands in for a standard-library
// interface).
//
// Entry points are every main, every init, every blank `_` var and every
// declaration named in testdata/unreachable.allow. Code that only tests
// reach counts as unreached: a test exercising it is not a caller. A nested
// module (bench/) is read as an entry point but never reported. The
// allowlist holds safety code only (audits, invariant controls, conformance
// harnesses, reference constructors, counters a test checks) with one
// reason per line, and a line that no longer names a finding fails too.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestNoUnreachableCode(t *testing.T) {
	findings, err := reachFindings(".", filepath.Join("testdata", "unreachable.allow"))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Fatalf("%d findings: delete the code, or allowlist safety code in testdata/unreachable.allow\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
}

// TestReachFixture pins every rule of the gate on a small module.
func TestReachFixture(t *testing.T) {
	root := filepath.Join("testdata", "reach")
	got, err := reachFindings(root, filepath.Join(root, "unreachable.allow"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:33 unreached-func lib.Unused",
		"lib/lib.go:43 unreached-method lib.Square.Scale",
		"lib/lib.go:51 unread-field lib.Counter.hits",
		"lib/lib.go:56 unset-field lib.Config.Verbose",
		"lib/lib.go:57 unset-field lib.Config.OnDone",
		"lib/lib.go:71 unset-field lib.Cell.w",
		"lib/lib.go:77 unset-field lib.Slot.n",
		"lib/lib.go:80 unread-field lib.Pair.B",
		"lib/lib.go:97 unreached-type lib.Orphan",
		"lib/rules.go:21 self-default lib.Options.Width",
		"lib/rules.go:33 const-param lib.Options.Scaled.factor",
		"lib/rules.go:48 unreached-method lib.Disk.Cap",
		"lib/rules.go:58 write-only lib.Gauge.sent",
		"unreachable.allow:3 stale-allow lib.Gone",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// stdInterfaceMethods stands in for the standard-library interfaces that
// module types implement without naming them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true, "GoString": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true,
	"Int63": true, "Uint64": true, "Seed": true,
}

type srcPkg struct {
	path     string
	files    []*ast.File
	readOnly bool // a nested module: its roots count, its findings do not
	types    *types.Package
}

type decl struct {
	node  ast.Node
	pos   token.Pos
	kind  string
	local string // the name inside its package: Func, Type or Type.Method
	name  string // the allowlist's name: pkg.local
	pkg   *srcPkg
}

type reachModule struct {
	root  string
	fset  *token.FileSet
	pkgs  map[string]*srcPkg
	std   types.Importer
	info  *types.Info
	decls map[types.Object]*decl
	roots []ast.Node // main, init and blank vars
	files map[*token.File]*srcPkg
}

// reachFindings loads the module at root and returns its findings, sorted,
// one `file:line kind name` per line, with allowFile applied.
func reachFindings(root, allowFile string) ([]string, error) {
	m, err := loadReachModule(root)
	if err != nil {
		return nil, err
	}
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return nil, err
	}
	bare, _ := m.reach(nil)
	reached, dynamic := m.reach(allow)
	var out []finding
	valid := map[string]bool{}
	for obj, d := range m.decls {
		if d.pkg.readOnly || bare[obj] {
			continue
		}
		valid[d.name] = true
		if !reached[obj] {
			out = append(out, m.finding(d.pos, "unreached-"+d.kind, d.name))
		}
	}
	for _, f := range append(m.fieldFindings(reached), m.paramFindings(reached, dynamic)...) {
		valid[f.name] = true
		if _, ok := allow[f.name]; !ok {
			out = append(out, f)
		}
	}
	for name, line := range allow {
		if !valid[name] {
			out = append(out, finding{file: relPath(m.root, allowFile), line: line, kind: "stale-allow", name: name})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line || out[i].line == out[j].line && out[i].name < out[j].name
	})
	lines := make([]string, len(out))
	for i, f := range out {
		lines[i] = fmt.Sprintf("%s:%d %s %s", f.file, f.line, f.kind, f.name)
	}
	return lines, nil
}

type finding struct {
	file       string
	line       int
	kind, name string
}

func (m *reachModule) finding(pos token.Pos, kind, name string) finding {
	p := m.fset.Position(pos)
	return finding{file: relPath(m.root, p.Filename), line: p.Line, kind: kind, name: name}
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		path = rel
	}
	return filepath.ToSlash(path)
}

// readAllowlist maps each allowlisted name to its line number. A line is
// `pkg.Name  reason`; blank lines and lines starting with # are skipped.
func readAllowlist(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, name)
		}
		allow[name] = i + 1
	}
	return allow, nil
}

// loadReachModule parses and type-checks every non-test .go file under root,
// skipping testdata and dot directories. A directory with its own go.mod
// starts a nested module whose import paths come from that go.mod.
func loadReachModule(root string) (*reachModule, error) {
	m := &reachModule{
		root:  root,
		fset:  token.NewFileSet(),
		pkgs:  map[string]*srcPkg{},
		decls: map[types.Object]*decl{},
		files: map[*token.File]*srcPkg{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	type module struct {
		path, dir string
	}
	mods := map[string]module{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			mod, ok := mods[filepath.Dir(path)]
			if modPath, err := modulePath(filepath.Join(path, "go.mod")); err == nil {
				mod, ok = module{modPath, path}, true
			}
			if !ok {
				return fmt.Errorf("%s: no go.mod above it", path)
			}
			mods[path] = mod
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		mod := mods[dir]
		importPath := mod.path
		if rel := relPath(mod.dir, dir); rel != "." {
			importPath += "/" + rel
		}
		p := m.pkgs[importPath]
		if p == nil {
			p = &srcPkg{path: importPath, readOnly: mod.dir != root}
			m.pkgs[importPath] = p
		}
		p.files = append(p.files, f)
		m.files[m.fset.File(f.Pos())] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range m.pkgs {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}
	for _, p := range m.pkgs {
		m.collectDecls(p)
	}
	return m, nil
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// Import type-checks a module package from its parsed files, and hands
// every other path to the standard library's source importer.
func (m *reachModule) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, p.files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = tp
	return tp, nil
}

// shortPkg names a package the way the allowlist does: its import path
// relative to the module, less a leading internal/.
func shortPkg(p *srcPkg) string {
	path := p.path
	if i := strings.Index(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return strings.TrimPrefix(path, "internal/")
}

func (m *reachModule) collectDecls(p *srcPkg) {
	pkg := shortPkg(p)
	add := func(id *ast.Ident, node ast.Node, kind, name string) {
		if obj := m.info.Defs[id]; obj != nil {
			m.decls[obj] = &decl{node: node, pos: id.Pos(), kind: kind, local: name, name: pkg + "." + name, pkg: p}
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					add(d.Name, d, "method", recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
				case d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main":
					m.roots = append(m.roots, d)
				default:
					add(d.Name, d, "func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, "type", s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name == "_" {
								m.roots = append(m.roots, s)
							} else {
								add(id, s, d.Tok.String(), id.Name)
							}
						}
					}
				}
			}
		}
	}
}

func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedObj is the declaration of t's named type, through pointers.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// reach returns the declarations reachable from the roots plus the
// allowlisted declarations, and the method names reached code calls through
// an interface or a type parameter (plus the standard-library stand-ins).
func (m *reachModule) reach(allow map[string]int) (reached map[types.Object]bool, dynamic map[string]bool) {
	reached, dynamic = map[types.Object]bool{}, map[string]bool{}
	for name := range stdInterfaceMethods {
		dynamic[name] = true
	}
	work := append([]ast.Node(nil), m.roots...)
	var mark func(types.Object)
	mark = func(obj types.Object) {
		obj = origin(obj)
		d := m.decls[obj]
		if d == nil || reached[obj] {
			return
		}
		reached[obj] = true
		work = append(work, d.node)
		switch o := obj.(type) {
		case *types.Var, *types.Const:
			if tn := namedObj(o.Type()); tn != nil {
				mark(tn)
			}
		}
	}
	for obj, d := range m.decls {
		if _, ok := allow[d.name]; ok {
			mark(obj)
		}
	}
	for {
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := m.info.Uses[n]; obj != nil {
						mark(obj)
					}
				case *ast.SelectorExpr:
					if m.dynamicMethod(n) {
						dynamic[n.Sel.Name] = true
					}
				}
				return true
			})
		}
		// A method is reached when its receiver type is reached and reached
		// code calls its name through an interface.
		for obj := range m.decls {
			fn, ok := obj.(*types.Func)
			if !ok || reached[obj] || !dynamic[fn.Name()] {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && reached[namedObj(recv.Type())] {
				mark(obj)
			}
		}
		if len(work) == 0 {
			return reached, dynamic
		}
	}
}

// dynamicMethod reports whether sel selects a method of an interface or a
// type parameter, whose implementation is chosen at run time.
func (m *reachModule) dynamicMethod(sel *ast.SelectorExpr) bool {
	s := m.info.Selections[sel]
	if s == nil || s.Kind() == types.FieldVal {
		return false
	}
	recv := s.Obj().Type().(*types.Signature).Recv()
	return types.IsInterface(s.Recv()) || recv != nil && types.IsInterface(recv.Type())
}

// reachedNodes is every root and reached declaration, each with the name
// of its declaration (empty for a type, whose TypeSpec names it).
func (m *reachModule) reachedNodes(reached map[types.Object]bool) []reachedNode {
	var nodes []reachedNode
	for _, n := range m.roots {
		nodes = append(nodes, reachedNode{n, ""})
	}
	for obj, d := range m.decls {
		if reached[obj] {
			name := d.local
			if d.kind == "type" {
				name = ""
			}
			nodes = append(nodes, reachedNode{d.node, name})
		}
	}
	return nodes
}

type reachedNode struct {
	n    ast.Node
	name string // enclosing declaration, for naming anonymous structs
}

// fieldFindings judges the fields of every struct type declared in reached
// code, counting only the reads and writes of reached code.
func (m *reachModule) fieldFindings(reached map[types.Object]bool) []finding {
	nodes := m.reachedNodes(reached)
	read := map[*types.Var]bool{}
	fed := map[*types.Var]bool{} // the receiver of a method that returns nothing
	written := map[*types.Var]bool{}
	defaulted := map[*types.Var]bool{} // written only by its own zero-value fallback
	writeIdents := map[*ast.Ident]bool{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// allOf counts every field of the struct under t as read, and as
	// written too if write. deep follows the structs and arrays it holds
	// by value, as == and map keys do.
	var allOf func(t types.Type, write, deep bool)
	allOf = func(t types.Type, write, deep bool) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i).Origin()
				read[f] = true
				written[f] = written[f] || write
				if deep {
					allOf(f.Type(), write, deep)
				}
			}
		case *types.Array:
			if deep {
				allOf(u.Elem(), write, deep)
			}
		}
	}
	target := func(x ast.Expr, set map[*types.Var]bool) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			if f := field(sel.Sel); f != nil {
				set[f] = true
				writeIdents[sel.Sel] = true
			}
		}
	}
	type owned struct {
		v    *types.Var
		name string
	}
	var judged []owned
	for _, nd := range nodes {
		pkg := m.files[m.fset.File(nd.n.Pos())]
		var names []string
		if nd.name != "" {
			names = append(names, nd.name)
		}
		var stack []ast.Node
		ast.Inspect(nd.n, func(n ast.Node) bool {
			if n == nil {
				if _, ok := stack[len(stack)-1].(*ast.TypeSpec); ok {
					names = names[:len(names)-1]
				}
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.TypeSpec:
				names = append(names, n.Name.Name)
			case *ast.StructType:
				st, _ := m.info.TypeOf(n).(*types.Struct)
				if st == nil || pkg.readOnly {
					break
				}
				for i := 0; i < st.NumFields(); i++ {
					if st.Tag(i) != "" {
						allOf(st, true, false)
						break
					}
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
						judged = append(judged, owned{f, shortPkg(pkg) + "." + strings.Join(append(names, f.Name()), ".")})
					}
				}
			case *ast.AssignStmt:
				set := written
				if n.Tok == token.ASSIGN && m.isFallback(n, stack) {
					set = defaulted
				}
				for _, x := range n.Lhs {
					target(x, set)
				}
			case *ast.IncDecStmt:
				target(n.X, written)
			case *ast.CompositeLit:
				t := m.info.TypeOf(n)
				if t == nil {
					break
				}
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				if _, ok := t.Underlying().(*types.Struct); !ok {
					break
				}
				for _, e := range n.Elts {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok {
						allOf(t, true, false) // a positional literal
						break
					}
					if f := field(kv.Key.(*ast.Ident)); f != nil {
						written[f] = true
						writeIdents[kv.Key.(*ast.Ident)] = true
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
					if f := field(sel.Sel); f != nil {
						written[f] = true
						allOf(fieldOwner(m.info.Selections[sel]), false, false)
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					allOf(m.info.TypeOf(n.X), false, true)
				}
			case *ast.MapType:
				allOf(m.info.TypeOf(n.Key), false, true)
			}
			return true
		})
	}
	for _, nd := range nodes {
		var stack []ast.Node
		ast.Inspect(nd.n, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if id, ok := n.(*ast.Ident); ok && !writeIdents[id] {
				if f := field(id); f != nil && m.feeds(stack) {
					fed[f] = true
				} else if f != nil {
					read[f] = true
				}
			}
			return true
		})
	}
	var out []finding
	seen := map[*types.Var]bool{}
	for _, j := range judged {
		if seen[j.v] {
			continue
		}
		seen[j.v] = true
		switch {
		case read[j.v]:
		case fed[j.v] && m.isModuleStruct(j.v.Type()):
			out = append(out, m.finding(j.v.Pos(), "write-only", j.name))
		case !fed[j.v]:
			out = append(out, m.finding(j.v.Pos(), "unread-field", j.name))
		}
		if !written[j.v] && isKnob(j.v.Type()) {
			kind := "unset-field"
			if defaulted[j.v] {
				kind = "self-default"
			}
			out = append(out, m.finding(j.v.Pos(), kind, j.name))
		}
	}
	return out
}

// paramFindings reports each parameter of a module function that every
// reached call, of at least two, passes the same constant or nil. A function
// that reached code also uses as a value, and a method whose name is in
// dynamic, may have callers the scan cannot see, so they are skipped.
func (m *reachModule) paramFindings(reached map[types.Object]bool, dynamic map[string]bool) []finding {
	calls := map[*types.Func][]*ast.CallExpr{}
	callees := map[*ast.Ident]bool{}
	asValue := map[*types.Func]bool{}
	for _, nd := range m.reachedNodes(reached) {
		// Inspect visits a call before its callee identifier.
		ast.Inspect(nd.n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id := calleeIdent(n.Fun); id != nil {
					if fn, ok := m.info.Uses[id].(*types.Func); ok {
						calls[fn.Origin()] = append(calls[fn.Origin()], n)
						callees[id] = true
					}
				}
			case *ast.Ident:
				if fn, ok := m.info.Uses[n].(*types.Func); ok && !callees[n] {
					asValue[fn.Origin()] = true
				}
			}
			return true
		})
	}
	var out []finding
	for fn, sites := range calls {
		d := m.decls[fn]
		sig := fn.Type().(*types.Signature)
		if d == nil || d.pkg.readOnly || len(sites) < 2 || asValue[fn] || sig.Recv() != nil && dynamic[fn.Name()] {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if p.Name() == "" || p.Name() == "_" || sig.Variadic() && i == sig.Params().Len()-1 {
				continue
			}
			val := m.constArg(sites[0], i, sig)
			for _, c := range sites[1:] {
				if val != "" && m.constArg(c, i, sig) != val {
					val = ""
				}
			}
			if val != "" {
				out = append(out, m.finding(p.Pos(), "const-param", d.name+"."+p.Name()))
			}
		}
	}
	return out
}

// calleeIdent is the identifier naming the function a call invokes, through
// parentheses, a package or receiver selector and explicit instantiation.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.IndexExpr:
		return calleeIdent(f.X)
	case *ast.IndexListExpr:
		return calleeIdent(f.X)
	}
	return nil
}

// constArg is the constant, or "nil", that call passes as parameter i of
// sig, or "" when it passes anything else.
func (m *reachModule) constArg(call *ast.CallExpr, i int, sig *types.Signature) string {
	if len(call.Args) != sig.Params().Len() || call.Ellipsis.IsValid() {
		return ""
	}
	tv := m.info.Types[call.Args[i]]
	switch {
	case tv.Value != nil:
		return tv.Value.ExactString()
	case tv.IsNil():
		return "nil"
	}
	return ""
}

// isFallback reports whether the assignment on top of stack sits in the body
// of `if x.f == c` (or <=, <) and assigns to that same x.f: a zero-value
// default, not a setting.
func (m *reachModule) isFallback(as *ast.AssignStmt, stack []ast.Node) bool {
	if len(stack) < 3 || len(as.Lhs) != 1 {
		return false
	}
	body, _ := stack[len(stack)-2].(*ast.BlockStmt)
	ifs, _ := stack[len(stack)-3].(*ast.IfStmt)
	if body == nil || ifs == nil || ifs.Body != body {
		return false
	}
	cond, _ := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if cond == nil || cond.Op != token.EQL && cond.Op != token.LEQ && cond.Op != token.LSS || m.info.Types[cond.Y].Value == nil {
		return false
	}
	lhs := ast.Unparen(as.Lhs[0])
	_, isSel := lhs.(*ast.SelectorExpr)
	return isSel && types.ExprString(ast.Unparen(cond.X)) == types.ExprString(lhs)
}

// feeds reports whether the field identifier on top of stack is the
// receiver of a call to a method that returns nothing: `x.f.Add(v)`.
func (m *reachModule) feeds(stack []ast.Node) bool {
	if len(stack) < 4 {
		return false
	}
	inner, _ := stack[len(stack)-2].(*ast.SelectorExpr)
	outer, _ := stack[len(stack)-3].(*ast.SelectorExpr)
	call, _ := stack[len(stack)-4].(*ast.CallExpr)
	if inner == nil || outer == nil || call == nil || outer.X != inner || call.Fun != outer {
		return false
	}
	s := m.info.Selections[outer]
	return s != nil && s.Kind() == types.MethodVal && s.Obj().Type().(*types.Signature).Results().Len() == 0
}

// isModuleStruct reports whether t is a struct type declared in the module,
// held by value: its state lives in the field and nowhere else.
func (m *reachModule) isModuleStruct(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	_, isStruct := n.Underlying().(*types.Struct)
	return isStruct && m.pkgs[n.Obj().Pkg().Path()] != nil
}

// fieldOwner is the struct type that declares the field s selects.
func fieldOwner(s *types.Selection) types.Type {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		t = deref(t).Underlying().(*types.Struct).Field(i).Type()
	}
	return deref(t)
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isKnob reports whether a field of type t is a setting that stays zero
// unless something writes it: a bool, number, string or func.
func isKnob(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsBoolean|types.IsNumeric|types.IsString) != 0
	case *types.Signature:
		return true
	}
	return false
}
