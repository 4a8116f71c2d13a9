package stellar_test

// TestNoDeadExports keeps the exported surface honest: every exported
// package-level name, method and struct field must be used by some
// non-test file of the module or of the nested benchmark module. A name
// only tests reach is surface nobody runs; delete it, or give it a
// one-line reason here. A field must also be both set and read: a knob
// nobody sets is a constant, and an output nobody reads is dead code.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow maps each exported name kept with no non-test use, or
// each field kept though no non-test file sets it or reads it, to the
// reason it stays.
var deadExportAllow = map[string]string{
	"internal/mitctl.Controller.GlassErrors":          "looking-glass reader the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/mitctl.Controller.ErrorClasses":         "error roll-up the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/mitctl.CommunityChannel.SignalingPaths": "signaling-path count the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/routeserver.RouteServer.GlassDump":      "RIB dump the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/routeserver.RouteServer.RejectionCount": "rejection count the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/ixp.IXP.NullRouted":                     "live null routes the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/ixp.IXP.NullRouteCount":                 "null-route count the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/bgp.UnmarshalFlowSpec":                  "FlowSpec NLRI decoder the SAFI 133 wire path will call (ROADMAP 3)",
	"internal/bgp.FlowSpec.Marshal":                   "FlowSpec NLRI encoder the SAFI 133 wire path will call (ROADMAP 3)",
	"internal/fabric.Pool.Workers":                    "worker bound that TickSink's per-worker contract is stated in",
	"internal/bgp.NotifMessageHeaderError":            "NOTIFICATION error code (RFC 4271 §4.5), kept for codec completeness",
	"internal/bgp.NotifUpdateMessageError":            "NOTIFICATION error code (RFC 4271 §4.5), kept for codec completeness",
	"internal/bgp.NotifFSMError":                      "NOTIFICATION error code (RFC 4271 §4.5), kept for codec completeness",
	"internal/bgp.CeaseAdminReset":                    "Cease subcode (RFC 4486), kept for codec completeness",
	"internal/bgp.CeaseConnectionRejected":            "Cease subcode (RFC 4486), kept for codec completeness",
	"internal/bgp.CapCodeRouteRefresh":                "capability code (RFC 2918), kept for codec completeness",
	"internal/bgp.ExtTypeTwoOctetAS":                  "extended-community type (RFC 4360), kept for codec completeness",
	"internal/bgp.ExtSubTypeRouteTarget":              "extended-community sub-type (RFC 4360), kept for codec completeness",
	"internal/bgpsession.Config.AddPath":              "the only writer of bgp.Options, whose type is in the signatures of bgp.Marshal/Unmarshal that benchmark/ calls",
	"internal/bgpsession.Config.ExpectAS":             "checks input from outside; the hostile-member work (ROADMAP 10) may enable it",
	"internal/bgppipe.Options.Buffer":                 "benchmark/wire.go builds Options{}, so the field stays settable",
	"internal/routeserver.ControllerEvent.PeerAS":     "benchmark/layers.go sets it",
	"internal/routeserver.PeerUpdates.Peer":           "HandleUpdateBatch's per-member layout, kept only for benchmark/layers.go, which reads Updates; goes with that probe (ROADMAP 21)",
	"internal/netpkt.MustParseMAC":                    "for constants in tests and examples; the fabric godoc example uses it",
	"internal/hw.Snapshot.Ports":                      "the cross-package tests' hardware-side oracle, which the invariant checker (ROADMAP 5a) will read",
	"internal/fabric.offerHash.FlowHash":              "Offer's zero-size FlowHash, kept only so benchmark/layers.go's ClassifyHashed call compiles; it goes with that call (ROADMAP 9n)",
	"main.timedSource.Offers":                         "benchmark/attack.go's wrapper still has the method engine.Source dropped; benchmark/ changes only with the benchmark, which deletes it then",
}

func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := checkDeadExports(dead, deadExportAllow)
	for _, name := range unlisted {
		t.Errorf("%s: %s; delete it (or allowlist it with a reason)", name, dead[name])
	}
	for _, name := range stale {
		t.Errorf("%s: allowlisted but no longer dead; drop its deadExportAllow entry", name)
	}
}

// TestDeadExportScanner runs the scanner on a planted module: a dead
// func, method and field, a field nobody sets, a Config field only its
// own package's default sets and a field nobody reads are reported; a
// method satisfying a called interface method, a json-tagged field, a
// struct JSON reaches, a field read only by op= and an atomic set only
// by a method call are spared; a stale allowlist entry is caught.
func TestDeadExportScanner(t *testing.T) {
	dead, err := deadExports(filepath.Join("testdata", "deadexports"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"lib.Dead":             whyUnused,
		"lib.Square.Perimeter": whyUnused,
		"lib.Square.Unused":    whyUnused,
		"lib.Dial.Scale":       whyNeverSet,
		"lib.Config.Limit":     whySetInside,
		"lib.Dial.Label":       whyNeverRead,
	}
	if !reflect.DeepEqual(dead, want) {
		t.Fatalf("dead = %q, want %q", dead, want)
	}
	unlisted, stale := checkDeadExports(dead, map[string]string{
		"lib.Dead":          "planted",
		"lib.Square.Unused": "planted",
		"lib.Used":          "stale: lib.Used has a caller",
	})
	if want := []string{"lib.Config.Limit", "lib.Dial.Label", "lib.Dial.Scale", "lib.Square.Perimeter"}; !reflect.DeepEqual(unlisted, want) {
		t.Errorf("unlisted = %q, want %q", unlisted, want)
	}
	if want := []string{"lib.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}

// checkDeadExports splits dead against allow, each sorted: dead names
// allow does not list, and allow entries that are not dead.
func checkDeadExports(dead, allow map[string]string) (unlisted, stale []string) {
	for name := range dead {
		if allow[name] == "" {
			unlisted = append(unlisted, name)
		}
	}
	for name := range allow {
		if dead[name] == "" {
			stale = append(stale, name)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	return unlisted, stale
}

// listedPackage is the part of `go list -json` the scanner reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Why a name is reported.
const (
	whyUnused    = "exported but no non-test file uses it"
	whyNeverSet  = "read but no non-test file sets it: a knob nobody sets is a constant"
	whySetInside = "a Config/Options field no non-test file outside its package sets: a default nobody overrides is a constant"
	whyNeverRead = "set but no non-test file reads it: an output nobody reads"
)

// fieldUse is how the non-test files use one field.
type fieldUse struct {
	set, read, setOutside bool // setOutside: set by a file of another package
}

// deadExports type-checks the non-test packages of the modules rooted at
// dirs, in order (a later module may import an earlier one's packages),
// and returns, keyed by name, why each exported package-level name,
// method of a package-level type, or field of a package-level struct is
// dead. A name is printed relative to its module's path:
// "internal/mitctl.Controller.GlassErrors". A name is dead when no
// non-test file of those modules uses it. A field is dead too when
// nothing sets it, when nothing reads it, or, in a struct named Config
// or Options, when only its own package sets it. A composite literal,
// the target of =, op= or ++, &x.F and a pointer-receiver method call
// on x.F set a field; every other use reads it, and so do op=, ++, &x.F
// and a pointer-receiver call.
// Spared: methods satisfying an interface method that is called (or
// that belongs to an interface from outside the scanned modules),
// methods the standard library finds by name (String, Error, sort,
// heap, JSON and text marshalling), embedded fields, and fields with a
// struct tag; from the set and read rules, every field of a struct with
// a tagged field or reachable from one, which encoding/json reads and
// sets.
func deadExports(dirs ...string) (map[string]string, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	modOf := map[*types.Package]string{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	used := map[types.Object]bool{}
	fields := map[*types.Var]*fieldUse{}
	for _, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range pkgs {
			exports[lp.ImportPath] = lp.Export
			if lp.Module == nil || checked[lp.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Uses:       map[*ast.Ident]types.Object{},
				Types:      map[ast.Expr]types.TypeAndValue{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg
			modOf[pkg] = lp.Module.Path
			for _, obj := range info.Uses {
				used[origin(obj)] = true
			}
			recordFieldUses(pkg, info, files, fields)
		}
	}
	// ifaces maps a method name to the interfaces whose method of that
	// name is called: the scanned modules' interface methods that some
	// file uses, and every method of an interface from outside them (the
	// standard library's io.Writer, the universe's error), whose callers
	// the scan does not see.
	ifaces := map[string][]*types.Interface{}
	for obj := range used {
		switch o := obj.(type) {
		case *types.Func:
			recv := o.Type().(*types.Signature).Recv()
			if recv == nil || modOf[o.Pkg()] == "" {
				continue
			}
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaces[o.Name()] = append(ifaces[o.Name()], it)
			}
		case *types.TypeName:
			if it, ok := o.Type().Underlying().(*types.Interface); ok && (o.Pkg() == nil || modOf[o.Pkg()] == "") {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
	}
	satisfies := func(m *types.Func, recv *types.Named) bool {
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}
	jsonStructs := jsonReachable(checked)

	dead := map[string]string{}
	report := func(pkg *types.Package, name, why string) {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), modOf[pkg]), "/")
		if rel == "" {
			rel = pkg.Name()
		}
		dead[rel+"."+name] = why
	}
	for _, pkg := range checked {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(pkg, name, whyUnused)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !stdlibByName[m.Name()] && !satisfies(m, named) {
					report(pkg, name+"."+m.Name(), whyUnused)
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || st.Tag(i) != "" {
					continue
				}
				u := fields[f]
				switch {
				case u == nil:
					report(pkg, name+"."+f.Name(), whyUnused)
				case jsonStructs[st]:
				case !u.set:
					report(pkg, name+"."+f.Name(), whyNeverSet)
				case !u.read:
					report(pkg, name+"."+f.Name(), whyNeverRead)
				case !u.setOutside && (name == "Config" || name == "Options"):
					report(pkg, name+"."+f.Name(), whySetInside)
				}
			}
		}
	}
	return dead, nil
}

// recordFieldUses adds to fields how the files of pkg set and read
// struct fields.
func recordFieldUses(pkg *types.Package, info *types.Info, files []*ast.File, fields map[*types.Var]*fieldUse) {
	use := func(f *types.Var, set, read bool) {
		f = f.Origin()
		u := fields[f]
		if u == nil {
			u = new(fieldUse)
			fields[f] = u
		}
		u.set = u.set || set
		u.read = u.read || read
		u.setOutside = u.setOutside || set && f.Pkg() != pkg
	}
	fieldOf := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// sets holds the selectors the first pass saw set; readToo those of
	// them that are read as well.
	sets, readToo := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	var setExpr func(e ast.Expr, read bool)
	setExpr = func(e ast.Expr, read bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if fieldOf(e.Sel) == nil {
				return
			}
			sets[e.Sel], readToo[e.Sel] = true, read
			// x.A.B = v sets A too when A holds its struct by value.
			if _, ptr := info.Types[e.X].Type.Underlying().(*types.Pointer); !ptr {
				setExpr(e.X, read)
			}
		case *ast.IndexExpr:
			// x.A[i] = v sets an array A; a slice or map A is only read.
			if _, arr := info.Types[e.X].Type.Underlying().(*types.Array); arr {
				setExpr(e.X, read)
			}
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						sets[kv.Key.(*ast.Ident)] = true
					} else {
						use(st.Field(i), true, false)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					setExpr(lhs, n.Tok != token.ASSIGN && n.Tok != token.DEFINE)
				}
			case *ast.IncDecStmt:
				setExpr(n.X, true)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							setExpr(e, false)
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setExpr(n.X, true)
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					break
				}
				if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						setExpr(sel.X, true)
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Var); ok && f.IsField() {
			use(f, sets[id], !sets[id] || readToo[id])
		}
	}
}

// jsonReachable returns the struct types encoding/json walks: every
// struct with a tagged field, and every struct reachable from one
// through its fields.
func jsonReachable(pkgs map[string]*types.Package) map[*types.Struct]bool {
	seen := map[*types.Struct]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.Underlying().(type) {
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			if seen[t] {
				return
			}
			seen[t] = true
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Tag(i) != "" {
					walk(st)
					break
				}
			}
		}
	}
	return seen
}

// stdlibByName lists the methods the standard library calls by name
// through interfaces the scan may never see referenced.
var stdlibByName = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList lists the packages of the module at dir and all their
// dependencies, dependencies first, with export data for the ones the
// scan imports rather than checks.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, err
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
