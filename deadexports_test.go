package stellar_test

// TestNoDeadExports keeps the exported surface honest: every exported
// package-level name, method and struct field must be used by some
// non-test file of the module or of the nested benchmark module. A name
// only tests reach is surface nobody runs; delete it, or give it a
// one-line reason here.

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

// deadExportAllow maps each exported name kept with no non-test use to
// the reason it stays.
var deadExportAllow = map[string]string{
	"internal/mitctl.Controller.GlassErrors":          "looking-glass reader the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/mitctl.Controller.ErrorClasses":         "error roll-up the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/mitctl.CommunityChannel.SignalingPaths": "signaling-path count the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/routeserver.RouteServer.GlassDump":      "RIB dump the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/routeserver.RouteServer.RejectionCount": "rejection count the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/ixp.IXP.NullRouted":                     "live null routes the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/ixp.IXP.NullRouteCount":                 "null-route count the ixpd -http endpoint will serve (ROADMAP 2a)",
	"internal/rib.Table.FindByPathID":                 "channel oracle's reference lookup, kept on purpose (ROADMAP 7)",
	"internal/rib.DiffSnapshots":                      "channel oracle's reference diff, kept on purpose (ROADMAP 7)",
	"internal/rib.Diff.Empty":                         "channel oracle's reference diff, kept on purpose (ROADMAP 7)",
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
}

func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := checkDeadExports(dead, deadExportAllow)
	for _, name := range unlisted {
		t.Errorf("%s: exported but no non-test file uses it; delete it (or allowlist it with a reason)", name)
	}
	for _, name := range stale {
		t.Errorf("%s: allowlisted but no longer dead; drop its deadExportAllow entry", name)
	}
}

// TestDeadExportScanner runs the scanner on a planted module: a dead
// func, method and field are reported; a method satisfying a called
// interface method and a json-tagged field are spared; a stale
// allowlist entry is caught.
func TestDeadExportScanner(t *testing.T) {
	dead, err := deadExports(filepath.Join("testdata", "deadexports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Dead", "lib.Square.Perimeter", "lib.Square.Unused"}
	if !reflect.DeepEqual(dead, want) {
		t.Fatalf("dead = %q, want %q", dead, want)
	}
	unlisted, stale := checkDeadExports(dead, map[string]string{
		"lib.Dead": "planted",
		"lib.Used": "stale: lib.Used has a caller",
	})
	if want := []string{"lib.Square.Perimeter", "lib.Square.Unused"}; !reflect.DeepEqual(unlisted, want) {
		t.Errorf("unlisted = %q, want %q", unlisted, want)
	}
	if want := []string{"lib.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}

// checkDeadExports splits dead against allow: dead names allow does not
// list, and allow entries that are not dead.
func checkDeadExports(dead []string, allow map[string]string) (unlisted, stale []string) {
	isDead := make(map[string]bool, len(dead))
	for _, name := range dead {
		isDead[name] = true
		if allow[name] == "" {
			unlisted = append(unlisted, name)
		}
	}
	for name := range allow {
		if !isDead[name] {
			stale = append(stale, name)
		}
	}
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

// deadExports type-checks the non-test packages of the modules rooted at
// dirs, in order (a later module may import an earlier one's packages),
// and returns, sorted, every exported package-level name, method of a
// package-level type, and field of a package-level struct that no
// non-test file of those modules uses. A name is printed relative to its
// module's path: "internal/mitctl.Controller.GlassErrors". Spared:
// methods satisfying an interface method that is called (or that
// belongs to an interface from outside the scanned modules), methods the
// standard library finds by name (String, Error, sort, heap, JSON and
// text marshalling), embedded fields, and fields with a struct tag.
func deadExports(dirs ...string) ([]string, error) {
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
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg
			modOf[pkg] = lp.Module.Path
			for _, obj := range info.Uses {
				used[origin(obj)] = true
			}
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

	var dead []string
	report := func(pkg *types.Package, name string) {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), modOf[pkg]), "/")
		if rel == "" {
			rel = pkg.Name()
		}
		dead = append(dead, rel+"."+name)
	}
	for _, pkg := range checked {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(pkg, name)
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
					report(pkg, name+"."+m.Name())
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !used[f] && !f.Embedded() && st.Tag(i) == "" {
					report(pkg, name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
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
