package sortlast

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitlyCalled are method names the standard library calls through
// its own interfaces (fmt, errors, encoding/json, net/http), so no file
// of the tree calls them.
var implicitlyCalled = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "MarshalJSON": true, "ServeHTTP": true,
}

// testOnlyExports are the exported functions and methods no other
// non-test file reaches, kept on purpose, each with its reason:
// references and oracles the tests compare against, fixtures they
// build from (moving them into test files would not make the tree
// smaller, and several packages' tests share them), the chaos tests'
// fault-injection controls, the facade's public API, and the paper's
// presets that run time reaches through a name table.
var testOnlyExports = map[string]string{
	"rle.Encode":                  "reference encoder ParseWire, EncodeRegion and the wire tests are checked against",
	"rle.Unpack":                  "reference parser ParseWire is checked against",
	"rle.Encoding.Decode":         "reference decoder the round-trip tests invert Encode with",
	"frame.Image.PackRegion":      "reference packer EncodeRegion is checked against",
	"frame.Image.CompositeRegion": "reference compositor CompositeWire and CompositeImage are checked against",
	"frame.Image.StoreRegion":     "reference store StoreWire is checked against",
	"frame.PackPixels":            "reference pixel packer the region fast paths are checked against",
	"core.Ownership.Area":         "oracle: the owner-merge and gather tests bound what a rank stores by its owned area",
	"core.Build":                  "BenchmarkAblationInterleave's BSLC section-size knob; every program builds through core.New",
	"obs.Registry.Write":          "the golden exposition tests of obs, server and fleet render the registry with it",
	"frame.XYWH":                  "rectangle fixture constructor of the frame, partition and core tests",
	"frame.NewImageBounds":        "image fixture constructor of the frame and core tests",
	"frame.Image.NonBlankEqual":   "image comparison of the frame and core tests",
	"frame.Image.Set":             "pixel fixture setter of the frame, core and rle tests",
	"frame.Rect.Overlaps":         "rectangle predicate of the frame and core tests",
	"pool.Classes.Class":          "class-table probe of the frame and mp tests, each checking its own pool's range",
	"volume.Sphere":               "volume fixture of the render and volume tests",
	"volume.Checker":              "volume fixture of the render DDA golden test",
	"volume.Ramp":                 "volume fixture of the volume and render tests",
	"volume.Volume.CountAbove":    "volume probe of the dataset tests",
	"volume.Box.Volume":           "oracle: the partition tests check that the boxes tile the volume by voxel count",
	"trace.ValidateNesting":       "span-tree oracle the trace, mpnet and harness tests check recordings against",
	"trace.Wire.SpanCount":        "span-count probe of the trace and fleet truncation tests",
	"faultinject.New":             "chaos-test control: builds the server.Config.Chaos injector",
	"faultinject.Injector.Crash":  "chaos-test control of the server.Config.Chaos hook",
	"faultinject.Injector.Stall":  "chaos-test control of the server.Config.Chaos hook",
	"sortlast.Methods":            "public facade API: the only listing of Render's method names an importer can reach",
	"sortlast.Datasets":           "public facade API: the only listing of Render's dataset names an importer can reach",
	"sortlast.RenderRaw":          "public facade API: renders an importer's own voxels (ExampleRenderRaw)",
	"trace.NewContext":            "a caller's sampled trace context, the README's tracing example",
	"transfer.EngineLow":          "paper preset; run time reaches it through Preset's table",
	"transfer.EngineHigh":         "paper preset; run time reaches it through Preset's table",
	"transfer.Head":               "paper preset; run time reaches it through Preset's table",
	"transfer.Cube":               "paper preset; run time reaches it through Preset's table",
	"volume.EngineBlock":          "paper dataset; run time reaches it through Generate's switch",
	"volume.HeadPhantom":          "paper dataset; run time reaches it through Generate's switch",
	"volume.SolidCube":            "paper dataset; run time reaches it through Generate's switch",
}

// modulePath is the root module's import path; bench/ is the module
// sortlast/bench, which replaces sortlast with this tree.
const modulePath = "sortlast"

// treeLoader type-checks the tree's packages from source, in one shared
// types.Info, and the standard library from GOROOT's source.
type treeLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path → parsed non-test files
}

// dir maps an import path of the tree to its directory.
func (l *treeLoader) dir(path string) (string, bool) {
	if path == modulePath {
		return ".", true
	}
	rest, ok := strings.CutPrefix(path, modulePath+"/")
	return filepath.FromSlash(rest), ok
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	dir, ok := l.dir(path)
	if !ok {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// loadTree type-checks every package with non-test Go files under the
// root, bench/ included, and returns the loader holding them.
func loadTree(t *testing.T) *treeLoader {
	// A pure-Go view of the standard library: the census needs its API,
	// not cgo's variants of it, and no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &treeLoader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		importPath := modulePath
		if path != "." {
			importPath += "/" + filepath.ToSlash(path)
		}
		_, err = l.Import(importPath)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestNoTestOnlyExports keeps the feature census decided: an exported
// function or method declared in a non-test file of internal/ or the
// root package must be reached from some other non-test file of the
// tree (bench/ included), or be allowlisted above with its reason. A
// name only its own file and the tests reach is a capability nothing
// runs. Uses are resolved by go/types to the object they denote, so a
// same-named identifier elsewhere shields nothing; a method reached
// through an interface counts as used where that interface method is
// used. The interface methods of the tree's own interfaces are
// censused too.
func TestNoTestOnlyExports(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the tree and the standard library from source; the plain run covers it")
	}
	l := loadTree(t)
	file := func(pos token.Pos) string { return l.fset.Position(pos).Filename }

	// uses: object → non-test files reaching it. ifaceUses: the
	// interface methods used, and where.
	uses := map[types.Object]map[string]bool{}
	type ifaceUse struct {
		m    *types.Func
		file string
	}
	var ifaceUses []ifaceUse
	isIface := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv()
		return recv != nil && types.IsInterface(recv.Type())
	}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if isIface(fn) {
				ifaceUses = append(ifaceUses, ifaceUse{fn, file(id.Pos())})
			}
		}
		if uses[obj] == nil {
			uses[obj] = map[string]bool{}
		}
		uses[obj][file(id.Pos())] = true
	}

	type decl struct {
		key  string
		fn   *types.Func
		file string
	}
	var decls []decl
	for path, files := range l.files {
		dir, _ := l.dir(path)
		if dir != "." && !strings.HasPrefix(dir, "internal"+string(filepath.Separator)) {
			continue
		}
		pkg := l.pkgs[path].Name()
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || (d.Recv != nil && implicitlyCalled[d.Name.Name]) {
						continue
					}
					fn := l.info.Defs[d.Name].(*types.Func)
					key := pkg + "." + fn.Name()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						key = pkg + "." + recvName(recv.Type()) + "." + fn.Name()
					}
					decls = append(decls, decl{key, fn, file(d.Pos())})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						it, ok := l.info.Defs[ts.Name].Type().Underlying().(*types.Interface)
						if !ok {
							continue
						}
						for i := 0; i < it.NumExplicitMethods(); i++ {
							if m := it.ExplicitMethod(i); m.Exported() {
								decls = append(decls, decl{pkg + "." + ts.Name.Name + "." + m.Name(), m, file(m.Pos())})
							}
						}
					}
				}
			}
		}
	}

	// An allowlisted interface method stands for a use of it, so the
	// methods implementing it are reached too.
	for _, d := range decls {
		if _, ok := testOnlyExports[d.key]; ok && isIface(d.fn) {
			ifaceUses = append(ifaceUses, ifaceUse{d.fn, "allowlist"})
		}
	}
	reached := func(d decl) bool {
		for f := range uses[d.fn] {
			if f != d.file {
				return true
			}
		}
		recv := d.fn.Type().(*types.Signature).Recv()
		if recv == nil || isIface(d.fn) {
			return false
		}
		named := recv.Type()
		if p, ok := named.(*types.Pointer); ok {
			named = p.Elem()
		}
		for _, u := range ifaceUses {
			if u.m.Name() != d.fn.Name() || u.file == d.file {
				continue
			}
			it := u.m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	var offenders []string
	allowed := map[string]bool{}
	for _, d := range decls {
		switch _, ok := testOnlyExports[d.key]; {
		case reached(d):
		case ok:
			allowed[d.key] = true
		default:
			offenders = append(offenders, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(offenders)
	if len(offenders) > 0 {
		t.Errorf("exported but reached from no other non-test file — delete, or allowlist with a reason:\n\t%s",
			strings.Join(offenders, "\n\t"))
	}
	for key, reason := range testOnlyExports {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names nothing test-only: drop it", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
}

// recvName is the name of a method receiver's named type.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}
