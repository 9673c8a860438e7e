package sortlast

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitlyCalled are method names the runtime or the standard library
// call through an interface, so no caller in the tree spells them.
var implicitlyCalled = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "MarshalJSON": true, "ServeHTTP": true,
}

// testOnlyExports are the exported functions no other non-test file
// names, kept on purpose, each with its reason: reference
// implementations and fixtures the tests compare against or build from
// (moving them into test files would not make the tree smaller, and
// several packages' tests share them), the chaos tests' fault-injection
// controls, the facade's public API, and the paper's presets that run
// time reaches through a name table.
var testOnlyExports = map[string]string{
	"rle.Unpack":                  "reference parser ParseWire is checked against",
	"rle.Encoding.Decode":         "reference decoder the round-trip tests invert Encode with",
	"frame.Image.PackRegion":      "reference packer EncodeRegion is checked against",
	"frame.Image.CompositeRegion": "reference compositor CompositeWire and CompositeImage are checked against",
	"frame.Image.StoreRegion":     "reference store StoreWire is checked against",
	"frame.PackPixels":            "reference pixel packer the region fast paths are checked against",
	"frame.XYWH":                  "rectangle fixture constructor of the frame, partition and core tests",
	"frame.NewImageBounds":        "image fixture constructor of the frame and core tests",
	"frame.Image.NonBlankEqual":   "image comparison of the frame and core tests",
	"frame.Rect.Overlaps":         "rectangle predicate of the frame and core tests",
	"volume.Sphere":               "volume fixture of the render and volume tests",
	"volume.Checker":              "volume fixture of the render DDA golden test",
	"volume.Volume.CountAbove":    "volume probe of the dataset tests",
	"trace.ValidateNesting":       "span-tree oracle the trace, mpnet and harness tests check recordings against",
	"trace.Wire.SpanCount":        "span-count probe of the trace and fleet truncation tests",
	"faultinject.Injector.Crash":  "chaos-test control of the server.Config.Chaos hook",
	"faultinject.Injector.Stall":  "chaos-test control of the server.Config.Chaos hook",
	"sortlast.Methods":            "public facade API: the module's importable surface, run by its examples",
	"sortlast.RenderRaw":          "public facade API: the module's importable surface, run by its examples",
	"trace.NewContext":            "a caller's sampled trace context, the README's tracing example",
	"transfer.EngineLow":          "paper preset; run time reaches it through Preset's switch",
	"transfer.EngineHigh":         "paper preset; run time reaches it through Preset's switch",
	"transfer.Head":               "paper preset; run time reaches it through Preset's switch",
	"transfer.Cube":               "paper preset; run time reaches it through Preset's switch",
	"volume.EngineBlock":          "paper dataset; run time reaches it through Generate's switch",
	"volume.HeadPhantom":          "paper dataset; run time reaches it through Generate's switch",
	"volume.SolidCube":            "paper dataset; run time reaches it through Generate's switch",
}

// TestNoTestOnlyExports keeps the feature census decided: an exported
// function or method declared in a non-test file of internal/ or the
// root package must be named by some other non-test file of the tree
// (bench/ included), or be allowlisted above with its reason. A name
// only its own file and the tests use is a capability nothing runs.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, file string }
	var decls []decl
	users := map[string]map[string]bool{} // identifier → non-test files naming it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if users[id.Name] == nil {
					users[id.Name] = map[string]bool{}
				}
				users[id.Name][path] = true
			}
			return true
		})
		dir := filepath.Dir(path)
		if dir != "." && !strings.HasPrefix(dir, "internal"+string(filepath.Separator)) {
			return nil
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || implicitlyCalled[fn.Name.Name] {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				key = f.Name.Name + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, path})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var offenders []string
	allowed := map[string]bool{}
	for _, d := range decls {
		named := false
		for file := range users[d.name] {
			named = named || file != d.file
		}
		switch _, ok := testOnlyExports[d.key]; {
		case ok && !named:
			allowed[d.key] = true
		case !named:
			offenders = append(offenders, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(offenders)
	if len(offenders) > 0 {
		t.Errorf("exported but named by no other non-test file — delete, or allowlist with a reason:\n\t%s",
			strings.Join(offenders, "\n\t"))
	}
	for key := range testOnlyExports {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names nothing test-only: drop it", key)
		}
	}
}
