package runtimes_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// fixedReaders are the exported methods of the replay-guarded types that
// need no catch-up: each returns configuration fixed when the object was
// built, which no iteration changes.
var fixedReaders = map[string]bool{
	"gpusim.Node.Engine":        true,
	"gpusim.Node.Spec":          true,
	"gpusim.Node.NumDevices":    true,
	"gpusim.Node.Device":        true,
	"gpusim.Device.ID":          true,
	"gpusim.Device.MemCapacity": true,
	"gpusim.Stream.ID":          true,
	"gpusim.Stream.DeviceID":    true,
	"gpusim.Collective.ID":      true,
	"gpusim.Collective.Size":    true,
	"runtimes.Liger.Name":       true,
}

// guardedTypes are the types whose state a replayed iteration skips, by
// package directory: every exported method must catch a deferred replay
// up before anything else.
var guardedTypes = map[string][]string{
	"../gpusim":   {"Node", "Device", "Stream", "Event", "Collective"},
	"../liger":    {"Scheduler"},
	"../runtimes": {"Liger"},
}

// TestEveryEntryPointCatchesUp walks the source of gpusim, liger and
// runtimes: every exported method of gpusim's Node, Device, Stream,
// Event and Collective, liger's Scheduler and runtimes' Liger (with the
// methods it promotes from embedded types) must open with a touch call,
// which catches up a replay deferred on the engine, or be a
// single-return reader on fixedReaders. Each touch helper must call
// Engine.Touch.
func TestEveryEntryPointCatchesUp(t *testing.T) {
	seen := map[string]bool{}
	for dir, types := range guardedTypes {
		pkg := filepath.Base(dir)
		files := parseDir(t, dir)
		want := map[string]bool{}
		for _, typ := range types {
			want[typ] = true
			for _, emb := range embedded(files, typ) {
				want[emb] = true
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !want[recvType(fn)] {
					continue
				}
				if fn.Name.Name == "touch" {
					if !calls(fn.Body, "Touch") {
						t.Errorf("%s.%s.touch does not call Engine.Touch", pkg, recvType(fn))
					}
					continue
				}
				if !fn.Name.IsExported() {
					continue
				}
				name := pkg + "." + owner(recvType(fn), types) + "." + fn.Name.Name
				seen[name] = true
				guarded := len(fn.Body.List) > 0 && isTouch(fn.Body.List[0])
				switch {
				case fixedReaders[name] && guarded:
					t.Errorf("%s is listed as a fixed reader but catches up", name)
				case fixedReaders[name] && (len(fn.Body.List) != 1 || !isReturn(fn.Body.List[0])):
					t.Errorf("%s is listed as a fixed reader but does more than return", name)
				case !fixedReaders[name] && !guarded:
					t.Errorf("%s does not open with a catch-up (touch)", name)
				}
			}
		}
	}
	for name := range fixedReaders {
		if !seen[name] {
			t.Errorf("fixed reader %s not found", name)
		}
	}
	if len(seen) < 80 {
		t.Fatalf("only %d entry points found", len(seen))
	}
}

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// embedded returns the types typ embeds, whose methods it promotes.
func embedded(files []*ast.File, typ string) []string {
	var out []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if len(fld.Names) == 0 {
						out = append(out, typeName(fld.Type))
					}
				}
			}
			return false
		})
	}
	return out
}

// owner names the guarded type a method belongs to: the receiver type
// itself, or the type of types that embeds it.
func owner(recv string, types []string) string {
	for _, typ := range types {
		if typ == recv {
			return recv
		}
	}
	return types[0]
}

// recvType returns the receiver's type name.
func recvType(fn *ast.FuncDecl) string { return typeName(fn.Recv.List[0].Type) }

func typeName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isTouch reports whether st is a call of a method named touch.
func isTouch(st ast.Stmt) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "touch"
}

func isReturn(st ast.Stmt) bool {
	_, ok := st.(*ast.ReturnStmt)
	return ok
}

// calls reports whether body calls a method named name.
func calls(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}
