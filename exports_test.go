package iolite

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// stdlibMethods satisfy standard-library interfaces (fmt.Stringer, error,
// sort.Interface): the standard library calls them, so their names need
// not appear anywhere in this repository.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
}

// TestNoUnreferencedExports fails when an exported identifier — a
// top-level function, type, variable or constant, or a method — is named
// nowhere in the repository but at its own declaration, tests and the
// benchmark module included. Such an identifier is dead code: nothing
// calls it, and nothing outside the repository can, since every package
// but the root is internal. The scan matches by name alone, so a method
// passes when any call names a method of that name, on any type, and a
// function only tests call passes too; the function-level guard is the
// reach check (scripts/reach.sh and its ledger testdata/reach.txt). A
// method counts as used only where a call names it (x.Name(...)), so a
// field or function of the same name elsewhere does not keep it alive; a
// method that is only ever passed as a value fails too. Enum members are
// exempt (a complete enum is clearer than a gapped one), as are the test
// entry points go test runs.
func TestNoUnreferencedExports(t *testing.T) {
	fset, files := parseTree(t)

	uses := map[string]int{}
	calls := map[string]int{} // names called as x.Name(...)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					calls[sel.Sel.Name]++
				}
			}
			return true
		})
	}

	var dead []string
	report := func(id *ast.Ident) {
		dead = append(dead, fset.Position(id.Pos()).String()+": "+id.Name)
	}
	check := func(id *ast.Ident) {
		if id.IsExported() && uses[id.Name] <= 1 {
			report(id)
		}
	}
	for _, f := range files {
		test := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil && stdlibMethods[d.Name.Name]:
				case d.Recv != nil:
					if d.Name.IsExported() && calls[d.Name.Name] == 0 {
						report(d.Name)
					}
				case !test || !isTestEntry(d.Name.Name):
					check(d.Name)
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST && isEnum(d) {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id)
						}
					}
				}
			}
		}
	}
	for _, d := range dead {
		t.Errorf("%s is exported but referenced (a method: called) nowhere; delete it", d)
	}
}

// TestNoUnreadCostFields fails when an exported field of sim.CostModel — a
// price — is read nowhere outside tests and DefaultCosts, which sets every
// price. Such a price charges nothing: no figure moves when it changes, so
// it is a settable value that sets nothing. A field counts as read where a
// selector names it (x.Field) other than as an assignment's target. The
// match is by name, so a same-named field of another struct that code
// reads keeps a price alive.
func TestNoUnreadCostFields(t *testing.T) {
	fset, files := parseTree(t)
	var prices []*ast.Ident
	read := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		sim := f.Name.Name == "sim"
		assigned := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !(sim && n.Recv == nil && n.Name.Name == "DefaultCosts")
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && sim && n.Name.Name == "CostModel" {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								prices = append(prices, id)
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned[lhs] = true
				}
			case *ast.SelectorExpr:
				if !assigned[n] {
					read[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	if len(prices) == 0 {
		t.Fatal("no sim.CostModel fields found")
	}
	for _, id := range prices {
		if !read[id.Name] {
			t.Errorf("%s: sim.CostModel.%s is read nowhere outside tests and DefaultCosts; delete it", fset.Position(id.Pos()), id.Name)
		}
	}
}

// parseTree parses every .go file in the repository, tests and the
// benchmark module included; hidden directories and testdata are skipped.
func parseTree(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestNoUnsetConfigFields fails when an exported field of a configuration
// struct — a type named *Params, *Config or *Opts — is set nowhere outside
// tests (the benchmark module counts as outside). Such a field is a
// constant in disguise: every figure, example and benchmark run takes its
// default, so it should be a constant with that value, and a test that
// sets it tests a configuration nothing runs. Two kinds of field also
// count setters in tests: a func-typed hook, which a test sets to observe
// (httpd.ClientConfig.OnResponse), and the fields of the root package's
// config types, which modules outside this repository set. A field counts
// as set when it is a key in a composite literal of its type (T{...} or
// pkg.T{...}), or in an element literal whose type is elided, or when any
// selector of its name is the target of an assignment. The last two match
// by field name alone, so the check misses a field whose name some other
// struct's elided literal or assignment uses: an assignment to
// kernel.Config's MemBytes, say, hides an unset MemBytes field in another
// struct.
func TestNoUnsetConfigFields(t *testing.T) {
	fset, files := parseTree(t)

	// pkgOf names a file's package; an external test package (foo_test)
	// counts as foo, whose exported types it uses by selector anyway.
	pkgOf := func(f *ast.File) string { return strings.TrimSuffix(f.Name.Name, "_test") }

	type field struct {
		typ, name string // typ is pkg.Type
		pos       token.Pos
		// testSet: setters in tests count for this field.
		testSet bool
	}
	// Where a setter was seen: outside tests, in tests, or both.
	const (
		inCode = 1 << iota
		inTest
	)
	var fields []field
	set := map[string]int{}   // pkg.Type.Field keys of typed literals
	named := map[string]int{} // field names set by elided literals or assignments
	for _, f := range files {
		pkg := pkgOf(f)
		path := fset.Position(f.Pos()).Filename
		where := inCode
		if strings.HasSuffix(path, "_test.go") {
			where = inTest
		}
		root := filepath.Dir(path) == "."
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !isConfigType(n.Name.Name) {
					return true
				}
				for _, decl := range st.Fields.List {
					_, hook := decl.Type.(*ast.FuncType)
					for _, id := range decl.Names {
						if id.IsExported() {
							fields = append(fields, field{pkg + "." + n.Name.Name, id.Name, id.Pos(), hook || root})
						}
					}
				}
			case *ast.CompositeLit:
				var typ string
				switch lt := n.Type.(type) {
				case nil:
				case *ast.Ident:
					typ = pkg + "." + lt.Name
				case *ast.SelectorExpr:
					if x, ok := lt.X.(*ast.Ident); ok {
						typ = x.Name + "." + lt.Sel.Name
					}
				default:
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if n.Type == nil {
							named[key.Name] |= where
						} else if typ != "" {
							set[typ+"."+key.Name] |= where
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						named[sel.Sel.Name] |= where
					}
				}
			}
			return true
		})
	}
	for _, fl := range fields {
		switch where := set[fl.typ+"."+fl.name] | named[fl.name]; {
		case where == 0:
			t.Errorf("%s: %s.%s is set nowhere; make it a constant", fset.Position(fl.pos), fl.typ, fl.name)
		case where&inCode == 0 && !fl.testSet:
			t.Errorf("%s: %s.%s is set only by tests; make it a constant", fset.Position(fl.pos), fl.typ, fl.name)
		}
	}
}

// isConfigType reports whether a struct type name marks a configuration
// struct.
func isConfigType(name string) bool {
	for _, suffix := range []string{"Params", "Config", "Opts"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// isTestEntry reports whether a test-file function is one go test calls.
func isTestEntry(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// isEnum reports whether a const block is an enumeration: it counts with
// iota, or all its members share one declared type.
func isEnum(d *ast.GenDecl) bool {
	if len(d.Specs) < 2 {
		return false
	}
	typ, sameType := "", true
	for _, spec := range d.Specs {
		s := spec.(*ast.ValueSpec)
		for _, v := range s.Values {
			if usesIota(v) {
				return true
			}
		}
		id, ok := s.Type.(*ast.Ident)
		if !ok || (typ != "" && id.Name != typ) {
			sameType = false
		} else {
			typ = id.Name
		}
	}
	return sameType
}

// usesIota reports whether a constant expression mentions iota.
func usesIota(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
