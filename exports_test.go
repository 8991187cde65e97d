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
// but the root is internal. The scan is by name, so a method counts as
// used when any identifier of the same name appears elsewhere. Enum
// members are exempt (a complete enum is clearer than a gapped one), as
// are the test entry points go test runs.
func TestNoUnreferencedExports(t *testing.T) {
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

	uses := map[string]int{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
	}

	var dead []string
	check := func(id *ast.Ident) {
		if id.IsExported() && uses[id.Name] <= 1 {
			dead = append(dead, fset.Position(id.Pos()).String()+": "+id.Name)
		}
	}
	for _, f := range files {
		test := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && stdlibMethods[d.Name.Name] {
					continue
				}
				if test && d.Recv == nil && isTestEntry(d.Name.Name) {
					continue
				}
				check(d.Name)
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
		t.Errorf("%s is exported but referenced nowhere; delete it", d)
	}
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
