package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFlagLine matches a flag entry in the package doc's flag list: a
// tab-indented line that starts with "-name".
var docFlagLine = regexp.MustCompile(`^\t-([a-z][a-z0-9-]*)\b`)

// TestDocListsEveryFlag keeps the package doc's flag list in step with
// the flags main registers: same names, same order.
func TestDocListsEveryFlag(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}

	var documented []string
	inFlags := false
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		switch {
		case line == "Flags:":
			inFlags = true
		case inFlags && line != "" && !strings.HasPrefix(line, "\t"):
			inFlags = false
		case inFlags:
			if m := docFlagLine.FindStringSubmatch(line); m != nil {
				documented = append(documented, m[1])
			}
		}
	}

	var registered []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "main" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				registered = append(registered, name)
			}
			return true
		})
	}

	if len(registered) == 0 {
		t.Fatal("found no flag registrations in main")
	}
	if !reflect.DeepEqual(documented, registered) {
		t.Errorf("package doc flags differ from registered flags\ndoc:        %v\nregistered: %v", documented, registered)
	}
}
