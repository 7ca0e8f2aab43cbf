// Command unusedexports fails on an exported function or method under
// internal/ that no non-test code of the module uses. It type-checks the
// module's non-test files as one program, so each use names one
// function, not every function sharing its name. A function counts as
// used when code outside its own body refers to it, when it is a method
// of a type softreputation.go aliases (the library's API), or when it
// implements a method of an interface declared in a loaded package. A
// test seam stays when its doc comment says "Test seam:" and gives the
// reason; at most maxSeams may. Run it from the repository root: make
// unused-exports.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"log"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module, maxSeams = "softreputation", 5

var (
	fset  = token.NewFileSet()
	std   = importer.ForCompiler(fset, "source", nil)
	pkgs  = map[string]*types.Package{}
	decls []*ast.FuncDecl // the exported functions under internal/
	info  = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
)

// load is the one importer: module packages are type-checked from their
// non-test files into info, once each; the rest come from std.
type load struct{}

func (load) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path+"/", module+"/") {
		return std.Import(path)
	}
	if p, ok := pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, module)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var fs []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && strings.HasPrefix(path, module+"/internal/") {
				decls = append(decls, fd)
			}
		}
	}
	p, err := (&types.Config{Importer: load{}}).Check(path, fset, fs, info)
	pkgs[path] = p
	return p, err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("unused-exports: ")
	out, err := exec.Command("go", "list", "./...").Output()
	for _, path := range strings.Fields(string(out)) {
		if err == nil {
			_, err = load{}.Import(path)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	// Every interface declared in a loaded package (std's too) and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var queue []*types.Package
	for _, p := range pkgs {
		queue = append(queue, p)
	}
	for seen := map[*types.Package]bool{}; len(queue) > 0; queue = queue[1:] {
		if p := queue[0]; !seen[p] {
			seen[p] = true
			queue = append(queue, p.Imports()...)
			for _, name := range p.Scope().Names() {
				if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	// The types the facade aliases.
	facade, root := map[types.Type]bool{}, pkgs[module].Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			facade[types.Unalias(tn.Type())] = true
		}
	}

	// The candidates, each with the body its own references are in.
	cands, seams := map[*types.Func]*ast.BlockStmt{}, 0
	for _, fd := range decls {
		fn := info.Defs[fd.Name].(*types.Func)
		if fd.Doc != nil && strings.Contains(fd.Doc.Text(), "Test seam:") {
			seams++
		} else if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !api(recv.Type(), fn.Name(), facade, ifaces) {
			cands[fn] = fd.Body
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			if body, ok := cands[fn.Origin()]; ok && (body == nil || id.Pos() < body.Pos() || id.Pos() >= body.End()) {
				delete(cands, fn.Origin())
			}
		}
	}
	var unused []string
	for fn := range cands {
		unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(fn.Pos()), fn.FullName()))
	}
	sort.Strings(unused)
	if len(unused) > 0 || seams > maxSeams {
		log.Fatalf("%d exported functions under internal/ without a non-test caller, %d marked \"Test seam:\" (at most %d)\n%s",
			len(unused), seams, maxSeams, strings.Join(unused, "\n"))
	}
}

// api reports whether a method of t counts as used whoever calls it: t
// is a facade type, or t or *t implements one of ifaces by it.
func api(t types.Type, name string, facade map[types.Type]bool, ifaces []*types.Interface) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, name); m != nil && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return facade[t]
}
