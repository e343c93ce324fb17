package analysis

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
	"os/exec"
	"path/filepath"
	"strings"
)

// Loader parses and type-checks packages for the passes. One Loader
// shares a FileSet and a source importer across packages, so repeated
// imports of the same dependency are checked once.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
	// traceKeys caches TraceKeys: one registry per run.
	traceKeys *TraceKeys
}

func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset: fset,
		// The "source" importer type-checks dependencies from source via
		// go/build, which understands module mode. It is the only stdlib
		// importer that works without installed export data, and keeps
		// go.mod dependency-free.
		imp: importer.ForCompiler(fset, "source", nil),
	}
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load resolves patterns with `go list` (run in dir, "" = cwd) and
// returns the parsed, type-checked packages. Only non-test GoFiles are
// analyzed: the linted invariants guard production code, and test files
// routinely fake buffers and keys on purpose.
func (l *Loader) Load(dir string, patterns ...string) ([]*Pkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}
	var pkgs []*Pkg
	for _, lp := range listed {
		if lp.Error != nil && len(lp.GoFiles) == 0 {
			return nil, fmt.Errorf("loading %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.loadOne(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) loadOne(lp listedPkg) (*Pkg, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	pkg := &Pkg{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       l.fset,
		Files:      files,
		loader:     l,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	// Best effort: on type errors the Info maps stay partially filled and
	// the passes fall back to syntactic matching for the unresolved parts.
	tpkg, _ := conf.Check(lp.ImportPath, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	pkg.directives = parseDirectives(l.fset, files)
	return pkg, nil
}
