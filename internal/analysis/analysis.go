// Package analysis is the repo-native static-analysis suite behind
// cmd/ftlint. It enforces, at build time, the invariants the data plane
// only documents in prose and samples in benchmarks:
//
//   - borrowcheck: a buffer posted through a zero-copy borrowing call
//     (WriteFrom / WriteNotifyFrom / CPStream.Push) must not be written
//     again in the same function until a flush/wait releases it or the
//     buffer is abandoned (rebound / set to nil).
//   - lockblock: no blocking operation (channel send/receive, parked
//     select, time.Sleep, Wait*) while a sync.Mutex/RWMutex is held.
//   - hotpath: functions annotated //ftlint:hotpath must compile with no
//     heap allocation, verified against `go build -gcflags=-m` escape
//     output (cold paths inside them opt out line-by-line with an ignore
//     directive carrying a reason).
//   - tracekey: trace counter/event keys at call sites must come from the
//     internal/trace registry — no raw string literals, no unknown keys,
//     no ad-hoc concatenation.
//   - cowpublish: a value published through an atomic snapshot pointer
//     (atomic.Pointer.Store/Swap/CompareAndSwap) must not be mutated
//     afterwards in the publishing function.
//
// The passes are deliberately intraprocedural and statement-ordered: they
// encode this repo's idioms, not a general escape/alias analysis. Where a
// pass cannot see a violation (aliased views of the same segment, a
// blocking call hidden behind a helper), the race tests and benchmarks
// remain the backstop; where it over-approximates, call sites carry an
// explicit `//ftlint:ignore <pass>: <reason>` directive so every waiver
// is visible and justified in the diff.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the pass that produced it, and a
// human-readable message.
type Finding struct {
	Pos  token.Position
	Pass string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Pass, f.Msg)
}

// Pass is a single analyzer. Run inspects one package and returns its raw
// findings; the driver filters them through the ignore directives.
type Pass interface {
	Name() string
	Run(p *Pkg) []Finding
}

// Passes returns the AST passes in their canonical order. The hotpath
// escape gate is not in this list: it is driven separately (per batch of
// annotated packages) because it shells out to the compiler.
func Passes() []Pass {
	return []Pass{borrowcheck{}, lockblock{}, cowpublish{}, tracekey{}}
}

// PassNames returns every pass name recognized in ignore directives.
func PassNames() []string {
	names := []string{"hotpath"}
	for _, p := range Passes() {
		names = append(names, p.Name())
	}
	sort.Strings(names)
	return names
}

// Pkg is one loaded, parsed, best-effort type-checked package.
type Pkg struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Info       *types.Info
	Types      *types.Package
	// TypeErrs holds any type-checking errors. Passes degrade to purely
	// syntactic matching where type information is missing.
	TypeErrs []error

	directives *directives
	loader     *Loader
}

// ignored reports whether a finding of pass at (file, line) is waived by
// an ignore directive on that line or the line above.
func (p *Pkg) ignored(file string, line int, pass string) bool {
	return p.directives.ignored(file, line, pass)
}

// IgnoredAt is the exported form used by the escape gate, which maps
// compiler diagnostics (not AST nodes) back onto source lines.
func (p *Pkg) IgnoredAt(file string, line int, pass string) bool {
	return p.ignored(file, line, pass)
}

// Run executes all AST passes over pkg and returns the surviving findings
// plus any malformed-directive findings, sorted by position.
func Run(pkg *Pkg, passes []Pass) []Finding {
	var out []Finding
	out = append(out, pkg.directives.malformed...)
	for _, pass := range passes {
		for _, f := range pass.Run(pkg) {
			if pkg.ignored(f.Pos.Filename, f.Pos.Line, pass.Name()) {
				continue
			}
			out = append(out, f)
		}
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, pass.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}

// --- directives --------------------------------------------------------------

const (
	ignorePrefix  = "//ftlint:ignore"
	hotpathMarker = "//ftlint:hotpath"
)

// directives holds the per-file ftlint comment directives of a package.
type directives struct {
	// ignores maps filename → line → set of waived pass names.
	ignores   map[string]map[int]map[string]bool
	malformed []Finding
}

func parseDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{ignores: map[string]map[int]map[string]bool{}}
	valid := map[string]bool{}
	for _, n := range PassNames() {
		valid[n] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, ignorePrefix)
				pass, reason, ok := strings.Cut(strings.TrimSpace(rest), ":")
				pass = strings.TrimSpace(pass)
				reason = strings.TrimSpace(reason)
				if !ok || pass == "" || reason == "" || !valid[pass] {
					d.malformed = append(d.malformed, Finding{
						Pos:  pos,
						Pass: "directive",
						Msg: fmt.Sprintf("malformed ignore directive %q: want //ftlint:ignore <pass>: <reason> with pass one of %s",
							text, strings.Join(PassNames(), "|")),
					})
					continue
				}
				byLine := d.ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					d.ignores[pos.Filename] = byLine
				}
				// A directive waives its own line and the next one, so it
				// works both trailing a statement and on the line above it.
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][pass] = true
				}
			}
		}
	}
	return d
}

func (d *directives) ignored(file string, line int, pass string) bool {
	return d.ignores[file][line][pass]
}

// --- shared AST helpers ------------------------------------------------------

// rootPath reduces an lvalue-ish expression to (root identifier object,
// access path). Selector steps append ".name"; index/slice steps append
// "[]" (all elements are treated as one region — the passes guard whole
// buffers, not individual cells). Returns ok=false for expressions not
// rooted at a plain identifier (globals through calls, etc.).
func rootPath(info *types.Info, e ast.Expr) (obj types.Object, path string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if info != nil {
			if o := info.ObjectOf(e); o != nil {
				return o, e.Name, true
			}
		}
		return nil, e.Name, true
	case *ast.ParenExpr:
		return rootPath(info, e.X)
	case *ast.SelectorExpr:
		obj, p, ok := rootPath(info, e.X)
		if !ok {
			return nil, "", false
		}
		return obj, p + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		obj, p, ok := rootPath(info, e.X)
		if !ok {
			return nil, "", false
		}
		return obj, p + "[]", true
	case *ast.SliceExpr:
		return rootPath(info, e.X)
	case *ast.StarExpr:
		return rootPath(info, e.X)
	}
	return nil, "", false
}

// trackKey is the map key for a tracked buffer: the defining object (nil
// when types are unavailable) plus the spelled access path.
type trackKey struct {
	obj  types.Object
	path string
}

func exprKey(info *types.Info, e ast.Expr) (trackKey, bool) {
	obj, path, ok := rootPath(info, e)
	if !ok {
		return trackKey{}, false
	}
	return trackKey{obj: obj, path: path}, true
}

// recvTypeName resolves the named type of a method call's receiver
// expression ("" when type info is unavailable). Pointers and aliases are
// stripped; e.g. a call on *ft.CPStream yields "CPStream".
func recvTypeName(info *types.Info, recv ast.Expr) string {
	if info == nil {
		return ""
	}
	tv, ok := info.Types[recv]
	if !ok || tv.Type == nil {
		return ""
	}
	return namedName(tv.Type)
}

func namedName(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// recvTypePkgPath returns the package path of the receiver's named type,
// or "" when unresolvable.
func recvTypePkgPath(info *types.Info, recv ast.Expr) string {
	if info == nil {
		return ""
	}
	tv, ok := info.Types[recv]
	if !ok || tv.Type == nil {
		return ""
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

// funcDecls yields every function declaration (with a body) in the package.
func funcDecls(p *Pkg) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// hasHotpathMarker reports whether a function's doc comment carries the
// //ftlint:hotpath annotation.
func hasHotpathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}
