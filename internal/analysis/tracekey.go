package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// tracekey enforces the trace-key registry: every counter key reaching
// Recorder.Inc/Counter or a Summary.SumCounter/MaxCounter lookup, and
// every event key reaching Recorder.Event/FirstEvent, must be a named
// constant whose value is registered in internal/trace (keys.go). Raw
// string literals, unknown keys, and ad-hoc string building are findings;
// trace.RestoreFromKey is the one blessed dynamic constructor. This turns
// the former stringly-typed fleet of counter names — where a typo'd key
// silently recorded into a parallel universe — into a build-time error.
type tracekey struct{}

func (tracekey) Name() string { return "tracekey" }

// tracePkgPath is the package whose constant block is the registry.
const tracePkgPath = "repro/internal/trace"

// TraceKeys is the trace-key registry as the type checker sees it: the
// values of internal/trace's exported string constants, K* being counter
// keys and KEv* event keys. The constant block is the only list there is.
type TraceKeys struct {
	Counters map[string]bool
	Events   map[string]bool
	// restorePrefix is trace.RestoreFromKey's prefix: any key it can build
	// is a counter key, so novel restore-source names need no constant.
	restorePrefix string
}

// KnownCounter reports whether k is a registered counter key.
func (r *TraceKeys) KnownCounter(k string) bool {
	return r.Counters[k] || (strings.HasPrefix(k, r.restorePrefix) && len(k) > len(r.restorePrefix))
}

// TraceKeys type-checks internal/trace (resolved from dir, which must lie
// inside the module) and reads the registry out of its package scope.
func (l *Loader) TraceKeys(dir string) (*TraceKeys, error) {
	if l.traceKeys != nil {
		return l.traceKeys, nil
	}
	tp, err := l.imp.(types.ImporterFrom).ImportFrom(tracePkgPath, dir, 0)
	if err != nil {
		return nil, fmt.Errorf("loading the trace-key registry: %v", err)
	}
	r := &TraceKeys{Counters: map[string]bool{}, Events: map[string]bool{}}
	scope := tp.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		switch v := constant.StringVal(c.Val()); {
		case name == "restoreFromPrefix":
			r.restorePrefix = v
		case strings.HasPrefix(name, "KEv"):
			r.Events[v] = true
		case strings.HasPrefix(name, "K"):
			r.Counters[v] = true
		}
	}
	if r.restorePrefix == "" || len(r.Counters) == 0 || len(r.Events) == 0 {
		return nil, fmt.Errorf("%s declares no K*/KEv* key constants or no restoreFromPrefix", tracePkgPath)
	}
	l.traceKeys = r
	return r, nil
}

func (tracekey) Run(p *Pkg) []Finding {
	keys, err := p.loader.TraceKeys(p.Dir)
	if err != nil {
		return []Finding{{Pos: token.Position{Filename: p.Dir}, Pass: "tracekey", Msg: err.Error()}}
	}
	var out []Finding
	t := &tkChecker{pkg: p, keys: keys}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				t.call(n)
			case *ast.IndexExpr:
				t.index(n)
			}
			return true
		})
	}
	out = append(out, t.findings...)
	return out
}

type tkChecker struct {
	pkg      *Pkg
	keys     *TraceKeys
	findings []Finding
}

func (t *tkChecker) emit(e ast.Expr, msg string) {
	t.findings = append(t.findings, Finding{
		Pos:  t.pkg.Fset.Position(e.Pos()),
		Pass: "tracekey",
		Msg:  msg,
	})
}

func (t *tkChecker) call(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	var event bool
	switch sel.Sel.Name {
	case "Inc", "Counter":
	case "Event", "FirstEvent":
		event = true
	default:
		return
	}
	// Only Recorder keys carry the registry contract; other types' Inc /
	// Event methods (or unresolvable receivers) are not ours to police.
	if recvTypeName(t.pkg.Info, sel.X) != "Recorder" {
		return
	}
	t.checkKey(call.Args[0], event)
}

// index checks Summary.SumCounter["..."] / MaxCounter["..."] lookups.
func (t *tkChecker) index(ie *ast.IndexExpr) {
	sel, ok := ie.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sel.Sel.Name != "SumCounter" && sel.Sel.Name != "MaxCounter" {
		return
	}
	t.checkKey(ie.Index, false)
}

func (t *tkChecker) checkKey(arg ast.Expr, event bool) {
	kind := "counter"
	known := t.keys.KnownCounter
	if event {
		kind = "event"
		known = func(k string) bool { return t.keys.Events[k] }
	}
	if lit, ok := ast.Unparen(arg).(*ast.BasicLit); ok {
		t.emit(arg, fmt.Sprintf("raw string %s key %s: use an internal/trace registry constant", kind, lit.Value))
		return
	}
	if t.pkg.Info != nil {
		if tv, ok := t.pkg.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			if v := constant.StringVal(tv.Value); !known(v) {
				t.emit(arg, fmt.Sprintf("unknown %s key %q: not in the internal/trace registry", kind, v))
			}
			return
		}
	}
	// Non-constant key: only the registered dynamic constructor is
	// allowed (trace.RestoreFromKey builds the restore-source family).
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fn.Sel.Name == "RestoreFromKey" {
				return
			}
		case *ast.Ident:
			if fn.Name == "RestoreFromKey" {
				return
			}
		}
	}
	t.emit(arg, fmt.Sprintf("dynamically built %s key: use a registry constant or trace.RestoreFromKey", kind))
}
