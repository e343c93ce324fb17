package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// borrowcheck enforces the zero-copy borrowed-buffer contract: once a
// buffer has been posted through a borrowing call, the fabric may read it
// at delivery time, so writing it again in the same function before a
// flush/wait (or abandoning it: `b.data = nil`) is a delivery-time data
// race — the exact class TestWriteFromBufferReuseAfterFlush can only
// catch when the race actually fires.
//
// The analysis is statement-ordered and intraprocedural. Loop bodies are
// scanned twice so a post on iteration i followed by a refill at the top
// of iteration i+1 is caught. Any Wait*/Flush/NotifyWaitsome/Barrier/
// Close call releases all borrows (the repo's release idioms all flush a
// queue or await an ack), as does rebinding the buffer variable.
type borrowcheck struct{}

func (borrowcheck) Name() string { return "borrowcheck" }

// borrowSpec describes one borrowing call: the method name, the index of
// the borrowed buffer argument, and (when non-nil) the receiver named
// types the method must be called on. WriteFrom/WriteNotifyFrom are
// unique names in this repo; Push is gated on the receiver so
// unrelated pushes (heaps, rings) don't trip the pass.
type borrowSpec struct {
	method    string
	argIdx    int
	recvNames map[string]bool
}

var borrowSpecs = map[string]borrowSpec{
	"WriteFrom":       {method: "WriteFrom", argIdx: 3},
	"WriteNotifyFrom": {method: "WriteNotifyFrom", argIdx: 3},
	"Push":            {method: "Push", argIdx: 2, recvNames: map[string]bool{"CPStream": true, "Transport": true}},
}

// releaseName reports whether a call with this name completes outstanding
// posts (queue flush, ack wait, teardown) and therefore returns borrowed
// buffers to the caller.
func releaseName(name string) bool {
	if strings.HasPrefix(name, "Wait") || strings.HasPrefix(name, "wait") {
		return true
	}
	switch name {
	case "Flush", "NotifyWaitsome", "Barrier", "Close":
		return true
	}
	return false
}

func (borrowcheck) Run(p *Pkg) []Finding {
	var out []Finding
	for _, fd := range funcDecls(p) {
		t := &bcTracker{
			pkg:     p,
			tracked: map[trackKey]string{},
			posters: map[types.Object]borrowSpec{},
			seen:    map[string]bool{},
		}
		t.stmts(fd.Body.List)
		out = append(out, t.findings...)
	}
	return out
}

type bcTracker struct {
	pkg      *Pkg
	findings []Finding
	seen     map[string]bool
	// tracked maps a borrowed buffer to the description of the post that
	// borrowed it.
	tracked map[trackKey]string
	// posters tracks method values bound to locals (post := p.WriteFrom),
	// so calls through the local are recognized as posts.
	posters map[types.Object]borrowSpec
}

func (t *bcTracker) emit(pos token.Pos, msg string) {
	position := t.pkg.Fset.Position(pos)
	key := position.String() + msg
	if t.seen[key] {
		return
	}
	t.seen[key] = true
	t.findings = append(t.findings, Finding{Pos: position, Pass: "borrowcheck", Msg: msg})
}

func (t *bcTracker) stmts(list []ast.Stmt) {
	for _, s := range list {
		t.stmt(s)
	}
}

func (t *bcTracker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			t.expr(rhs)
		}
		// Method-value binding: post := p.WriteFrom.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if sel, ok := s.Rhs[0].(*ast.SelectorExpr); ok {
				if spec, ok := borrowSpecs[sel.Sel.Name]; ok && t.specApplies(spec, sel) {
					if id, ok := s.Lhs[0].(*ast.Ident); ok {
						if obj := objectOf(t.pkg.Info, id); obj != nil {
							t.posters[obj] = spec
						}
					}
				}
			}
		}
		for _, lhs := range s.Lhs {
			t.write(lhs, s.Tok == token.ASSIGN || s.Tok == token.DEFINE)
		}
	case *ast.IncDecStmt:
		t.write(s.X, false)
	case *ast.ExprStmt:
		t.expr(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			t.stmt(s.Init)
		}
		t.expr(s.Cond)
		t.stmts(s.Body.List)
		if s.Else != nil {
			t.stmt(s.Else)
		}
	case *ast.BlockStmt:
		t.stmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			t.stmt(s.Init)
		}
		if s.Cond != nil {
			t.expr(s.Cond)
		}
		// Two passes simulate the loop wrapping around: a buffer still
		// borrowed at the bottom of the body is seen by the writes at the
		// top of the next iteration.
		for i := 0; i < 2; i++ {
			t.stmts(s.Body.List)
			if s.Post != nil {
				t.stmt(s.Post)
			}
		}
	case *ast.RangeStmt:
		t.expr(s.X)
		for i := 0; i < 2; i++ {
			t.stmts(s.Body.List)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			t.stmt(s.Init)
		}
		if s.Tag != nil {
			t.expr(s.Tag)
		}
		t.stmts(s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			t.stmt(s.Init)
		}
		t.stmt(s.Assign)
		t.stmts(s.Body.List)
	case *ast.CaseClause:
		for _, e := range s.List {
			t.expr(e)
		}
		t.stmts(s.Body)
	case *ast.SelectStmt:
		t.stmts(s.Body.List)
	case *ast.CommClause:
		if s.Comm != nil {
			t.stmt(s.Comm)
		}
		t.stmts(s.Body)
	case *ast.SendStmt:
		t.expr(s.Chan)
		t.expr(s.Value)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			t.expr(e)
		}
	case *ast.DeferStmt:
		// A deferred call runs at return; treating a deferred Wait as an
		// immediate release would mask writes that precede it, so defers
		// are scanned for posts/writes only.
		t.exprNoRelease(s.Call)
	case *ast.GoStmt:
		// Concurrent execution: out of scope for the linear tracker.
	case *ast.LabeledStmt:
		t.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						t.expr(v)
					}
				}
			}
		}
	}
}

// write handles an lvalue: a store through a tracked buffer is a finding,
// an exact rebind of the tracked expression releases it (the abandon
// idiom `b.data = nil` and plain buffer rotation both land here).
func (t *bcTracker) write(lhs ast.Expr, rebindable bool) {
	switch l := lhs.(type) {
	case *ast.IndexExpr, *ast.StarExpr:
		var base ast.Expr
		if ie, ok := l.(*ast.IndexExpr); ok {
			base = ie.X
			t.expr(ie.Index)
		} else {
			base = l.(*ast.StarExpr).X
		}
		if key, ok := exprKey(t.pkg.Info, base); ok {
			if post, tracked := t.lookup(key); tracked {
				t.emit(lhs.Pos(), fmt.Sprintf("write to %s while it is borrowed by %s; flush/wait the queue or abandon the buffer first", key.path, post))
			}
		}
	case *ast.Ident, *ast.SelectorExpr:
		if !rebindable {
			// Compound assignment (buf += ...) only applies to non-slice
			// types; nothing borrowed can appear here.
			return
		}
		key, ok := exprKey(t.pkg.Info, lhs)
		if !ok {
			return
		}
		// Rebinding the root releases every borrow reached through it.
		for k := range t.tracked {
			if k.obj == key.obj && (k.path == key.path || strings.HasPrefix(k.path, key.path+".") || strings.HasPrefix(k.path, key.path+"[")) {
				delete(t.tracked, k)
			}
		}
	}
}

func (t *bcTracker) expr(e ast.Expr) { t.exprRelease(e, true) }

func (t *bcTracker) exprNoRelease(e ast.Expr) { t.exprRelease(e, false) }

func (t *bcTracker) exprRelease(e ast.Expr, allowRelease bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		t.call(call, allowRelease)
		return true
	})
}

// call classifies one call expression: borrowing post, releasing wait, or
// builtin write (copy/append/clear) into a tracked buffer.
func (t *bcTracker) call(call *ast.CallExpr, allowRelease bool) {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fn.Sel.Name
		if spec, ok := borrowSpecs[name]; ok && t.specApplies(spec, fn) {
			t.post(call, spec)
			return
		}
		if allowRelease && releaseName(name) {
			t.tracked = map[trackKey]string{}
		}
	case *ast.Ident:
		switch fn.Name {
		case "copy":
			if len(call.Args) >= 1 {
				t.builtinWrite(call.Args[0], call.Pos(), "copy into")
			}
		case "append":
			if len(call.Args) >= 1 {
				t.builtinWrite(call.Args[0], call.Pos(), "append to")
			}
		case "clear":
			if len(call.Args) >= 1 {
				t.builtinWrite(call.Args[0], call.Pos(), "clear of")
			}
		default:
			if obj := objectOf(t.pkg.Info, fn); obj != nil {
				if spec, ok := t.posters[obj]; ok {
					t.post(call, spec)
				} else if allowRelease && releaseName(fn.Name) {
					t.tracked = map[trackKey]string{}
				}
			} else if allowRelease && releaseName(fn.Name) {
				t.tracked = map[trackKey]string{}
			}
		}
	}
}

func (t *bcTracker) builtinWrite(dst ast.Expr, pos token.Pos, verb string) {
	if key, ok := exprKey(t.pkg.Info, dst); ok {
		if post, tracked := t.lookup(key); tracked {
			t.emit(pos, fmt.Sprintf("%s %s while it is borrowed by %s; flush/wait the queue or abandon the buffer first", verb, key.path, post))
		}
	}
}

// lookup finds the post borrowing key, matching both the exact tracked
// expression and writes reached through it (tracked "buf", write via
// "buf[]" or "buf.field").
func (t *bcTracker) lookup(key trackKey) (string, bool) {
	if post, ok := t.tracked[key]; ok {
		return post, true
	}
	for k, post := range t.tracked {
		if k.obj == key.obj && (strings.HasPrefix(key.path, k.path+".") || strings.HasPrefix(key.path, k.path+"[")) {
			return post, true
		}
	}
	return "", false
}

// specApplies gates receiver-sensitive specs (Push) on the
// receiver's named type. Unresolvable receivers skip those specs rather
// than risk false positives on unrelated push methods.
func (t *bcTracker) specApplies(spec borrowSpec, sel *ast.SelectorExpr) bool {
	if spec.recvNames == nil {
		return true
	}
	return spec.recvNames[recvTypeName(t.pkg.Info, sel.X)]
}

// post records the borrowed buffer argument of a borrowing call.
func (t *bcTracker) post(call *ast.CallExpr, spec borrowSpec) {
	if len(call.Args) <= spec.argIdx {
		return
	}
	arg := call.Args[spec.argIdx]
	key, ok := exprKey(t.pkg.Info, arg)
	if !ok {
		return
	}
	pos := t.pkg.Fset.Position(call.Pos())
	t.tracked[key] = fmt.Sprintf("the %s post at line %d", spec.method, pos.Line)
}

// objectOf resolves an identifier to its object, tolerating missing type
// information.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if info == nil {
		return nil
	}
	return info.ObjectOf(id)
}
