// Package streamdiscipline defines an analyzer that enforces the RNG
// stream discipline the scalar/batch differential harness depends on:
// both engines must consume draws from the same streams, in the same
// order, under the same conditions, or replicate results silently
// diverge.
//
// Four rules:
//
//	SD1 — in //hh:hotpath functions, a draw call (any rng.Source /
//	      rng.Threshold draw method, or any call handing a *rng.Source to
//	      a hook) nested under an if statement is flagged unless every
//	      enclosing condition is a documented draw-free sentinel (the
//	      identifiers in Sentinels, or a nil comparison — nil hooks are
//	      draw-free by contract), or the if is annotated //hh:draws <why>
//	      documenting that the scalar path draws under the identical
//	      condition.
//
//	SD2 — inside loops ranging over state buckets (an expression rooted
//	      at an identifier containing "bkt", "bucket", or "members"),
//	      draws must come from per-ant streams (an indexed source like
//	      antSrc[i]); a draw from a shared stream consumes in bucket
//	      order, not ant order, and is flagged unless the range is
//	      annotated //hh:antorder <why>.
//
//	SD3 — every Emit*/Observe* opcode constant (type EmitOp/ObserveOp)
//	      must carry a //hh:draws <spec> scalar=<name> contract naming
//	      its per-round draw count and the scalar counterpart that
//	      consumes the identical draws.
//
//	SD4 — a //hh:hotpath function that performs draws must carry a
//	      //hh:draws <spec> doc contract summarizing its draw order.
//
// The rng package itself is exempt: discipline governs consumers.
package streamdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/gmrl/househunt/internal/lint/analysis"
	"github.com/gmrl/househunt/internal/lint/hhannot"
)

// Sentinels are the documented draw-free guard identifiers: conditions on
// these values gate draws identically in the scalar and batch engines
// (see README.md "Stream discipline").
var Sentinels = map[string]bool{
	"quality":         true,
	"active":          true,
	"anyActive":       true,
	"nR":              true,
	"ThresholdAlways": true,
	"ThresholdNever":  true,
}

// drawMethods are the rng.Source methods that advance the stream.
// Split/SplitInto/Reseed/State derive, seed or read streams without
// consuming the parent's draw sequence and are deliberately absent; a test
// fails on any exported Source method that is in neither list.
var drawMethods = map[string]bool{
	"Uint64": true, "Uint64n": true, "Int63": true, "Intn": true,
	"Float64": true, "Bernoulli": true, "Perm": true, "PermInto": true,
	"PermInto32": true, "PermAdvance": true, "Shuffle": true,
	"Binomial": true, "Geometric": true, "NormFloat64": true, "Pick": true,
	"TallyInto": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "streamdiscipline",
	Doc:  "enforce scalar/batch RNG draw-order discipline (guarded draws, ant order, opcode draw contracts)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "rng" {
		return nil
	}
	annots := hhannot.NewMap(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		checkOpcodeContracts(pass, annots, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hhannot.DocHas(fd.Doc, "hotpath") {
				continue
			}
			checkHotFunc(pass, annots, fd)
		}
	}
	return nil
}

// checkHotFunc walks one hot function tracking the enclosing if and
// bucket-range context, applying SD1, SD2, and SD4.
func checkHotFunc(pass *analysis.Pass, annots *hhannot.Map, fd *ast.FuncDecl) {
	drew := false
	var walk func(n ast.Node, ifs []*ast.IfStmt, buckets []*ast.RangeStmt)
	walk = func(n ast.Node, ifs []*ast.IfStmt, buckets []*ast.RangeStmt) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			if n.Init != nil {
				walk(n.Init, ifs, buckets)
			}
			// The condition executes unconditionally relative to this
			// if, so draws inside it are guarded only by the outer ifs.
			walk(n.Cond, ifs, buckets)
			inner := append(ifs, n)
			walk(n.Body, inner, buckets)
			walk(n.Else, inner, buckets)
			return
		case *ast.RangeStmt:
			inner := buckets
			if isBucketRange(n) {
				inner = append(buckets, n)
			}
			walk(n.Body, ifs, inner)
			return
		case *ast.FuncLit:
			// A nested function body has its own control flow; draws in
			// it (e.g. Shuffle swap callbacks) execute at call sites.
			walk(n.Body, nil, nil)
			return
		case *ast.CallExpr:
			if recv, ok := drawCall(pass, n); ok {
				drew = true
				checkGuards(pass, annots, n, ifs)
				checkAntOrder(pass, annots, n, recv, buckets)
			}
		}
		// Generic traversal of children, preserving context.
		children(n, func(c ast.Node) { walk(c, ifs, buckets) })
	}
	walk(fd.Body, nil, nil)

	if drew && !hhannot.DocHas(fd.Doc, "draws") {
		pass.Reportf(fd.Name.Pos(), "//hh:hotpath function %s draws from rng but its doc comment has no //hh:draws contract", fd.Name.Name)
	}
}

// checkGuards is SD1: every enclosing if must be sentinel-guarded,
// nil-guarded, or annotated.
func checkGuards(pass *analysis.Pass, annots *hhannot.Map, call *ast.CallExpr, ifs []*ast.IfStmt) {
	for _, ifStmt := range ifs {
		if guardJustified(pass, annots, ifStmt) {
			continue
		}
		pos := pass.Fset.Position(ifStmt.Pos())
		pass.Reportf(call.Pos(), "draw guarded by undocumented condition at line %d: scalar and batch must gate draws on the same documented sentinel (or annotate the if with //hh:draws <why>)", pos.Line)
	}
}

func guardJustified(pass *analysis.Pass, annots *hhannot.Map, ifStmt *ast.IfStmt) bool {
	if annots.Has(ifStmt, "draws") {
		return true
	}
	ok := false
	ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if Sentinels[n.Name] {
				ok = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				if isNilIdent(n.X) || isNilIdent(n.Y) {
					ok = true
				}
			}
		}
		return !ok
	})
	return ok
}

// checkAntOrder is SD2: in bucket-order loops, draws must come from an
// indexed per-ant stream.
func checkAntOrder(pass *analysis.Pass, annots *hhannot.Map, call *ast.CallExpr, recv ast.Expr, buckets []*ast.RangeStmt) {
	if len(buckets) == 0 || recv == nil || containsIndex(recv) {
		return
	}
	rng := buckets[len(buckets)-1]
	if annots.Has(rng, "antorder") {
		return
	}
	pass.Reportf(call.Pos(), "shared-stream draw inside a bucket-order loop consumes draws out of ant order; use a per-ant stream (antSrc[i]) or annotate the range //hh:antorder <why>")
}

// drawCall reports whether call consumes from an rng stream, returning
// the expression whose indexing identifies the stream (the method
// receiver, or the *rng.Source argument for hook-style transfers).
func drawCall(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := pass.TypesInfo.Selections[sel]; ok {
			recvName, pkgName := namedRecv(s.Recv())
			if pkgName == "rng" {
				if recvName == "Source" && drawMethods[sel.Sel.Name] {
					return sel.X, true
				}
				if recvName == "Threshold" && sel.Sel.Name == "Draw" {
					return call.Args[0], true
				}
			}
		}
	}
	// Hook-style transfer: handing a *rng.Source to any callee makes the
	// callee's draws part of this site's stream discipline.
	for _, arg := range call.Args {
		t := pass.TypesInfo.TypeOf(arg)
		if p, ok := t.(*types.Pointer); ok {
			if name, pkg := namedRecv(p.Elem()); name == "Source" && pkg == "rng" {
				return arg, true
			}
		}
	}
	return nil, false
}

// namedRecv unwraps pointers and reports the named type and its
// package's name.
func namedRecv(t types.Type) (string, string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Name(), n.Obj().Pkg().Name()
}

// checkOpcodeContracts is SD3.
func checkOpcodeContracts(pass *analysis.Pass, annots *hhannot.Map, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				tn, _ := namedRecv(obj.Type())
				if tn != "EmitOp" && tn != "ObserveOp" {
					continue
				}
				if !strings.HasPrefix(name.Name, "Emit") && !strings.HasPrefix(name.Name, "Observe") {
					continue
				}
				a, ok := contractFor(annots, vs)
				if !ok {
					pass.Reportf(name.Pos(), "opcode const %s has no draw contract; annotate //hh:draws <spec> scalar=<name>", name.Name)
					continue
				}
				if err := validateContract(a.Args); err != "" {
					pass.Reportf(name.Pos(), "opcode const %s has a malformed //hh:draws contract: %s", name.Name, err)
				}
			}
		}
	}
}

func contractFor(annots *hhannot.Map, vs *ast.ValueSpec) (hhannot.Annot, bool) {
	if a, ok := hhannot.DocGet(vs.Doc, "draws"); ok {
		return a, true
	}
	if a, ok := hhannot.DocGet(vs.Comment, "draws"); ok {
		return a, true
	}
	return annots.Get(vs, "draws")
}

// validateContract checks "<spec> scalar=<name>": a non-empty draw spec
// plus the scalar counterpart that consumes the identical draws.
func validateContract(args string) string {
	fields := strings.Fields(args)
	if len(fields) == 0 {
		return "empty contract"
	}
	scalar := ""
	spec := 0
	for _, fld := range fields {
		if v, ok := strings.CutPrefix(fld, "scalar="); ok {
			scalar = v
		} else {
			spec++
		}
	}
	if spec == 0 {
		return "missing draw spec before scalar="
	}
	if scalar == "" {
		return "missing scalar=<name> counterpart"
	}
	return ""
}

func isBucketRange(n *ast.RangeStmt) bool {
	name := rootName(n.X)
	for _, marker := range []string{"bkt", "bucket", "members"} {
		if strings.Contains(strings.ToLower(name), marker) {
			return true
		}
	}
	return false
}

func rootName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ""
		}
	}
}

func containsIndex(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// children invokes fn for each direct child node of n, excluding the
// node types walk handles itself (which never reach here).
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
