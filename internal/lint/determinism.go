package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterministicDirective opts a package into the determinism gate in
// addition to the built-in path list (put it in any file of the package).
const DeterministicDirective = "//qlint:deterministic"

// deterministicPkgs are the packages whose behaviour must be a pure function
// of (seed, params): the discrete-event engine and everything replayed
// through it. Serial and parallel runs over these packages are pinned
// bit-identical by tests; this analyzer makes the underlying rule — virtual
// time and seeded RNG only, no order-dependent map iteration — a compile-time
// gate instead of a property a test must happen to exercise.
var deterministicPkgs = map[string]bool{
	"qcommit/internal/engine":     true,
	"qcommit/internal/site":       true,
	"qcommit/internal/churn":      true,
	"qcommit/internal/quorumcalc": true,
	"qcommit/internal/avail":      true,
	"qcommit/internal/workload":   true,
	"qcommit/internal/sim":        true,
	"qcommit/internal/simnet":     true,
	"qcommit/internal/core":       true,
	"qcommit/internal/protocol":   true,
	"qcommit/internal/threephase": true,
	"qcommit/internal/election":   true,
	"qcommit/internal/voting":     true,
	"qcommit/internal/par":        true,
}

// bannedTimeFuncs are the wall-clock entry points. Deterministic code gets
// time only from the scheduler (sim.Time).
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRandFuncs are the math/rand package-level functions that do NOT
// draw from the process-global source (constructors only). Everything else
// at package level is a global-source draw and is banned; methods on a
// seeded *rand.Rand are always fine.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism is the determinism analyzer; see package doc.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, and order-dependent map iteration in the deterministic simulation packages; " +
		"serial/parallel bit-identity (PR 1-3) holds only if every run is a pure function of (seed, params)",
	Run: runDeterminism,
}

func runDeterminism(p *Pass) error {
	if !deterministicPkgs[p.PkgPath()] && !hasDirective(p.Files, DeterministicDirective) {
		return nil
	}
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			// Tests may time themselves; the gate is for the replayed code.
			continue
		}
		checkBannedCalls(p, f)
		w := &detWalker{pass: p}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w.stmts(n.Body.List)
				}
				return true // still descend: FuncLits nest inside
			case *ast.FuncLit:
				w.stmts(n.Body.List)
				return true
			}
			return true
		})
	}
	return nil
}

// checkBannedCalls flags wall-clock and global-rand call sites.
func checkBannedCalls(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		switch funcPkgPath(fn) {
		case "time":
			if bannedTimeFuncs[fn.Name()] {
				p.Reportf(call.Pos(), "time.%s in deterministic package %s: wall-clock time breaks serial/parallel bit-identity; use the engine's virtual time (sim.Time)", fn.Name(), p.PkgPath())
			}
		case "math/rand", "math/rand/v2":
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() == nil && !allowedRandFuncs[fn.Name()] {
				p.Reportf(call.Pos(), "global %s.%s in deterministic package %s: the process-wide source is shared across goroutines and seeds; draw from the scenario's seeded *rand.Rand", funcPkgPath(fn), fn.Name(), p.PkgPath())
			}
		}
		return true
	})
}

// detWalker walks statement lists so a map-range statement can see the
// statements that follow it (the append-then-sort idiom is judged by what
// happens to the collected slice afterwards).
type detWalker struct {
	pass *Pass
}

func (w *detWalker) stmts(list []ast.Stmt) {
	for i, s := range list {
		w.stmt(s, list[i+1:])
	}
}

func (w *detWalker) stmt(s ast.Stmt, rest []ast.Stmt) {
	switch s := s.(type) {
	case *ast.RangeStmt:
		if t := w.pass.Info.TypeOf(s.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				w.checkMapRange(s, rest)
			}
		}
		w.stmts(s.Body.List)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, nil)
		}
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else, nil)
		}
	case *ast.ForStmt:
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		w.stmts(s.Body.List)
	case *ast.TypeSwitchStmt:
		w.stmts(s.Body.List)
	case *ast.SelectStmt:
		w.stmts(s.Body.List)
	case *ast.CaseClause:
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmts(s.Body)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, rest)
	}
}

// checkMapRange flags a map iteration unless its effects are provably
// independent of iteration order: either every statement in the body is
// order-insensitive (counter/map updates), or the loop only collects keys
// into a slice that is sorted later in the same block.
func (w *detWalker) checkMapRange(rs *ast.RangeStmt, rest []ast.Stmt) {
	if w.appendThenSorted(rs, rest) {
		return
	}
	if w.orderInsensitive(rs, rs.Body.List) {
		return
	}
	w.pass.Reportf(rs.Pos(), "map iteration over %s has order-dependent effects in deterministic package %s: Go randomizes map order per run; iterate a sorted key slice (collect + sort), or annotate with %s determinism <reason>", types.ExprString(rs.X), w.pass.PkgPath(), AllowDirective)
}

// appendThenSorted matches the canonical fix: the body is exactly
// "s = append(s, ...)" and a later statement in the enclosing block sorts s.
func (w *detWalker) appendThenSorted(rs *ast.RangeStmt, rest []ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || w.pass.Info.Uses[id] != types.Universe.Lookup("append") {
		return false
	}
	target := types.ExprString(asg.Lhs[0])
	if types.ExprString(ast.Unparen(call.Args[0])) != target {
		return false
	}
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(w.pass.Info, call)
			pkg := funcPkgPath(fn)
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if types.ExprString(ast.Unparen(arg)) == target {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// orderInsensitive reports whether every statement commutes across
// iterations: map-index writes, delete, integer accumulation, and loop-local
// work. Anything else — appends (without a later sort), sends, calls,
// branching, float accumulation (FP addition is not associative, so the sum's
// bits depend on order) — is treated as order-dependent.
func (w *detWalker) orderInsensitive(rs *ast.RangeStmt, list []ast.Stmt) bool {
	local := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := w.pass.Info.ObjectOf(id)
		return obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
	}
	// localBase unwraps x.f, x[i], *x, (x) chains: a write through a
	// loop-local base only mutates per-iteration state.
	localBase := func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return local(e)
			}
		}
	}
	mapIndex := func(e ast.Expr) bool {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		if !ok {
			return false
		}
		t := w.pass.Info.TypeOf(ix.X)
		if t == nil {
			return false
		}
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	}
	isBlank := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	intTyped := func(e ast.Expr) bool {
		t := w.pass.Info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}
	// usesLocal reports whether any identifier under e resolves to a
	// loop-local: a `return` whose results mention none is the same
	// regardless of which iteration reaches it first.
	usesLocal := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && local(id) {
				found = true
				return false
			}
			return true
		})
		return found
	}
	okCall := func(call *ast.CallExpr) bool {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok &&
			id.Name == "delete" && w.pass.Info.Uses[id] == types.Universe.Lookup("delete") {
			return true
		}
		// In-place sort of a per-key bucket or a loop-local slice: the
		// result is the same whichever order the buckets are visited in.
		if fn := calleeFunc(w.pass.Info, call); fn != nil {
			if pkg := funcPkgPath(fn); (pkg == "sort" || pkg == "slices") && len(call.Args) > 0 {
				if arg := call.Args[0]; mapIndex(arg) || localBase(arg) {
					return true
				}
			}
		}
		// A method call whose receiver chain roots at a loop-local touches
		// only per-iteration state (e.g. site.apply(img) inside range sites).
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && localBase(sel.X) {
			return true
		}
		return false
	}
	var insens func(list []ast.Stmt) bool
	insens = func(list []ast.Stmt) bool {
		for _, s := range list {
			switch s := s.(type) {
			case *ast.AssignStmt:
				switch s.Tok {
				case token.DEFINE:
					// New loop-locals are fine.
				case token.ASSIGN:
					for _, lhs := range s.Lhs {
						if !mapIndex(lhs) && !isBlank(lhs) && !localBase(lhs) {
							return false
						}
					}
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
					lhs := s.Lhs[0]
					if !mapIndex(lhs) && !localBase(lhs) && !intTyped(lhs) {
						return false
					}
				default:
					return false
				}
			case *ast.IncDecStmt:
				if !mapIndex(s.X) && !localBase(s.X) && !intTyped(s.X) {
					return false
				}
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok || !okCall(call) {
					return false
				}
			case *ast.IfStmt:
				if s.Init != nil && !insens([]ast.Stmt{s.Init}) {
					return false
				}
				if !insens(s.Body.List) {
					return false
				}
				if s.Else != nil && !insens([]ast.Stmt{s.Else}) {
					return false
				}
			case *ast.RangeStmt:
				if !insens(s.Body.List) {
					return false
				}
			case *ast.ForStmt:
				if !insens(s.Body.List) {
					return false
				}
			case *ast.SwitchStmt:
				if !insens(s.Body.List) {
					return false
				}
			case *ast.CaseClause:
				if !insens(s.Body) {
					return false
				}
			case *ast.ReturnStmt:
				// "Return on any match" guards are order-independent only
				// if the returned values don't name a loop-local.
				for _, res := range s.Results {
					if usesLocal(res) {
						return false
					}
				}
			case *ast.BlockStmt:
				if !insens(s.List) {
					return false
				}
			case *ast.DeclStmt, *ast.EmptyStmt:
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return insens(list)
}
