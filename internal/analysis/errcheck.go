package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrcheckAnalyzer polices the codec/transport surface: a call into the
// mpi or partition packages whose signature reports failure — a trailing
// error, or a trailing ok/valid bool on a Decode*/envelope function — must
// consume that result. The distributed pipeline's fault-tolerance story
// (DESIGN.md §11) assumes corrupt frames and lost ranks surface as checked
// values, never as silently dropped returns.
//
// Checks (errcheck/unchecked):
//
//	f()           — expression statement discarding an error/ok result
//	go f(), defer f() — same, concurrency cannot launder the drop
//	_, _ = f()    — blank-assigning the failure position
var ErrcheckAnalyzer = &Analyzer{
	Name: "errcheck",
	Doc:  "forbids dropping error/ok results from the mpi and partition surfaces",
	Run:  runErrcheck,
}

// surfacePkgs matches by package name so the golden fixtures exercise the
// same predicate as the real packages.
var surfacePkgs = map[string]bool{"mpi": true, "partition": true}

func runErrcheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDropped(pass, call, "result discarded")
				}
			case *ast.GoStmt:
				checkDropped(pass, n.Call, "result discarded by go statement")
			case *ast.DeferStmt:
				checkDropped(pass, n.Call, "result discarded by defer")
			case *ast.AssignStmt:
				// One call, multiple results: flag a blank in the failure
				// position.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				idx, what := failureResult(info, call)
				if idx < 0 || idx >= len(n.Lhs) {
					return true
				}
				if id, ok := n.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(id.Pos(), "unchecked", "%s from %s assigned to _", what, calleeLabel(info, call))
				}
			}
			return true
		})
	}
}

// checkDropped reports a diagnostic when call has a failure result and the
// whole result tuple is discarded.
func checkDropped(pass *Pass, call *ast.CallExpr, how string) {
	_, what := failureResult(pass.Pkg.Info, call)
	if what == "" {
		return
	}
	pass.Reportf(call.Pos(), "unchecked", "%s from %s: %s", what, calleeLabel(pass.Pkg.Info, call), how)
}

// failureResult returns the tuple index and description of call's failure
// result when the callee belongs to the codec/transport surface, or (-1, "").
func failureResult(info *types.Info, call *ast.CallExpr) (int, string) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !surfacePkgs[fn.Pkg().Name()] {
		return -1, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return -1, ""
	}
	last := sig.Results().At(sig.Results().Len() - 1)
	lt := last.Type()
	if isErrorType(lt) {
		return sig.Results().Len() - 1, "error"
	}
	if b, ok := lt.Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
		// Only codec validity booleans, not arbitrary predicates: Decode*
		// and the envelope/ack frame parsers.
		name := fn.Name()
		if strings.HasPrefix(name, "Decode") || last.Name() == "ok" || last.Name() == "valid" {
			return sig.Results().Len() - 1, "ok flag"
		}
	}
	return -1, ""
}

// isErrorType reports whether t is the built-in error interface (or an
// interface embedding it under the same name).
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// calleeLabel renders the callee for a diagnostic, e.g. "partition.KD".
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "call"
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
