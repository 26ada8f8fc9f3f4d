package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ConcurrencyAnalyzer enforces two disciplines:
//
//	concurrency/inline — no `go` statement may be lexically present in, or
//	    statically reachable through module-internal calls from, a
//	    //mulint:inline function. The hardened transport's correctness
//	    argument (DESIGN.md §11) rests on acks being produced on the
//	    delivering goroutine while both endpoint ranks are blocked sending;
//	    a goroutine spawned anywhere under the delivery path would void it.
//	    Calls through interfaces and function values are not resolved — the
//	    guarantee covers the static call graph, and the transport seam is
//	    the one deliberate indirection.
//	concurrency/lockcopy — by-value copies of types bearing a sync
//	    primitive, a noCopy field, or unionfind.Concurrent (one forest that
//	    many goroutines write through one pointer): value
//	    receivers/parameters, assignments from existing values, range
//	    copies, and by-value call arguments.
var ConcurrencyAnalyzer = &Analyzer{
	Name: "concurrency",
	Doc:  "forbids go statements under //mulint:inline functions and by-value lock copies",
	Run:  runConcurrency,
}

func runConcurrency(pass *Pass) {
	runInline(pass)
	runLockCopy(pass)
}

// --- concurrency/inline ---

func runInline(pass *Pass) {
	for _, fd := range annotatedFuncs(pass.Pkg, MarkerInline) {
		if fd.Body == nil {
			continue
		}
		seen := map[*ast.FuncDecl]bool{}
		if chain, goPos := findGo(pass, fd, seen, nil); goPos != nil {
			pass.Reportf(fd.Name.Pos(), "inline",
				"//mulint:inline function %s can reach a go statement via %s",
				fd.Name.Name, strings.Join(chain, " → "))
			_ = goPos
		}
	}
}

// findGo walks the static call graph from fd looking for a lexical go
// statement. It returns the call chain and the offending statement.
func findGo(pass *Pass, fd *ast.FuncDecl, seen map[*ast.FuncDecl]bool, chain []string) ([]string, ast.Node) {
	if seen[fd] {
		return nil, nil
	}
	seen[fd] = true
	chain = append(chain, fd.Name.Name)

	var found ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			found = g
		}
		return true
	})
	if found != nil {
		return chain, found
	}

	// Recurse into statically resolvable module-internal callees. The info
	// map that resolves a call belongs to the package the call appears in,
	// so carry the right *types.Info per declaration.
	info := infoFor(pass.Prog, fd)
	var resChain []string
	var resNode ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if resNode != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		callee, ok := pass.Prog.FuncDecl(fn)
		if !ok || callee.Body == nil {
			return true
		}
		if c, g := findGo(pass, callee, seen, chain); g != nil {
			resChain, resNode = c, g
		}
		return resNode == nil
	})
	return resChain, resNode
}

// infoFor finds the *types.Info of the package containing fd.
func infoFor(prog *Program, fd *ast.FuncDecl) *types.Info {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			if f.Pos() <= fd.Pos() && fd.End() <= f.End() {
				return pkg.Info
			}
		}
	}
	return nil
}

// --- concurrency/lockcopy ---

func runLockCopy(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkSigCopies(pass, n)
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if len(n.Lhs) != len(n.Rhs) {
						break
					}
					if copiesLock(info, rhs) {
						pass.Reportf(n.Lhs[i].Pos(), "lockcopy", "assignment copies %s by value", lockTypeName(info.TypeOf(rhs)))
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := info.TypeOf(n.Value); bearsLock(t, nil) {
						pass.Reportf(n.Value.Pos(), "lockcopy", "range copies %s by value per element", lockTypeName(t))
					}
				}
			case *ast.CallExpr:
				if _, isConv := info.Types[n.Fun]; isConv && info.Types[n.Fun].IsType() {
					return true
				}
				for _, arg := range n.Args {
					if copiesLock(info, arg) {
						pass.Reportf(arg.Pos(), "lockcopy", "call passes %s by value", lockTypeName(info.TypeOf(arg)))
					}
				}
			}
			return true
		})
	}
}

// checkSigCopies flags value receivers and by-value parameters of
// lock-bearing types.
func checkSigCopies(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := info.TypeOf(field.Type)
			if bearsLock(t, nil) {
				pass.Reportf(field.Type.Pos(), "lockcopy", "%s of %s receives %s by value", what, fd.Name.Name, lockTypeName(t))
			}
		}
	}
	check(fd.Recv, "receiver")
	check(fd.Type.Params, "parameter")
}

// copiesLock reports whether evaluating e as a value copies an existing
// lock-bearing value. Fresh values (composite literals, function-call
// results) and pointers are fine.
func copiesLock(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if !bearsLock(t, nil) {
		return false
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		_ = x
		return true
	}
	return false
}

// bearsLock reports whether t must not be copied: the sync primitives, any
// struct containing one (recursively), a field following the noCopy
// convention, or unionfind's Concurrent structure.
func bearsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil {
			pkg, name := obj.Pkg().Name(), obj.Name()
			if pkg == "sync" {
				switch name {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
					return true
				}
			}
			if pkg == "unionfind" && name == "Concurrent" {
				return true
			}
			if name == "noCopy" {
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if bearsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return bearsLock(u.Elem(), seen)
	}
	return false
}

// lockTypeName names t for a diagnostic.
func lockTypeName(t types.Type) string {
	if t == nil {
		return "a lock-bearing value"
	}
	return t.String()
}
