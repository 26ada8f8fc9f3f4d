package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is decodesafe's fact domain: which expressions name a
// wire-originating []byte (taint), and which of those are currently covered
// by a len(...) guard (the dataflow fact).
//
// A taint key is either a local object (parameter or variable) or a
// (named type, field) pair — the latter so `r.b` inside every rbuf method
// shares one fact regardless of the receiver's name.
type taintKey struct {
	obj   types.Object // local/param key; nil for field keys
	typ   types.Object // the named type's *types.TypeName, for field keys
	field string
}

func (k taintKey) valid() bool { return k.obj != nil || k.typ != nil }

// taintSet is the per-function taint universe: which objects and fields are
// wire-originating.
type taintSet struct {
	objs   map[types.Object]bool
	fields map[types.Object]map[string]bool // type name obj -> field set
}

func newTaintSet() *taintSet {
	return &taintSet{objs: map[types.Object]bool{}, fields: map[types.Object]map[string]bool{}}
}

func (ts *taintSet) addField(typ types.Object, field string) {
	m := ts.fields[typ]
	if m == nil {
		m = map[string]bool{}
		ts.fields[typ] = m
	}
	m[field] = true
}

// markerNames extracts the space-separated names following marker on its own
// comment line in doc ("//mulint:tainted b payload" -> ["b", "payload"]).
func markerNames(doc *ast.CommentGroup, marker string) []string {
	if doc == nil {
		return nil
	}
	var names []string
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, marker)
		if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
			continue
		}
		names = append(names, strings.Fields(rest)...)
	}
	return names
}

// taintedFields collects every (type, field) pair annotated
// //mulint:tainted on a struct type declaration in pkg, plus the built-in
// rule that any field named Payload of a type named Frame is wire data.
func taintedFields(pkg *Package) map[types.Object]map[string]bool {
	out := map[types.Object]map[string]bool{}
	add := func(typ types.Object, field string) {
		m := out[typ]
		if m == nil {
			m = map[string]bool{}
			out[typ] = m
		}
		m[field] = true
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				tspec, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := tspec.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typObj := pkg.Info.Defs[tspec.Name]
				if typObj == nil {
					continue
				}
				// Annotation may sit on the GenDecl or the TypeSpec.
				names := markerNames(gd.Doc, MarkerTainted)
				names = append(names, markerNames(tspec.Doc, MarkerTainted)...)
				for _, n := range names {
					add(typObj, n)
				}
				if tspec.Name.Name == "Frame" {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.Name == "Payload" {
								add(typObj, "Payload")
							}
						}
					}
				}
			}
		}
	}
	return out
}

// taintedObjs computes the flow-insensitive set of tainted local objects in
// fd: annotated parameters, []byte results of nettrans.ReadFrame, and a
// propagation fixpoint over assignments (aliasing a tainted buffer, slicing
// it, or decoding it through a Decode*-named call taints the destination).
// Function literals are not descended into — a closure gets no taint facts,
// which under-approximates taint but never fabricates guards.
func taintedObjs(pkg *Package, fd *ast.FuncDecl, fields map[types.Object]map[string]bool) map[types.Object]bool {
	info := pkg.Info
	tainted := map[types.Object]bool{}

	// Seed: annotated parameters.
	names := markerNames(fd.Doc, MarkerTainted)
	if len(names) > 0 && fd.Type.Params != nil {
		want := map[string]bool{}
		for _, n := range names {
			want[n] = true
		}
		for _, fldList := range fd.Type.Params.List {
			for _, id := range fldList.Names {
				if want[id.Name] {
					if o := info.Defs[id]; o != nil {
						tainted[o] = true
					}
				}
			}
		}
	}
	if fd.Body == nil {
		return tainted
	}

	ts := &taintSet{objs: tainted, fields: fields}
	// Propagate to a fixpoint: each pass may taint new objects that earlier
	// assignments read from.
	for {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			changed = propagateAssign(info, as, ts) || changed
			return true
		})
		if !changed {
			break
		}
	}
	return tainted
}

// propagateAssign applies one assignment's taint transfer; reports whether
// any new object became tainted.
func propagateAssign(info *types.Info, as *ast.AssignStmt, ts *taintSet) bool {
	changed := false
	mark := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		o := objOf(info, id)
		if o != nil && !ts.objs[o] {
			ts.objs[o] = true
			changed = true
		}
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			if exprTainted(info, rhs, ts) {
				mark(as.Lhs[i])
			}
		}
		return changed
	}
	// Multi-assign from one call: x, y, z := f(...).
	if len(as.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	if isPkgCall(info, call, "nettrans", "ReadFrame") {
		// Mark every []byte-typed result: the frame payload came off the wire.
		for _, lhs := range as.Lhs {
			if isByteSlice(info.TypeOf(lhs)) {
				mark(lhs)
			}
		}
	}
	return changed
}

// exprTainted reports whether evaluating e yields wire-originating bytes:
// a tainted identifier or field, a slice of one, or a Decode*-named call fed
// a tainted argument (its decoded slices inherit the input's truncation).
func exprTainted(info *types.Info, e ast.Expr, ts *taintSet) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return keyOf(info, e, ts).valid()
	case *ast.SliceExpr:
		return exprTainted(info, x.X, ts)
	case *ast.CallExpr:
		fn := calleeFunc(info, x)
		if fn == nil {
			// ReadFrame used in single-assign position is not a pattern the
			// repo uses; conversions and fn-values stay untainted.
			return false
		}
		if fn.Name() == "ReadFrame" && fn.Pkg() != nil && fn.Pkg().Name() == "nettrans" {
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Decode") && !strings.HasPrefix(fn.Name(), "decode") {
			return false
		}
		for _, arg := range x.Args {
			if exprTainted(info, arg, ts) {
				return true
			}
		}
	}
	return false
}

// keyOf resolves e to a taint key when e names a tainted buffer: a tainted
// identifier, or a field selector whose (type, field) is tainted.
func keyOf(info *types.Info, e ast.Expr, ts *taintSet) taintKey {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := objOf(info, x); o != nil && ts.objs[o] {
			return taintKey{obj: o}
		}
	case *ast.SelectorExpr:
		t := info.TypeOf(x.X)
		if t == nil {
			return taintKey{}
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return taintKey{}
		}
		typObj := named.Obj()
		if ts.fields[typObj][x.Sel.Name] {
			return taintKey{typ: typObj, field: x.Sel.Name}
		}
		// Built-in: Frame.Payload is wire data even across packages (the
		// declaring package computed the field set; a consumer package sees
		// the same type object through the import graph only if loaded —
		// fall back to the name-based rule).
		if typObj.Name() == "Frame" && x.Sel.Name == "Payload" {
			return taintKey{typ: typObj, field: "Payload"}
		}
	}
	return taintKey{}
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// guardFacts runs the must-guard dataflow over g: a key is guarded at a
// program point iff every path from entry to that point evaluates a
// condition mentioning len(<key>) after the key's last assignment. Returns
// the fact set holding at the START of each node, addressed by block index
// and node index.
//
// The analysis is direction-agnostic on purpose: `if len(b) < 8 { return }`
// and `if len(b) >= 8 { use(b) }` both guard b in all successors. That
// over-approximates (a guard on the wrong branch still counts) but keeps the
// invariant the repo cares about checkable: deleting the len test breaks the
// build, and the reviewer — not the linter — judges the comparison's
// direction. See DESIGN.md §17.
type guardState map[taintKey]bool

func (s guardState) clone() guardState {
	c := make(guardState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s guardState) equal(o guardState) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// transferNode applies one CFG node to the state: conditions mentioning
// len(key) generate the guard fact; assignments to the key kill it.
func transferNode(info *types.Info, n ast.Node, ts *taintSet, s guardState) {
	// Gen: any len(<tainted key>) call in the node's expressions. This
	// covers if/for conditions (recorded as bare exprs) and guard
	// expressions inside condition chains (`r.err || len(r.b) < 4`).
	walkShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "len" {
			return true
		}
		if k := keyOf(info, call.Args[0], ts); k.valid() {
			s[k] = true
		}
		return true
	})
	// Kill: any assignment to a tainted key invalidates its guard. This
	// includes the canonical cursor advance `r.b = r.b[4:]` — the buffer
	// just shrank, so a prior length test proves nothing about it anymore.
	kill := func(lhs ast.Expr) {
		if k := keyOf(info, lhs, ts); k.valid() {
			delete(s, k)
		}
	}
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			kill(lhs)
		}
	case *ast.RangeStmt:
		kill(x.Key)
		kill(x.Value)
	case *ast.IncDecStmt:
		kill(x.X)
	}
}

// guardAnalysis computes, for every (block, node) point in g, the guard
// facts holding immediately before the node executes. Standard forward
// must-analysis: meet is set intersection over predecessors, iterated to a
// fixpoint (the domain is finite and transfer monotone on the lattice of
// guarded-key sets).
// Unreachable blocks (real dead code) are excluded: they have no facts and
// no diagnostics — dead code cannot panic.
func guardAnalysis(info *types.Info, g *funcCFG, ts *taintSet) map[*cfgBlock][]guardState {
	reach := g.reachable()
	in := make([]guardState, len(g.blocks))
	out := make([]guardState, len(g.blocks))
	for i := range g.blocks {
		out[i] = guardState{}
	}
	preds := g.preds()

	// Entry starts empty; everything else starts at "top" (nil marks
	// not-yet-computed so the first real predecessor value replaces it,
	// letting facts survive a loop's back edge on the first pass).
	computed := make([]bool, len(g.blocks))
	in[0] = guardState{}
	computed[0] = true

	changed := true
	for changed {
		changed = false
		for i, blk := range g.blocks {
			if !reach[blk] {
				continue
			}
			if i != 0 {
				var meet guardState
				seen := false
				for _, p := range preds[i] {
					if !computed[p.index] || !reach[p] {
						continue
					}
					if !seen {
						meet = out[p.index].clone()
						seen = true
						continue
					}
					for k := range meet {
						if !out[p.index][k] {
							delete(meet, k)
						}
					}
				}
				if !seen {
					// Still top: no path from the entry has reached the
					// block yet. Giving it the empty state here would meet
					// that state into a loop header for good (an outer
					// loop's post block is numbered before the inner loop's
					// exit that feeds it).
					continue
				}
				if computed[i] && meet.equal(in[i]) {
					continue
				}
				if !computed[i] {
					computed[i] = true
					changed = true // its successors may be waiting on it
				}
				in[i] = meet
			}
			s := in[i].clone()
			for _, n := range blk.nodes {
				transferNode(info, n, ts, s)
			}
			if !s.equal(out[i]) {
				out[i] = s
				changed = true
			}
		}
	}

	states := map[*cfgBlock][]guardState{}
	for i, blk := range g.blocks {
		if !reach[blk] {
			continue
		}
		s := in[i].clone()
		perNode := make([]guardState, len(blk.nodes))
		for j, n := range blk.nodes {
			perNode[j] = s.clone()
			transferNode(info, n, ts, s)
		}
		states[blk] = perNode
	}
	return states
}
