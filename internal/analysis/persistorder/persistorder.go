// Package persistorder proves the flush-before-commit/ack persistence-
// ordering discipline of NVM data structures at `go build` time — the static
// half of the crash-consistency oracle PR 6 built dynamically.
//
// The repo forces every durable access through an explicit API
// (Machine.Store*, FlushRange, FlushObject, Hierarchy.Flush), and its
// workloads are stride-regular, so the canonical WAL bug class — a store
// acknowledged, or covered by a commit mark, while its cache line is still
// volatile — is statically decidable. The analyzer walks every structured
// control-flow path of every function and tracks each durable write through
// a three-point lattice:
//
//	written (dirty) → flushed-unfenced → flushed+fenced (durable-ordered)
//
// Machine.FlushRange models flush + fence: it both fences the writes it
// covers and, per the simulator's fence semantics, drains every previously
// issued (unfenced) flush. Machine.FlushObject / FlushObjects and
// cachesim.Hierarchy.Flush issue unfenced CLWBs: the blocks are on their way
// to the media, but nothing orders them before a later store.
//
// What counts as durable, and where ordering is owed, is declared with
// directive comments on the code itself (the analyzer's input contract):
//
//	wal  mem.Object //persist:data   — durable payload; must be fenced before
//	                                   a commit mark can cover it
//	head mem.Object //persist:commit — the commit mark; storing it promises
//	                                   everything below it is durable
//	s.acked = seq+1 //persist:ack    — client acknowledgement; every tracked
//	                                   write on the path must be fenced here
//
// persist:data / persist:commit attach to a struct field, variable
// declaration or assignment whose type is mem.Object (same line or the line
// above); persist:ack attaches to a statement. Three rules follow:
//
//  1. On any path where a store to a persist:data object reaches a
//     persist:commit store or a persist:ack point without a fenced flush
//     covering its address range, the store is reported at its exact site —
//     a crash there commits (or acknowledges) a record that may never have
//     reached the media.
//  2. If the only thing between such a store and the commit/ack is an
//     unfenced flush, the flush is reported, suggesting FlushRange.
//  3. A flush whose range provably misses part of the stored extent
//     (constant-offset interval arithmetic over the same base address) is
//     reported at the flush site.
//
// A package that implements apps.ConsistencyKernel — it promises
// client-visible persistence semantics — but declares no persist directives
// is reported once: the contract exists, the analyzer just cannot see it.
//
// The analysis is per-function and path-sensitive. Its walker (walkStmt,
// walkLoop, walkBranches, merge) follows Go's structured control flow: both
// arms of every if/switch/select, loop bodies walked once with break and
// continue states merged at their targets, explicit panic treated as a
// crash, and every return as a path end. Address arithmetic is resolved
// through single-assignment locals; flush ranges that cannot be proven short
// are given the benefit of the doubt, so every report is a path with *no*
// covering flush, not a failed proof.
//
// The mutant that earns the analyzer its place is pmemkv-bug: the buggy
// Store variant skips the WAL record's flush before the commit mark. eclint
// flags that store (suppressed by its audited allow, which the CI cross-check
// counts), and the dynamic oracle independently catches it as VIOL trials;
// the two detectors are kept side by side so each checks the other.
package persistorder

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"easycrash/internal/analysis"
)

const (
	memPath   = "easycrash/internal/mem"
	simPath   = "easycrash/internal/sim"
	cachePath = "easycrash/internal/cachesim"
	appsPath  = "easycrash/internal/apps"
)

// Analyzer is the persistorder check.
var Analyzer = &analysis.Analyzer{
	Name:          "persistorder",
	Doc:           "proves the flush-before-commit/ack ordering of declared durable objects (persist:data/commit/ack) on every control-flow path",
	Run:           run,
	RequireReason: true,
}

// role classifies a declared durable object.
type role int

const (
	roleNone role = iota
	roleData
	roleCommit
)

func (r role) String() string {
	switch r {
	case roleData:
		return "persist:data"
	case roleCommit:
		return "persist:commit"
	}
	return "untracked"
}

// pstate is the per-write lattice.
type pstate int

const (
	pDirty    pstate = iota // written, still (possibly) in a volatile cache line
	pUnfenced               // flushed without a fence: issued, not ordered
	pFenced                 // flushed and fenced: durable before anything later
)

const dirPrefix = "persist:"

// directives is the parsed declaration set of one package.
type directives struct {
	roles map[types.Object]role // mem.Object holders with a declared role
	acks  map[string]map[int]bool
}

func run(pass *analysis.Pass) error {
	dirs := collectDirectives(pass)
	if len(dirs.roles) == 0 {
		checkAdoption(pass)
		if len(dirs.acks) == 0 {
			return nil
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				w := &walker{pass: pass, dirs: dirs, reported: map[token.Pos]bool{}, locals: map[types.Object]ast.Expr{}}
				w.walkStmt(&state{}, body)
			}
			return true
		})
	}
	return nil
}

// checkAdoption reports types that implement apps.ConsistencyKernel in a
// package with no persist directives: the type promises client-visible
// persistence semantics eclint cannot verify.
func checkAdoption(pass *analysis.Pass) {
	var iface *types.Interface
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() != appsPath {
			continue
		}
		if obj, ok := imp.Scope().Lookup("ConsistencyKernel").(*types.TypeName); ok {
			iface, _ = obj.Type().Underlying().(*types.Interface)
		}
	}
	if iface == nil {
		return
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			pass.Reportf(tn.Pos(),
				"%s implements apps.ConsistencyKernel but the package declares no persist:data/persist:commit/persist:ack directives; persistorder cannot prove its flush-before-ack contract — annotate the durable objects and the acknowledgement point (see internal/analysis/persistorder)",
				name)
		}
	}
}

// ---------------------------------------------------------------------------
// Directive collection

func collectDirectives(pass *analysis.Pass) *directives {
	d := &directives{roles: map[types.Object]role{}, acks: map[string]map[int]bool{}}
	type pending struct {
		role role
		pos  token.Pos
		file *ast.File
		line int
	}
	var pend []pending
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Pos()).Filename
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				// Directives are machine comments like //go: and //eclint:
				// — no space after the slashes — so prose that merely
				// mentions persist:data stays prose.
				if !strings.HasPrefix(c.Text, "//"+dirPrefix) {
					continue
				}
				verb := strings.TrimPrefix(c.Text, "//"+dirPrefix)
				if i := strings.IndexAny(verb, " \t—"); i >= 0 {
					verb = verb[:i]
				}
				line := pass.Fset.Position(c.Pos()).Line
				switch verb {
				case "data":
					pend = append(pend, pending{roleData, c.Pos(), file, line})
				case "commit":
					pend = append(pend, pending{roleCommit, c.Pos(), file, line})
				case "ack":
					if d.acks[fname] == nil {
						d.acks[fname] = map[int]bool{}
					}
					d.acks[fname][line] = true
				default:
					pass.Reportf(c.Pos(), "unknown persist: directive %q (want persist:data, persist:commit or persist:ack)", verb)
				}
			}
		}
	}
	for _, p := range pend {
		holders := holdersAtLine(pass, p.file, p.line)
		if len(holders) == 0 {
			pass.Reportf(p.pos, "%s attaches to no mem.Object declaration or assignment on this line", p.role)
			continue
		}
		for _, h := range holders {
			d.roles[h] = p.role
		}
	}
	return d
}

// holdersAtLine finds the mem.Object-typed objects declared or assigned on
// the given line of file: struct fields, parameters, var specs, and
// assignment targets (idents or field selections).
func holdersAtLine(pass *analysis.Pass, file *ast.File, line int) []types.Object {
	var out []types.Object
	add := func(obj types.Object) {
		if obj != nil && isMemObject(obj.Type()) {
			out = append(out, obj)
		}
	}
	atLine := func(p token.Pos) bool { return pass.Fset.Position(p).Line == line }
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				if atLine(id.Pos()) {
					add(pass.Info.Defs[id])
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if atLine(id.Pos()) {
					add(pass.Info.Defs[id])
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !atLine(lhs.Pos()) {
					continue
				}
				switch lhs := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if obj := pass.Info.Defs[lhs]; obj != nil {
						add(obj)
					} else {
						add(pass.Info.Uses[lhs])
					}
				case *ast.SelectorExpr:
					add(pass.Info.Uses[lhs.Sel])
				}
			}
		}
		return true
	})
	return out
}

// isMemObject reports whether t is mem.Object.
func isMemObject(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Object" && obj.Pkg() != nil && obj.Pkg().Path() == memPath
}

// ---------------------------------------------------------------------------
// Path state

// wrec is one tracked durable write (a group of merged adjacent stores).
type wrec struct {
	root     types.Object // the declared mem.Object holder
	role     role
	terms    []ast.Expr // non-constant summands of the base address
	lo, hi   int64      // byte extent relative to terms, valid when constOK
	constOK  bool
	pos      token.Pos // first store of the group
	st       pstate
	flushPos token.Pos // the unfenced flush that last covered it
	reported bool
}

type state struct {
	recs []*wrec
	dead bool
}

func (s *state) clone() *state {
	c := &state{dead: s.dead, recs: make([]*wrec, len(s.recs))}
	for i, r := range s.recs {
		cp := *r
		c.recs[i] = &cp
	}
	return c
}

// breakable is an enclosing break/continue target collecting the path
// states that jump to it.
type breakable struct {
	isLoop    bool
	breaks    []*state
	continues []*state
}

type walker struct {
	pass     *analysis.Pass
	dirs     *directives
	reported map[token.Pos]bool
	locals   map[types.Object]ast.Expr // single-assignment local resolutions
	ctx      []*breakable
}

func (w *walker) reportOnce(pos token.Pos, format string, args ...any) {
	if !w.reported[pos] {
		w.reported[pos] = true
		w.pass.Reportf(pos, format, args...)
	}
}

func (w *walker) line(pos token.Pos) int { return w.pass.Fset.Position(pos).Line }

// ---------------------------------------------------------------------------
// Statement walk

func (w *walker) walkStmt(st *state, s ast.Stmt) {
	if st.dead {
		return
	}
	if w.isAck(s) {
		w.checkObligation(st, s.Pos(), "the write is acknowledged (persist:ack)")
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.walkStmt(st, sub)
			if st.dead {
				return
			}
		}

	case *ast.ExprStmt:
		w.handleExpr(st, s.X)

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.handleExpr(st, rhs)
		}
		w.recordLocals(s)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i, id := range vs.Names {
						if obj := w.pass.Info.Defs[id]; obj != nil {
							w.locals[obj] = vs.Values[i]
						}
					}
				}
			}
		}

	case *ast.IncDecStmt:
		w.poisonTargets(s.X)

	case *ast.ReturnStmt:
		st.dead = true

	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(st, s.Init)
		}
		then := st.clone()
		w.walkStmt(then, s.Body)
		alt := st.clone()
		if s.Else != nil {
			w.walkStmt(alt, s.Else)
		}
		*st = *w.merge(then, alt)

	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(st, s.Init)
		}
		w.walkLoop(st, s.Body, s.Post)

	case *ast.RangeStmt:
		w.walkLoop(st, s.Body, nil)

	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(st, s.Init)
		}
		w.walkBranches(st, s.Body, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(st, s.Init)
		}
		w.walkBranches(st, s.Body, false)

	case *ast.SelectStmt:
		w.walkBranches(st, s.Body, true)

	case *ast.LabeledStmt:
		w.walkStmt(st, s.Stmt)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.CONTINUE:
			for i := len(w.ctx) - 1; i >= 0; i-- {
				if w.ctx[i].isLoop {
					w.ctx[i].continues = append(w.ctx[i].continues, st.clone())
					break
				}
			}
		case token.BREAK:
			if len(w.ctx) > 0 {
				last := w.ctx[len(w.ctx)-1]
				last.breaks = append(last.breaks, st.clone())
			}
		}
		st.dead = true
	}
}

// isAck reports whether s starts on a persist:ack line.
func (w *walker) isAck(s ast.Stmt) bool {
	p := w.pass.Fset.Position(s.Pos())
	return w.dirs.acks[p.Filename][p.Line]
}

// walkLoop walks a loop body once from the entry state (single unrolling)
// and continues after the loop with the merge of every way out: zero
// iterations, the body falling through, and each break. Back-edge states
// (continues) carry no obligation — durability is only owed at commit/ack.
func (w *walker) walkLoop(st *state, body *ast.BlockStmt, post ast.Stmt) {
	ctx := &breakable{isLoop: true}
	w.ctx = append(w.ctx, ctx)
	b := st.clone()
	w.walkStmt(b, body)
	if post != nil && !b.dead {
		w.walkStmt(b, post)
	}
	w.ctx = w.ctx[:len(w.ctx)-1]

	exits := []*state{st.clone(), b}
	exits = append(exits, ctx.breaks...)
	exits = append(exits, ctx.continues...)
	m := exits[0]
	for _, e := range exits[1:] {
		m = w.merge(m, e)
	}
	*st = *m
}

// walkBranches handles switch/select clause bodies as parallel branches.
func (w *walker) walkBranches(st *state, body *ast.BlockStmt, always bool) {
	ctx := &breakable{}
	w.ctx = append(w.ctx, ctx)
	var branches []*state
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			hasDefault = hasDefault || c.List == nil
		case *ast.CommClause:
			stmts = c.Body
			hasDefault = hasDefault || c.Comm == nil
		}
		b := st.clone()
		for _, sub := range stmts {
			w.walkStmt(b, sub)
			if b.dead {
				break
			}
		}
		branches = append(branches, b)
	}
	w.ctx = w.ctx[:len(w.ctx)-1]
	branches = append(branches, ctx.breaks...)
	if !hasDefault && !always {
		branches = append(branches, st.clone())
	}
	if len(branches) == 0 {
		return
	}
	m := branches[0]
	for _, b := range branches[1:] {
		m = w.merge(m, b)
	}
	*st = *m
}

// merge joins two branch states: records present in both take the weaker
// lattice state (a write is only as durable as its least-flushed path) and
// the widened extent; records present on one path keep their state — the
// obligation exists on the path that wrote them.
func (w *walker) merge(a, b *state) *state {
	switch {
	case a.dead && b.dead:
		a.dead = true
		return a
	case a.dead:
		return b
	case b.dead:
		return a
	}
	out := a.clone()
	for _, rb := range b.recs {
		var ra *wrec
		for _, r := range out.recs {
			if r.pos == rb.pos {
				ra = r
				break
			}
		}
		if ra == nil {
			cp := *rb
			out.recs = append(out.recs, &cp)
			continue
		}
		if rb.st < ra.st {
			ra.st = rb.st
		}
		if rb.st == pUnfenced && ra.flushPos == token.NoPos {
			ra.flushPos = rb.flushPos
		}
		ra.reported = ra.reported || rb.reported
		if ra.constOK && rb.constOK {
			if rb.lo < ra.lo {
				ra.lo = rb.lo
			}
			if rb.hi > ra.hi {
				ra.hi = rb.hi
			}
		} else {
			ra.constOK = false
		}
	}
	return out
}

// recordLocals tracks single-assignment locals for address resolution, and
// updates/poisons them on reassignment.
func (w *walker) recordLocals(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		for _, lhs := range s.Lhs {
			w.poisonTargets(lhs)
		}
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if obj := w.pass.Info.Defs[id]; obj != nil {
			w.locals[obj] = s.Rhs[i]
			continue
		}
		if obj := w.pass.Info.Uses[id]; obj != nil {
			if s.Tok == token.ASSIGN {
				w.locals[obj] = s.Rhs[i]
			} else {
				delete(w.locals, obj) // compound assignment: value unknown
			}
		}
	}
}

func (w *walker) poisonTargets(e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := w.pass.Info.Uses[id]; obj != nil {
			delete(w.locals, obj)
		}
	}
}

// ---------------------------------------------------------------------------
// Call interpretation

// handleExpr interprets the API calls inside a statement-level expression.
func (w *walker) handleExpr(st *state, x ast.Expr) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return
	}
	// panic(...) is crash delivery: the machine is discarded, the path ends.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := w.pass.Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
			st.dead = true
			return
		}
	}
	fn := analysis.CalleeFunc(w.pass.Info, call)
	if fn == nil {
		return
	}
	pkg, typ, isMethod := analysis.RecvNamed(fn)
	if !isMethod {
		return
	}
	switch {
	case pkg == simPath && typ == "Machine":
		switch fn.Name() {
		case "StoreI64", "StoreF64":
			if len(call.Args) >= 1 {
				w.handleStore(st, call.Args[0], call.Pos())
			}
		case "FlushRange":
			if len(call.Args) >= 2 {
				w.handleFlush(st, call.Args[0], call.Args[1], true, call.Pos())
			}
		case "FlushObject":
			if len(call.Args) >= 1 {
				w.handleObjectFlush(st, call.Args[0], call.Pos())
			}
		case "FlushObjects":
			if len(call.Args) >= 1 {
				if lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit); ok {
					for _, el := range lit.Elts {
						w.handleObjectFlush(st, el, call.Pos())
					}
				}
			}
		case "RestoreObject":
			// Out-of-band restore: treat the object as rewritten durable state
			// with no pending obligation.
		}
	case pkg == cachePath && typ == "Hierarchy" && fn.Name() == "Flush":
		if len(call.Args) >= 2 {
			w.handleFlush(st, call.Args[0], call.Args[1], false, call.Pos())
		}
	case pkg == simPath && (typ == "F64Slice" || typ == "I64Slice") && fn.Name() == "Set":
		w.handleSliceStore(st, call)
	}
}

// handleStore interprets a Machine.Store* call: if the address anchors in a
// declared object, open (or extend) a tracked write record. A store to a
// persist:commit object is the commit point for every pending persist:data
// write on the path.
func (w *walker) handleStore(st *state, addr ast.Expr, pos token.Pos) {
	terms, c, ok := w.splitAddr(addr)
	if !ok {
		return
	}
	root, r := w.rootOf(terms)
	if r == roleNone {
		return
	}
	if r == roleCommit {
		w.checkObligation(st, pos, fmt.Sprintf("the commit mark %q is advanced", root.Name()))
	}
	w.addStore(st, root, r, terms, c, c+8, true, pos)
}

// handleSliceStore interprets F64Slice/I64Slice.Set on a view of a declared
// object: an element store with an extent the analyzer does not model
// (covered only by whole-object flushes).
func (w *walker) handleSliceStore(st *state, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := w.resolve(sel.X, 0)
	viewCall, ok := ast.Unparen(recv).(*ast.CallExpr)
	if !ok || len(viewCall.Args) != 1 {
		return
	}
	vfn := analysis.CalleeFunc(w.pass.Info, viewCall)
	if vfn == nil || (vfn.Name() != "F64" && vfn.Name() != "I64") {
		return
	}
	if pkg, typ, isM := analysis.RecvNamed(vfn); !isM || pkg != simPath || typ != "Machine" {
		return
	}
	root, r := w.holderOf(viewCall.Args[0])
	if r == roleNone {
		return
	}
	if r == roleCommit {
		w.checkObligation(st, call.Pos(), fmt.Sprintf("the commit mark %q is advanced", root.Name()))
	}
	w.addStore(st, root, r, nil, 0, 0, false, call.Pos())
}

// addStore opens a new write record or extends a contiguous dirty one.
func (w *walker) addStore(st *state, root types.Object, r role, terms []ast.Expr, lo, hi int64, constOK bool, pos token.Pos) {
	for _, rec := range st.recs {
		if rec.root == root && rec.st == pDirty && !rec.reported &&
			rec.constOK && constOK && w.termsEqual(rec.terms, terms) {
			if lo < rec.lo {
				rec.lo = lo
			}
			if hi > rec.hi {
				rec.hi = hi
			}
			return
		}
	}
	st.recs = append(st.recs, &wrec{
		root: root, role: r, terms: terms, lo: lo, hi: hi, constOK: constOK,
		pos: pos, st: pDirty,
	})
}

// handleObjectFlush interprets FlushObject(o)/one element of FlushObjects:
// an unfenced whole-object flush.
func (w *walker) handleObjectFlush(st *state, objExpr ast.Expr, pos token.Pos) {
	root, r := w.holderOf(objExpr)
	if r == roleNone {
		return
	}
	for _, rec := range st.recs {
		if rec.root == root && rec.st == pDirty {
			rec.st = pUnfenced
			rec.flushPos = pos
		}
	}
}

// handleFlush interprets FlushRange (fenced) or Hierarchy.Flush (unfenced).
func (w *walker) handleFlush(st *state, addrE, sizeE ast.Expr, fenced bool, pos token.Pos) {
	terms, c, addrOK := w.splitAddr(addrE)
	var root types.Object
	r := roleNone
	if addrOK {
		root, r = w.rootOf(terms)
	}

	// Size: a constant byte count, or the whole object (o.Size of the same
	// root with the flush starting at o.Addr).
	sizeConst, sizeIsConst := w.constVal(sizeE)
	whole := false
	if !sizeIsConst && r != roleNone && c == 0 && len(terms) == 1 {
		if sroot, _ := w.holderOf(w.sizeHolderExpr(sizeE)); sroot != nil && sroot == root {
			whole = true
		}
	}

	if r != roleNone {
		for _, rec := range st.recs {
			if rec.root != root || rec.reported {
				continue
			}
			covered := false
			switch {
			case whole:
				covered = true
			case rec.constOK && sizeIsConst && w.termsEqual(rec.terms, terms):
				if rec.lo >= c && rec.hi <= c+sizeConst {
					covered = true
				} else if rec.st == pDirty {
					// Same base, provably short range: the interval proof
					// says part of the stored extent stays volatile.
					w.reportOnce(pos,
						"flush covers [%+d,%+d) of %q but the pending store at line %d wrote [%+d,%+d); the uncovered bytes stay volatile across the fence",
						c, c+sizeConst, root.Name(), w.line(rec.pos), rec.lo, rec.hi)
					rec.reported = true
				}
			default:
				// Unprovable relation between flush range and stored extent
				// over the same object: benefit of the doubt, so reports only
				// ever name paths with no covering flush at all.
				covered = true
			}
			if covered && rec.st == pDirty {
				if fenced {
					rec.st = pFenced
				} else {
					rec.st = pUnfenced
					rec.flushPos = pos
				}
			}
			if covered && fenced && rec.st == pUnfenced {
				rec.st = pFenced
			}
		}
	}
	if fenced {
		// The fence drains everything previously issued: any unfenced flush
		// before this point is now ordered.
		for _, rec := range st.recs {
			if rec.st == pUnfenced {
				rec.st = pFenced
			}
		}
	}
}

// sizeHolderExpr unwraps a `X.Size` selector to X, or returns nil.
func (w *walker) sizeHolderExpr(sizeE ast.Expr) ast.Expr {
	sel, ok := ast.Unparen(w.resolve(sizeE, 0)).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Size" {
		return nil
	}
	if s, ok := w.pass.Info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return sel.X
}

// checkObligation enforces the lattice at a commit store or ack point: every
// pending tracked write on the path must be fenced. The commit form only
// binds persist:data writes (advancing the mark twice in a row is the
// mark's own business); the ack form binds everything, the commit mark
// included.
func (w *walker) checkObligation(st *state, at token.Pos, what string) {
	isAck := strings.Contains(what, "acknowledged")
	for _, rec := range st.recs {
		if rec.reported || rec.st == pFenced {
			continue
		}
		if !isAck && rec.role != roleData {
			continue
		}
		switch rec.st {
		case pDirty:
			w.reportOnce(rec.pos,
				"store to %q is not covered by a fenced flush before %s at line %d; a crash can make the promise durable while this write is still in a volatile cache line — flush the stored range first (FlushRange, flush+fence)",
				rec.root.Name(), what, w.line(at))
		case pUnfenced:
			w.reportOnce(rec.flushPos,
				"unfenced flush of %q is not ordered before %s at line %d; FlushObject and Hierarchy.Flush issue CLWBs without a fence — use FlushRange (flush+fence)",
				rec.root.Name(), what, w.line(at))
		}
		rec.reported = true
	}
}

// ---------------------------------------------------------------------------
// Address arithmetic

// splitAddr resolves an address expression through single-assignment locals
// and splits it into non-constant summands plus a constant byte offset.
// ok=false when a subtraction of a non-constant term (or another shape the
// interval arithmetic cannot handle) appears.
func (w *walker) splitAddr(e ast.Expr) (terms []ast.Expr, c int64, ok bool) {
	ok = true
	var walk func(e ast.Expr, sign int64)
	walk = func(e ast.Expr, sign int64) {
		if !ok {
			return
		}
		e = w.resolve(e, 0)
		if v, isC := w.constVal(e); isC {
			c += sign * v
			return
		}
		switch ex := e.(type) {
		case *ast.BinaryExpr:
			switch ex.Op {
			case token.ADD:
				walk(ex.X, sign)
				walk(ex.Y, sign)
				return
			case token.SUB:
				walk(ex.X, sign)
				if v, isC := w.constVal(w.resolve(ex.Y, 0)); isC {
					c -= sign * v
					return
				}
				ok = false
				return
			}
		case *ast.CallExpr:
			// A pure conversion is transparent: uint64(x+8) splits like x+8.
			if tv, isT := w.pass.Info.Types[ex.Fun]; isT && tv.IsType() && len(ex.Args) == 1 {
				walk(ex.Args[0], sign)
				return
			}
		}
		if sign < 0 {
			ok = false
			return
		}
		terms = append(terms, e)
	}
	walk(e, 1)
	if !ok {
		return nil, 0, false
	}
	return terms, c, true
}

// resolve substitutes single-assignment locals (depth-capped against
// cycles), returning the defining expression of an identifier.
func (w *walker) resolve(e ast.Expr, depth int) ast.Expr {
	if depth > 8 {
		return e
	}
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if obj := w.pass.Info.Uses[id]; obj != nil {
			if def, ok := w.locals[obj]; ok {
				return w.resolve(def, depth+1)
			}
		}
	}
	return e
}

// constVal evaluates e to a constant int if the type checker knows one.
func (w *walker) constVal(e ast.Expr) (int64, bool) {
	if tv, ok := w.pass.Info.Types[e]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return v, true
		}
	}
	return 0, false
}

// rootOf finds the declared holder among the address terms: exactly one
// summand must be (or resolve through) an `X.Addr` selection of a mem.Object
// field/variable with a role.
func (w *walker) rootOf(terms []ast.Expr) (types.Object, role) {
	var root types.Object
	r := roleNone
	for _, t := range terms {
		sel, ok := ast.Unparen(t).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Addr" {
			continue
		}
		if s, ok := w.pass.Info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
			continue
		} else if s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != memPath {
			continue
		}
		h, hr := w.holderOf(sel.X)
		if hr == roleNone {
			continue
		}
		if root != nil && root != h {
			return nil, roleNone // two tracked anchors in one address: give up
		}
		root, r = h, hr
	}
	return root, r
}

// holderOf resolves an expression denoting a mem.Object value to its
// declared holder (field or variable) and role.
func (w *walker) holderOf(e ast.Expr) (types.Object, role) {
	if e == nil {
		return nil, roleNone
	}
	e = w.resolve(e, 0)
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = w.pass.Info.Uses[e]
		if obj == nil {
			obj = w.pass.Info.Defs[e]
		}
	case *ast.SelectorExpr:
		obj = w.pass.Info.Uses[e.Sel]
	}
	if obj == nil {
		return nil, roleNone
	}
	if r, ok := w.dirs.roles[obj]; ok {
		return obj, r
	}
	return nil, roleNone
}

// termsEqual compares two summand multisets structurally (object-identical
// identifiers, equal constants, equal selector chains).
func (w *walker) termsEqual(a, b []ast.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
outer:
	for _, ta := range a {
		for i, tb := range b {
			if !used[i] && w.exprEqual(ta, tb, 0) {
				used[i] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// exprEqual is structural equality with identifiers compared by resolved
// types.Object identity and constants by value.
func (w *walker) exprEqual(a, b ast.Expr, depth int) bool {
	if depth > 16 {
		return false
	}
	a, b = w.resolve(a, 0), w.resolve(b, 0)
	if va, oka := w.constVal(a); oka {
		vb, okb := w.constVal(b)
		return okb && va == vb
	}
	switch ea := a.(type) {
	case *ast.Ident:
		eb, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		oa := w.pass.Info.Uses[ea]
		ob := w.pass.Info.Uses[eb]
		return oa != nil && oa == ob
	case *ast.SelectorExpr:
		eb, ok := b.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		oa := w.pass.Info.Uses[ea.Sel]
		ob := w.pass.Info.Uses[eb.Sel]
		return oa != nil && oa == ob && w.exprEqual(ea.X, eb.X, depth+1)
	case *ast.BinaryExpr:
		eb, ok := b.(*ast.BinaryExpr)
		if !ok || ea.Op != eb.Op {
			return false
		}
		return w.exprEqual(ea.X, eb.X, depth+1) && w.exprEqual(ea.Y, eb.Y, depth+1)
	case *ast.CallExpr:
		eb, ok := b.(*ast.CallExpr)
		if !ok || len(ea.Args) != len(eb.Args) {
			return false
		}
		if !w.exprEqual(ea.Fun, eb.Fun, depth+1) {
			return false
		}
		for i := range ea.Args {
			if !w.exprEqual(ea.Args[i], eb.Args[i], depth+1) {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		eb, ok := b.(*ast.IndexExpr)
		return ok && w.exprEqual(ea.X, eb.X, depth+1) && w.exprEqual(ea.Index, eb.Index, depth+1)
	case *ast.UnaryExpr:
		eb, ok := b.(*ast.UnaryExpr)
		return ok && ea.Op == eb.Op && w.exprEqual(ea.X, eb.X, depth+1)
	}
	return false
}
