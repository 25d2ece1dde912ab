package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// newLockBalance builds the lockbalance rule: every sync.Mutex/sync.RWMutex
// acquisition in the platform tiers must be released on every panic-free
// CFG path out of the function — early returns included — either by an
// explicit Unlock on the path or by a defer that is guaranteed to have been
// registered. The rule runs a forward dataflow over the function's CFG with
// a per-mutex lattice of (held count, registered deferred unlocks): held
// joins with max (a path that still holds the lock dominates), deferred
// with min (only a defer registered on every incoming path is guaranteed).
// A function that unlocks a mutex it never locks is treated as a
// caller-held helper and skipped for that mutex; write-locking a mutex
// whose lock may already be held is reported as a self-deadlock.
func newLockBalance() *Rule {
	return &Rule{
		Name: "lockbalance",
		Doc: "every Lock/RLock on the shard/server/platform mutexes must be " +
			"matched by an Unlock on all panic-free CFG paths",
		// The packages that guard registries with manual Lock/Unlock pairs
		// (the round loop locks and unlocks the registry around its solve):
		// a leaked lock here freezes the whole platform under load.
		Scope: []string{"internal/shard", "internal/server"},
		Check: checkLockBalance,
	}
}

// lockFact is one mutex's state on one path. held counts acquisitions
// (clamped; >1 on a write lock is already a finding), deferred counts
// unlock defers registered so far.
type lockFact struct {
	held     int8
	deferred int8
}

// lockState maps canonical mutex keys ("s@1234.mu#w") to facts.
type lockState map[string]lockFact

func cloneLockState(s lockState) lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// lockOp is one classified mutex call site.
type lockOp struct {
	key      string // canonical mutex path + "#w" or "#r"
	acquire  bool
	write    bool
	deferred bool // registered by a defer statement
	node     ast.Node
}

func checkLockBalance(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBalanceFunc(p, rep, fd)
		}
	}
}

func checkLockBalanceFunc(p *Package, rep *Reporter, fd *ast.FuncDecl) {
	lb := &lockBalancer{p: p, firstLock: map[string]token.Pos{}, skip: map[string]bool{}}
	// Fast pre-pass: skip the CFG machinery for lock-free functions, and
	// record per-key facts the dataflow needs (first Lock anchor, TryLock
	// escape hatch, whether the function locks the key at all).
	hasOp := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := lb.classify(call, false)
		if !ok {
			return true
		}
		hasOp = true
		if op.key == "" {
			return true // untrackable receiver; ignored
		}
		if op.acquire {
			lb.locksKey(op.key)
			if _, seen := lb.firstLock[op.key]; !seen {
				lb.firstLock[op.key] = call.Pos()
			}
		}
		return true
	})
	if !hasOp {
		return
	}

	g := BuildCFG(fd.Body)
	res := SolveForward(g, FlowProblem[lockState]{
		Boundary: func() lockState { return lockState{} },
		Transfer: lb.transfer,
		Join:     joinLockState,
		Equal:    equalLockState,
	})

	findings := map[string]posMsg{}
	record := func(key string, pos token.Pos, format string, args ...any) {
		if lb.skip[key] {
			return
		}
		if _, dup := findings[key]; !dup {
			findings[key] = posMsg{pos, fmt.Sprintf(format, args...)}
		}
	}
	// Deadlocks and underflows surface during the (re-runnable) transfer;
	// collect them from the balancer's idempotent side records.
	for _, d := range lb.deadlocks {
		record(d.key, d.pos, "%s", d.msg)
	}
	// Leaks surface at exit: a block flowing into Exit whose out-state
	// still holds a lock that no registered defer releases.
	for _, b := range g.Exit.Preds {
		out, ok := res.Out[b]
		if !ok {
			continue // unreachable return
		}
		retLine := p.Fset.Position(lastNodePos(b)).Line
		for key, fact := range out {
			if int(fact.held)-int(fact.deferred) > 0 {
				record(key, lb.firstLock[key],
					"%s locked here is not released on every return path (path through line %d returns with it held)",
					displayLockKey(key), retLine)
			}
		}
	}

	// Deterministic report order: by position.
	keys := make([]string, 0, len(findings))
	for k := range findings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := findings[keys[i]], findings[keys[j]]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		f := findings[k]
		rep.ReportPos(f.pos, "%s", f.msg)
	}
}

type posMsg struct {
	pos token.Pos
	msg string
}

type lockIssue struct {
	key string
	pos token.Pos
	msg string
}

// lockBalancer carries the per-function side state of the dataflow pass.
type lockBalancer struct {
	p         *Package
	firstLock map[string]token.Pos
	// skip marks keys excluded from reporting: caller-held helpers (the
	// function unlocks but never locks the key) and TryLock users.
	skip      map[string]bool
	locked    map[string]bool
	deadlocks []lockIssue
	seenIssue map[string]bool
}

func (lb *lockBalancer) locksKey(key string) {
	if lb.locked == nil {
		lb.locked = map[string]bool{}
	}
	lb.locked[key] = true
}

func (lb *lockBalancer) issue(key string, pos token.Pos, format string, args ...any) {
	// Transfer runs to fixpoint, so the same issue can resurface; keep the
	// first occurrence per (key, pos).
	id := fmt.Sprintf("%s@%d", key, pos)
	if lb.seenIssue == nil {
		lb.seenIssue = map[string]bool{}
	}
	if lb.seenIssue[id] {
		return
	}
	lb.seenIssue[id] = true
	lb.deadlocks = append(lb.deadlocks, lockIssue{key: key, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// transfer applies one block's mutex operations in order. The returned
// state is normalized (no zero entries) so Equal is structural.
func (lb *lockBalancer) transfer(b *Block, in lockState) lockState {
	out := cloneLockState(in)
	for _, n := range b.Nodes {
		lb.walkOps(n, out)
	}
	for k, v := range out {
		if v == (lockFact{}) {
			delete(out, k)
		}
	}
	return out
}

// joinLockState merges two path states: held joins with max (a path that
// still holds the lock dominates the merge), deferred with min (only an
// unlock deferred on every incoming path is guaranteed to run).
func joinLockState(a, b lockState) lockState {
	out := lockState{}
	for k, fa := range a {
		fb := b[k] // zero when absent
		f := lockFact{held: fa.held, deferred: min(fa.deferred, fb.deferred)}
		if fb.held > f.held {
			f.held = fb.held
		}
		if f != (lockFact{}) {
			out[k] = f
		}
	}
	for k, fb := range b {
		if _, ok := a[k]; ok {
			continue
		}
		// Absent in a: held joins with 0 (keep max), deferred min(0, x) = 0.
		if fb.held > 0 {
			out[k] = lockFact{held: fb.held}
		}
	}
	return out
}

func equalLockState(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// walkOps finds mutex operations under n in evaluation order, skipping
// function literals (their bodies run elsewhere) except under defer, where
// an immediately-invoked literal's unlocks run at function exit.
func (lb *lockBalancer) walkOps(n ast.Node, st lockState) {
	if ds, ok := n.(*ast.DeferStmt); ok {
		if fl, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			// defer func() { ... mu.Unlock() ... }()
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if op, ok := lb.classify(call, true); ok && op.key != "" {
						lb.apply(op, st)
					}
				}
				return true
			})
			return
		}
		if op, ok := lb.classify(ds.Call, true); ok && op.key != "" {
			lb.apply(op, st)
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			lb.walkOps(m, st)
			return false
		case *ast.CallExpr:
			if op, ok := lb.classify(m, false); ok && op.key != "" {
				lb.apply(op, st)
			}
		}
		return true
	})
}

func (lb *lockBalancer) apply(op lockOp, st lockState) {
	fact := st[op.key]
	switch {
	case op.deferred && !op.acquire:
		if fact.deferred < 2 {
			fact.deferred++
		}
	case op.deferred && op.acquire:
		// defer mu.Lock() — pathological; treat as untrackable.
		lb.skip[op.key] = true
	case op.acquire:
		if op.write && fact.held >= 1 {
			lb.issue(op.key, op.node.Pos(),
				"%s may already be held here; locking again self-deadlocks", displayLockKey(op.key))
		}
		if fact.held < 2 {
			fact.held++
		}
	default: // explicit unlock
		if fact.held == 0 {
			if lb.locked[op.key] {
				lb.issue(op.key, op.node.Pos(),
					"%s is not held on every path reaching this Unlock", displayLockKey(op.key))
			} else {
				// Caller-held helper: the function releases a lock it never
				// acquires. Out of intraprocedural scope.
				lb.skip[op.key] = true
			}
		} else {
			fact.held--
		}
	}
	st[op.key] = fact
}

// classify resolves a call to a mutex operation. The second return is false
// for non-mutex calls; a mutex call with an untrackable receiver returns
// ok with an empty key.
func (lb *lockBalancer) classify(call *ast.CallExpr, deferred bool) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn := calleeFunc(lb.p, call)
	if fn == nil || !isSyncLockerType(recvType(fn)) {
		return lockOp{}, false
	}
	var acquire, write bool
	switch fn.Name() {
	case "Lock":
		acquire, write = true, true
	case "Unlock":
		write = true
	case "RLock":
		acquire = true
	case "RUnlock":
	case "TryLock", "TryRLock":
		// Conditional acquisition breaks the balance lattice; exclude the
		// mutex from this function's analysis.
		if key := canonicalLockPath(lb.p, sel.X); key != "" {
			lb.skip[key+"#w"] = true
			lb.skip[key+"#r"] = true
		}
		return lockOp{}, false
	default:
		return lockOp{}, false
	}
	key := canonicalLockPath(lb.p, sel.X)
	if key != "" {
		if write {
			key += "#w"
		} else {
			key += "#r"
		}
	}
	return lockOp{key: key, acquire: acquire, write: write, deferred: deferred, node: call}, true
}

// recvType returns the receiver type of a method, nil for plain functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isSyncLockerType reports whether t (pointers stripped) is sync.Mutex or
// sync.RWMutex.
func isSyncLockerType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// canonicalLockPath renders a mutex receiver as a stable key: a chain of
// field selections rooted at a named object ("s.mu", "p.state.mu").
// Anything else (map/slice elements, call results) is untrackable and
// yields "".
func canonicalLockPath(p *Package, e ast.Expr) string {
	var fields []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			fields = append(fields, x.Sel.Name)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return ""
			}
			e = x.X
		case *ast.Ident:
			obj := identObj(p, x)
			if obj == nil {
				return ""
			}
			key := fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
			for i := len(fields) - 1; i >= 0; i-- {
				key += "." + fields[i]
			}
			return key
		default:
			return ""
		}
	}
}

// displayLockKey strips the internal object pin and mode suffix for
// messages: "s@1234.mu#w" → "s.mu".
func displayLockKey(key string) string {
	out := make([]byte, 0, len(key))
	skip := false
	for i := 0; i < len(key); i++ {
		switch key[i] {
		case '@':
			skip = true
		case '.':
			skip = false
			out = append(out, '.')
		case '#':
			return string(out)
		default:
			if !skip {
				out = append(out, key[i])
			}
		}
	}
	return string(out)
}

// lastNodePos returns the position of the block's last node (its
// terminator), or token.NoPos for empty blocks.
func lastNodePos(b *Block) token.Pos {
	if len(b.Nodes) == 0 {
		return token.NoPos
	}
	return b.Nodes[len(b.Nodes)-1].Pos()
}
