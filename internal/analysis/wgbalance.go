package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"sort"

	"cadmc/internal/analysis/cfg"
)

// WGBalance tracks sync.WaitGroup counters along CFG paths: it flags a
// Done (or negative Add) that drops the counter below zero on every path,
// a goroutine whose Done has no Add guaranteed to precede the spawn, an
// Add issued inside the spawned goroutine itself (racing Wait), and an
// Add issued sequentially after Wait when nothing is outstanding (wave
// reuse without a fresh WaitGroup). Only WaitGroups declared in the
// analyzed function are tracked — a parameter or field may carry
// outstanding Adds from the caller, which the lattice marks unknown.
var WGBalance = &Analyzer{
	Name: "wgbalance",
	Doc:  "WaitGroup Add/Done/Wait must balance along every path",
	Run:  runWGBalance,
}

type wgEventKind int

const (
	wgEvAdd wgEventKind = iota // sequential Add(n)
	wgEvDone
	wgEvWait
	wgEvSpawnDone // go func(){... wg.Done() ...}()
	wgEvSpawnAdd  // go func(){... wg.Add(n) ...}()
)

type wgEvent struct {
	kind  wgEventKind
	pos   token.Pos
	key   *wgKey
	n     int64 // Add delta
	known bool  // n is a compile-time constant
}

type wgKey struct {
	id string // identifier spelling; tracked WaitGroups are local idents
}

// wgVal is the per-WaitGroup lattice value: the interval [lo, hi] of
// possible outstanding Add counts, an unknown bit once the count escapes
// the interval domain (variable Add, widening), and whether Wait may / must
// have been passed on the paths reaching this point. Dones running inside
// spawned goroutines never decrement the interval — the outer function
// observes them only through Wait.
type wgVal struct {
	lo, hi  int64
	unknown bool
	allWait bool
}

// wgWiden bounds fixpoint growth: a loop accumulating Adds widens to
// unknown instead of iterating the interval forever.
const wgWiden = 32

func runWGBalance(pass *Pass) error {
	for _, fn := range flowFuncs(pass) {
		wgBalanceFunc(pass, fn)
	}
	return nil
}

// wgSyncCall matches wg.Add/Done/Wait where wg is a plain identifier
// declared inside body, returning the method name.
func wgSyncCall(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr) (id string, name string, ok bool) {
	recv, name, ok := syncMethod(pass, call)
	if !ok {
		return "", "", false
	}
	if name != "Add" && name != "Done" && name != "Wait" {
		return "", "", false
	}
	ident, ok := recv.(*ast.Ident)
	if !ok || !declaredWithin(baseIdentObj(pass, recv), body.Pos(), body.End()) {
		return "", "", false
	}
	return ident.Name, name, true
}

func wgBalanceFunc(pass *Pass, fn flowFunc) {
	g := pass.CFG(fn.Name, fn.Body)
	keys := make(map[string]*wgKey)
	events := make([][]wgEvent, len(g.Blocks))

	intern := func(id string) *wgKey {
		k := keys[id]
		if k == nil {
			k = &wgKey{id: id}
			keys[id] = k
		}
		return k
	}
	addDelta := func(call *ast.CallExpr) (int64, bool) {
		if len(call.Args) != 1 {
			return 0, false
		}
		tv, ok := pass.Info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return 0, false
		}
		n, exact := constant.Int64Val(tv.Value)
		return n, exact
	}

	for _, blk := range g.Blocks {
		inEpilogue := blk == g.Epilogue()
		for _, node := range blk.Nodes {
			cfg.WalkNode(node, inEpilogue, func(m ast.Node) bool {
				if gs, ok := m.(*ast.GoStmt); ok {
					if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
						// Ops inside the goroutine run concurrently with the
						// rest of the function: record what the body touches,
						// attributed to the spawn point.
						ast.Inspect(lit.Body, func(n ast.Node) bool {
							call, ok := n.(*ast.CallExpr)
							if !ok {
								return true
							}
							id, name, ok := wgSyncCall(pass, fn.Body, call)
							if !ok {
								return true
							}
							if recv, _, _ := syncMethod(pass, call); declaredWithin(baseIdentObj(pass, recv), lit.Body.Pos(), lit.Body.End()) {
								// A WaitGroup declared inside the goroutine
								// belongs to the literal's own pass.
								return true
							}
							switch name {
							case "Done":
								events[blk.Index] = append(events[blk.Index], wgEvent{
									kind: wgEvSpawnDone, pos: gs.Pos(), key: intern(id),
								})
							case "Add":
								events[blk.Index] = append(events[blk.Index], wgEvent{
									kind: wgEvSpawnAdd, pos: call.Pos(), key: intern(id),
								})
							}
							return true
						})
					}
					// go expr(...) on a non-literal runs elsewhere; nothing
					// here is a sequential event either way.
					return false
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, name, ok := wgSyncCall(pass, fn.Body, call)
				if !ok {
					return true
				}
				ev := wgEvent{pos: call.Pos(), key: intern(id)}
				switch name {
				case "Add":
					ev.kind = wgEvAdd
					ev.n, ev.known = addDelta(call)
				case "Done":
					ev.kind = wgEvDone
				case "Wait":
					ev.kind = wgEvWait
				}
				events[blk.Index] = append(events[blk.Index], ev)
				return true
			})
		}
	}
	if len(keys) == 0 {
		return
	}
	tracked := make([]*wgKey, 0, len(keys))
	for _, k := range keys {
		tracked = append(tracked, k)
	}
	sort.Slice(tracked, func(i, j int) bool { return tracked[i].id < tracked[j].id })

	apply := func(blk *cfg.Block, s map[string]wgVal, report func(wgEvent, wgVal)) map[string]wgVal {
		for _, ev := range events[blk.Index] {
			v := s[ev.key.id]
			if report != nil {
				report(ev, v)
			}
			switch ev.kind {
			case wgEvAdd:
				if !ev.known {
					v.unknown = true
				} else if !v.unknown {
					v.lo += ev.n
					v.hi += ev.n
				}
				v.allWait = false
			case wgEvDone:
				if !v.unknown {
					v.lo--
					v.hi--
				}
			case wgEvWait:
				v.allWait = true
			}
			if v.lo < -wgWiden || v.hi > wgWiden {
				v.unknown = true
			}
			if v.unknown {
				v.lo, v.hi = 0, 0
			}
			s[ev.key.id] = v
		}
		return s
	}

	prob := cfg.Problem[map[string]wgVal]{
		Dir: cfg.Forward,
		Boundary: func() map[string]wgVal {
			s := make(map[string]wgVal, len(tracked))
			for _, k := range tracked {
				s[k.id] = wgVal{}
			}
			return s
		},
		Init: func() map[string]wgVal { return nil },
		Transfer: func(b *cfg.Block, s map[string]wgVal) map[string]wgVal {
			if s == nil {
				return nil
			}
			out := make(map[string]wgVal, len(s))
			for k, v := range s {
				out[k] = v
			}
			return apply(b, out, nil)
		},
		Merge: func(a, b map[string]wgVal) map[string]wgVal {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := make(map[string]wgVal, len(a))
			for k, av := range a {
				bv := b[k]
				m := wgVal{
					lo:      av.lo,
					hi:      av.hi,
					unknown: av.unknown || bv.unknown,
					allWait: av.allWait && bv.allWait,
				}
				if bv.lo < m.lo {
					m.lo = bv.lo
				}
				if bv.hi > m.hi {
					m.hi = bv.hi
				}
				if m.unknown {
					m.lo, m.hi = 0, 0
				}
				out[k] = m
			}
			return out
		},
		Equal: func(a, b map[string]wgVal) bool {
			if (a == nil) != (b == nil) || len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if b[k] != v {
					return false
				}
			}
			return true
		},
	}
	in := cfg.Solve(g, prob)

	for _, blk := range g.Blocks {
		if in[blk.Index] == nil {
			continue
		}
		s := make(map[string]wgVal, len(in[blk.Index]))
		for k, v := range in[blk.Index] {
			s[k] = v
		}
		apply(blk, s, func(ev wgEvent, v wgVal) {
			id := ev.key.id
			switch ev.kind {
			case wgEvDone:
				if !v.unknown && v.hi <= 0 {
					pass.Reportf(ev.pos, "%s.Done here drops the counter below zero on every path (no outstanding Add); a negative WaitGroup counter panics", id)
				}
			case wgEvAdd:
				if ev.known && ev.n < 0 && !v.unknown && v.hi+ev.n < 0 {
					pass.Reportf(ev.pos, "%s.Add(%d) here drops the counter below zero on every path; a negative WaitGroup counter panics", id, ev.n)
					break
				}
				if !v.unknown && v.hi <= 0 && v.allWait {
					pass.Reportf(ev.pos, "%s.Add after %s.Wait starts a new wave on a finished WaitGroup; prefer a fresh WaitGroup per wave", id, id)
				}
			case wgEvSpawnDone:
				if !v.unknown && v.lo <= 0 {
					pass.Reportf(ev.pos, "this goroutine calls %s.Done, but no %s.Add is guaranteed on every path before the spawn; Wait can return before the goroutine runs", id, id)
				}
			case wgEvSpawnAdd:
				pass.Reportf(ev.pos, "%s.Add inside the spawned goroutine races %s.Wait; call Add before the go statement", id, id)
			}
		})
	}
}
