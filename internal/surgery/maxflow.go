// Package surgery implements the paper's baseline: dynamic DNN surgery
// (Hu et al., INFOCOM 2019) — the optimal partition of a *fixed* DNN for a
// *constant* bandwidth, found as a minimum s-t cut on a DAG whose arc
// capacities encode edge compute, cloud compute and transfer costs.
package surgery

import "math"

// arc is one directed residual arc; arcs are stored in pairs, so a^1 is the
// reverse of arc a.
type arc struct {
	to   int
	next int // next arc out of the same node, -1 at the end of the list
	cap  float64
}

// graph is a capacitated directed graph for max-flow with adjacency lists of
// paired residual arcs.
type graph struct {
	n    int
	head []int // per-node first arc index, -1 when none
	arcs []arc
}

func newGraph(n int) *graph {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &graph{n: n, head: head}
}

// reserve makes room for the given number of addArc calls, so building a
// graph of known size does not regrow its arc array.
func (g *graph) reserve(arcs int) {
	g.arcs = make([]arc, 0, 2*arcs)
}

// addArc inserts a directed arc u→v with the given capacity plus its zero-
// capacity residual twin.
func (g *graph) addArc(u, v int, capacity float64) {
	g.arcs = append(g.arcs, arc{to: v, next: g.head[u], cap: capacity})
	g.head[u] = len(g.arcs) - 1
	g.arcs = append(g.arcs, arc{to: u, next: g.head[v]})
	g.head[v] = len(g.arcs) - 1
}

// maxflow runs Edmonds–Karp from s to t and returns the max-flow value.
// Afterwards minCutSourceSide identifies the s-side of a minimum cut.
func (g *graph) maxflow(s, t int) float64 {
	total := 0.0
	parentArc := make([]int, g.n)
	queue := make([]int, 0, g.n) // each node is enqueued at most once per BFS
	for {
		for i := range parentArc {
			parentArc[i] = -1
		}
		// BFS on the residual graph.
		queue = append(queue[:0], s)
		parentArc[s] = -2
		for head := 0; head < len(queue) && parentArc[t] == -1; head++ {
			u := queue[head]
			for a := g.head[u]; a != -1; a = g.arcs[a].next {
				v := g.arcs[a].to
				if parentArc[v] == -1 && g.arcs[a].cap > 1e-12 {
					parentArc[v] = a
					queue = append(queue, v)
				}
			}
		}
		if parentArc[t] == -1 {
			return total
		}
		// Bottleneck along the augmenting path.
		bottleneck := math.Inf(1)
		for v := t; v != s; {
			a := parentArc[v]
			if g.arcs[a].cap < bottleneck {
				bottleneck = g.arcs[a].cap
			}
			v = g.arcs[a^1].to
		}
		for v := t; v != s; {
			a := parentArc[v]
			g.arcs[a].cap -= bottleneck
			g.arcs[a^1].cap += bottleneck
			v = g.arcs[a^1].to
		}
		total += bottleneck
		if math.IsInf(total, 1) {
			return total
		}
	}
}

// minCutSourceSide returns, after maxflow, which nodes remain reachable from
// s in the residual graph — the source side of a minimum cut.
func (g *graph) minCutSourceSide(s int) []bool {
	side := make([]bool, g.n)
	queue := []int{s}
	side[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := g.head[u]; a != -1; a = g.arcs[a].next {
			v := g.arcs[a].to
			if !side[v] && g.arcs[a].cap > 1e-12 {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}
