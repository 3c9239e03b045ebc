package dag

// TopoSort returns one topological sort of the dag using Kahn's
// algorithm with a deterministic (lowest-id-first) tie break, or
// ErrCycle if the graph is cyclic.
func (d *Dag) TopoSort() ([]Node, error) {
	n := d.NumNodes()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		indeg[u] = len(d.preds[u])
	}
	// A simple binary heap over node ids keeps the output deterministic.
	var heap nodeHeap
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			heap.push(Node(u))
		}
	}
	order := make([]Node, 0, n)
	for heap.len() > 0 {
		u := heap.pop()
		order = append(order, u)
		for _, v := range d.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				heap.push(v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// nodeHeap is a minimal binary min-heap of Nodes.
type nodeHeap struct{ a []Node }

func (h *nodeHeap) len() int { return len(h.a) }

func (h *nodeHeap) push(x Node) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *nodeHeap) pop() Node {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}

// EachTopoSort enumerates every topological sort of the dag (the set
// TS(G) of Section 2), invoking fn with each one. The slice passed to fn
// is reused between calls; copy it if it must be retained. If fn returns
// false, enumeration stops. EachTopoSort returns the number of sorts
// visited; a cyclic graph has zero topological sorts.
func (d *Dag) EachTopoSort(fn func(order []Node) bool) int {
	n := d.NumNodes()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		indeg[u] = len(d.preds[u])
	}
	order := make([]Node, 0, n)
	visited := 0
	stopped := false

	var rec func()
	rec = func() {
		if stopped {
			return
		}
		if len(order) == n {
			visited++
			if !fn(order) {
				stopped = true
			}
			return
		}
		for u := 0; u < n; u++ {
			if indeg[u] != 0 {
				continue
			}
			indeg[u] = -1 // mark placed
			order = append(order, Node(u))
			for _, v := range d.succs[u] {
				indeg[v]--
			}
			rec()
			for _, v := range d.succs[u] {
				indeg[v]++
			}
			order = order[:len(order)-1]
			indeg[u] = 0
			if stopped {
				return
			}
		}
	}
	rec()
	return visited
}

// IsTopoSort reports whether order is a topological sort of the dag:
// a permutation of the nodes in which every edge points forward.
func (d *Dag) IsTopoSort(order []Node) bool {
	if len(order) != d.NumNodes() {
		return false
	}
	pos := make([]int, d.NumNodes())
	for i := range pos {
		pos[i] = -1
	}
	for i, u := range order {
		if u < 0 || int(u) >= d.NumNodes() || pos[u] != -1 {
			return false
		}
		pos[u] = i
	}
	for u := range d.succs {
		for _, v := range d.succs[u] {
			if pos[u] >= pos[v] {
				return false
			}
		}
	}
	return true
}
