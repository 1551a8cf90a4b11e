package netlist

import (
	"cmp"
	"slices"
)

// This file provides graph views and algorithms over a Netlist that the
// packing and partitioning stages rely on: weighted cell adjacency,
// connected components, and a sequential-aware topological ordering.

// Edge is one weighted undirected adjacency entry produced by Adjacency.
type Edge struct {
	To     CellID
	Weight int // accumulated net width between the two cells
}

// Adjacency builds a weighted undirected adjacency list over cells.
// Two cells are adjacent if some net connects them (driver-to-sink); the
// edge weight accumulates the widths of all such nets. Nets whose fanout
// exceeds maxFanout (for example clock or reset trees) are skipped, the
// standard practice in partitioning since such nets carry no locality
// information. Pass maxFanout <= 0 to include all nets.
func (n *Netlist) Adjacency(maxFanout int) [][]Edge {
	return n.AdjacencyCapped(maxFanout, 0)
}

// AdjacencyCapped is Adjacency with an additional width filter: nets whose
// Width is maxWidth or more are skipped (pass maxWidth <= 0 to include all
// widths). Wide buses are natural module interfaces; the packing stage uses
// this view so clusters do not straddle them.
func (n *Netlist) AdjacencyCapped(maxFanout, maxWidth int) [][]Edge {
	// One (a<<32|b, width) pair per driver–sink connection with a < b.
	// Sorting the pairs once groups duplicates for merging and fixes the
	// order of every cell's list: a cell c first meets its neighbours
	// a < c (pairs keyed a<<32|c, in ascending a) and then its neighbours
	// b > c (pairs keyed c<<32|b, in ascending b). Each list therefore
	// comes out sorted by neighbour, which every consumer that walks an
	// edge list (packing BFS, partition clustering) relies on for
	// deterministic placements and bitstream payloads.
	type pair struct {
		key   uint64
		width int
	}
	var pairs []pair
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == NoCell {
			continue
		}
		if maxFanout > 0 && len(t.Sinks) > maxFanout {
			continue
		}
		if maxWidth > 0 && t.Width >= maxWidth {
			continue
		}
		for _, s := range t.Sinks {
			if s == t.Driver {
				continue // self-loop (e.g. feedback on one cell) carries no cut cost
			}
			a, b := t.Driver, s
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, pair{uint64(a)<<32 | uint64(b), t.Width})
		}
	}
	slices.SortFunc(pairs, func(x, y pair) int { return cmp.Compare(x.key, y.key) })
	// Merge duplicates in place and count each cell's degree.
	merged := pairs[:0]
	deg := make([]int, len(n.Cells))
	for _, p := range pairs {
		if k := len(merged) - 1; k >= 0 && merged[k].key == p.key {
			merged[k].width += p.width
			continue
		}
		merged = append(merged, p)
		deg[p.key>>32]++
		deg[uint32(p.key)]++
	}
	// All lists share one backing array; each is capped at its own length
	// so an append by a caller cannot run into its neighbour's list.
	backing := make([]Edge, 2*len(merged))
	adj := make([][]Edge, len(n.Cells))
	off := 0
	for c, d := range deg {
		if d > 0 {
			adj[c] = backing[off : off : off+d]
			off += d
		}
	}
	for _, p := range merged {
		a, b := CellID(p.key>>32), CellID(uint32(p.key))
		adj[a] = append(adj[a], Edge{To: b, Weight: p.width})
		adj[b] = append(adj[b], Edge{To: a, Weight: p.width})
	}
	return adj
}

// ConnectedComponents labels every cell with a component index using the
// adjacency relation (all nets, no fanout cap) and returns the labels and
// the number of components. Isolated cells each form their own component.
func (n *Netlist) ConnectedComponents() (labels []int, count int) {
	labels = make([]int, len(n.Cells))
	for i := range labels {
		labels[i] = -1
	}
	adj := n.Adjacency(0)
	var stack []CellID
	for start := range n.Cells {
		if labels[start] != -1 {
			continue
		}
		labels[start] = count
		stack = append(stack[:0], CellID(start))
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range adj[c] {
				if labels[e.To] == -1 {
					labels[e.To] = count
					stack = append(stack, e.To)
				}
			}
		}
		count++
	}
	return labels, count
}

// TopoOrder returns the cells in a dataflow order: combinational fan-in
// before fan-out, with sequential elements (DFF, BRAM, DSP with registered
// outputs) treated as cycle breakers — their outputs are considered
// available at the start of a cycle. The returned order always contains all
// cells; purely combinational loops (illegal in synthesized hardware, but
// possible in hand-built netlists) are broken arbitrarily and reported via
// the second return value.
func (n *Netlist) TopoOrder() (order []CellID, combLoop bool) {
	// In-degree counts only combinational input edges: edges from a LUT/IO
	// driver. Edges out of sequential cells do not constrain ordering.
	indeg := make([]int, len(n.Cells))
	succ := make([][]CellID, len(n.Cells))
	sequential := func(k Kind) bool {
		return k == KindDFF || k == KindBRAM || k == KindDSP
	}
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == NoCell || sequential(n.Cells[t.Driver].Kind) {
			continue
		}
		for _, s := range t.Sinks {
			if s == t.Driver {
				continue
			}
			succ[t.Driver] = append(succ[t.Driver], s)
			indeg[s]++
		}
	}
	order = make([]CellID, 0, len(n.Cells))
	queue := make([]CellID, 0, len(n.Cells))
	for i := range n.Cells {
		if indeg[i] == 0 {
			queue = append(queue, CellID(i))
		}
	}
	visited := make([]bool, len(n.Cells))
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if visited[c] {
			continue
		}
		visited[c] = true
		order = append(order, c)
		for _, s := range succ[c] {
			indeg[s]--
			if indeg[s] == 0 && !visited[s] {
				queue = append(queue, s)
			}
		}
	}
	if len(order) < len(n.Cells) {
		combLoop = true
		for i := range n.Cells {
			if !visited[i] {
				order = append(order, CellID(i))
			}
		}
	}
	return order, combLoop
}

// CutWidth computes the total width in bits of nets that cross the given
// cell partition: assign[c] is the part index of cell c. A net contributes
// its Width once for every distinct pair of parts it touches beyond the
// first (i.e. width × (parts touched − 1)), matching the buffer cost of the
// latency-insensitive interface which needs one channel per foreign part.
func (n *Netlist) CutWidth(assign []int) int {
	total := 0
	seen := make(map[int]bool, 8)
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == NoCell {
			continue
		}
		clear(seen)
		seen[assign[t.Driver]] = true
		for _, s := range t.Sinks {
			seen[assign[s]] = true
		}
		if len(seen) > 1 {
			total += t.Width * (len(seen) - 1)
		}
	}
	return total
}

// ExternalDegree returns, for each cell, the summed width of nets that
// connect the cell to any cell outside the given set. Used by interface
// generation to size per-block I/O.
func (n *Netlist) ExternalDegree(inSet func(CellID) bool) map[CellID]int {
	deg := make(map[CellID]int)
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == NoCell {
			continue
		}
		driverIn := inSet(t.Driver)
		anySinkOut := false
		for _, s := range t.Sinks {
			if inSet(s) != driverIn {
				anySinkOut = true
				break
			}
		}
		if !anySinkOut {
			continue
		}
		if driverIn {
			deg[t.Driver] += t.Width
		}
		for _, s := range t.Sinks {
			if inSet(s) == driverIn {
				continue
			}
			deg[s] += t.Width
		}
	}
	return deg
}
