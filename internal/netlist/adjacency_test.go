package netlist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapAdjacency is the map-based builder AdjacencyCapped replaced, kept as
// the reference it must agree with.
func mapAdjacency(n *Netlist, maxFanout, maxWidth int) [][]Edge {
	type key struct{ a, b CellID }
	weights := make(map[key]int)
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
				continue
			}
			a, b := t.Driver, s
			if a > b {
				a, b = b, a
			}
			weights[key{a, b}] += t.Width
		}
	}
	adj := make([][]Edge, len(n.Cells))
	for k, w := range weights {
		adj[k.a] = append(adj[k.a], Edge{To: k.b, Weight: w})
		adj[k.b] = append(adj[k.b], Edge{To: k.a, Weight: w})
	}
	for c := range adj {
		sort.Slice(adj[c], func(i, j int) bool { return adj[c][i].To < adj[c][j].To })
	}
	return adj
}

// randomMultiNetlist builds a netlist with repeated connections between
// the same cells, self-loops, undriven nets and a spread of fanouts and
// widths, so every branch of the adjacency builder is exercised.
func randomMultiNetlist(rng *rand.Rand) *Netlist {
	n := New("adjprop")
	cells := 1 + rng.Intn(60)
	for i := 0; i < cells; i++ {
		n.AddCell(KindLUT, "c")
	}
	nets := rng.Intn(150)
	for i := 0; i < nets; i++ {
		t := n.AddNet("n", 1+rng.Intn(80))
		if rng.Intn(10) > 0 {
			n.SetDriver(t, CellID(rng.Intn(cells)))
		}
		for s := rng.Intn(12); s > 0; s-- {
			n.AddSink(t, CellID(rng.Intn(cells)))
		}
	}
	return n
}

func TestAdjacencyMatchesMapBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		n := randomMultiNetlist(rng)
		maxFanout, maxWidth := rng.Intn(10), rng.Intn(70)
		got := n.AdjacencyCapped(maxFanout, maxWidth)
		if want := mapAdjacency(n, maxFanout, maxWidth); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d (fanout cap %d, width cap %d): adjacency\n got %v\nwant %v", i, maxFanout, maxWidth, got, want)
		}
	}
}

// TestAdjacencyListsAreIndependent checks that the per-cell lists, which
// share one backing array, do not overwrite each other when a caller
// appends to one of them.
func TestAdjacencyListsAreIndependent(t *testing.T) {
	n := buildChain(t)
	adj := n.Adjacency(0)
	want := mapAdjacency(n, 0, 0)
	for c := range adj {
		_ = append(adj[c], Edge{To: 99, Weight: 99})
	}
	if !reflect.DeepEqual(adj, want) {
		t.Fatalf("append to one cell's list changed another's:\n got %v\nwant %v", adj, want)
	}
}
