package pnr

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"vital/internal/fpga"
	"vital/internal/linalg"
	"vital/internal/netlist"
)

// Placement maps every placeable entity of one virtual block onto a site of
// the physical block's grid. Because all physical blocks of a device are
// identical, the placement is position independent: relocating the block
// reuses it unchanged (Section 3.2).
type Placement struct {
	Grid     *fpga.Grid
	Entities []Entity
	// Sites[i] is the site of Entities[i].
	Sites []fpga.Site
	// cellEntity maps a netlist cell to its entity index (-1 for cells not
	// placed in this block, e.g. IO).
	cellEntity map[netlist.CellID]int
}

// SiteOf returns the site of the entity containing cell c.
func (p *Placement) SiteOf(c netlist.CellID) (fpga.Site, bool) {
	e, ok := p.cellEntity[c]
	if !ok || e < 0 {
		return fpga.Site{}, false
	}
	return p.Sites[e], true
}

// packMaxFanout is the fanout cap of the packing/placement adjacency view
// (clock and reset trees carry no locality information).
const packMaxFanout = 64

// PlaceBlock packs and places the given cells (the contents of one virtual
// block) onto the block grid. It returns an error if the cells exceed the
// grid's site capacity.
func PlaceBlock(n *netlist.Netlist, cells []netlist.CellID, grid *fpga.Grid) (*Placement, error) {
	return PlaceBlockAdj(n, cells, grid, n.Adjacency(packMaxFanout))
}

// PlaceBlockAdj is PlaceBlock with a caller-provided adjacency view
// (n.Adjacency(64)). The adjacency is the same for every virtual block of
// a design, so compiling many blocks should build it once and share it —
// it is only read here, never mutated, which also makes it safe to share
// across concurrent PlaceBlockAdj calls.
func PlaceBlockAdj(n *netlist.Netlist, cells []netlist.CellID, grid *fpga.Grid, adj [][]netlist.Edge) (*Placement, error) {
	entities := packCLBs(n, cells, adj)

	// Capacity check per kind.
	need := map[fpga.ColumnKind]int{}
	for i := range entities {
		need[entities[i].Kind]++
	}
	for kind, cnt := range need {
		if cap := grid.Capacity(kind); cnt > cap {
			return nil, fmt.Errorf("pnr: %d %v entities exceed block capacity %d", cnt, kind, cap)
		}
	}

	p := &Placement{Grid: grid, Entities: entities, Sites: make([]fpga.Site, len(entities)),
		cellEntity: make(map[netlist.CellID]int, len(cells))}
	for i := range entities {
		for _, c := range entities[i].Cells {
			p.cellEntity[c] = i
		}
	}

	p.place(adj)
	return p, nil
}

// placeIterations is the number of solve→legalize rounds of the analytic
// placement loop (SimPL-style: anchored quadratic relaxations interleaved
// with legalization, with growing anchor weight).
const placeIterations = 6

// place runs the iterative analytic placement loop and keeps the best
// legalized result by weighted wirelength. The entity edges, and with them
// the structure of the anchored rounds' linear system, are the same in
// every round, so both are built once per block.
func (p *Placement) place(adj [][]netlist.Edge) {
	ew := p.entityEdges(adj)
	x, y := p.spreadPositions(ew)
	sys := p.newAnchoredSystem(ew)
	bestWL := math.Inf(1)
	bestSites := make([]fpga.Site, len(p.Sites))
	anchorW := 0.02
	for iter := 0; iter < placeIterations; iter++ {
		p.legalize(x, y)
		if wl := p.weightedWirelength(ew); wl < bestWL {
			bestWL = wl
			copy(bestSites, p.Sites)
		}
		if iter == placeIterations-1 {
			break
		}
		// Anchor every entity to its legalized site and re-relax.
		x, y = sys.positions(p, anchorW)
		anchorW *= 2
	}
	copy(p.Sites, bestSites)
	// Detailed placement: greedy swap refinement on the winning solution.
	p.refineDetailed(ew)
}

// entityEdge is one weighted entity-level connection.
type entityEdge struct {
	a, b int
	w    float64
}

// entityEdges projects cell adjacency onto entities.
func (p *Placement) entityEdges(adj [][]netlist.Edge) []entityEdge {
	type ek struct{ a, b int }
	weights := map[ek]float64{}
	for c, ei := range p.cellEntity {
		for _, e := range adj[c] {
			ej, ok := p.cellEntity[e.To]
			if !ok || ej == ei {
				continue
			}
			a, b := ei, ej
			if a > b {
				a, b = b, a
			}
			weights[ek{a, b}] += float64(e.Weight) / 2 // each edge visited twice
		}
	}
	edges := make([]entityEdge, 0, len(weights))
	for k, w := range weights {
		edges = append(edges, entityEdge{k.a, k.b, w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	return edges
}

// weightedWirelength evaluates the current legalized placement.
func (p *Placement) weightedWirelength(edges []entityEdge) float64 {
	wl := 0.0
	for _, e := range edges {
		xa, ya := p.Grid.SitePos(p.Sites[e.a])
		xb, yb := p.Grid.SitePos(p.Sites[e.b])
		wl += e.w * (math.Abs(xa-xb) + math.Abs(ya-yb))
	}
	return wl
}

// The analytic rounds compute continuous positions by quadratic
// placement: minimize Σ w_ij ((x_i−x_j)² + (y_i−y_j)²), solved by
// conjugate gradients. The first round softly pulls a few spread anchors to
// break translation invariance (spreadPositions); every later round
// anchors each entity at its last legalized site with a growing weight
// (the SimPL-style pull, anchoredSystem).

// edgeTriplets returns the graph Laplacian of the entity edges, with spare
// capacity for extra further terms.
func edgeTriplets(ew []entityEdge, extra int) []linalg.Triplet {
	ts := make([]linalg.Triplet, 0, 4*len(ew)+extra)
	for _, e := range ew {
		ts = append(ts,
			linalg.Triplet{Row: e.a, Col: e.a, Val: e.w},
			linalg.Triplet{Row: e.b, Col: e.b, Val: e.w},
			linalg.Triplet{Row: e.a, Col: e.b, Val: -e.w},
			linalg.Triplet{Row: e.b, Col: e.a, Val: -e.w})
	}
	return ts
}

// regularizerEps is the weight of the weak uniform pull toward the block
// centre that keeps isolated entities centred.
const regularizerEps = 1e-6

// regularize appends the uniform regularizer's diagonal terms for ne
// entities and returns its share of every x and y right-hand side.
func (p *Placement) regularize(ts []linalg.Triplet, ne int) ([]linalg.Triplet, float64, float64) {
	for i := 0; i < ne; i++ {
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: regularizerEps})
	}
	return ts, regularizerEps * float64(p.Grid.Width) / 2, regularizerEps * float64(p.Grid.Rows) / 2
}

// spreadPositions is the first, unanchored relaxation: every kth entity
// is softly pulled to a distinct spot on a grid, which fixes the global
// position and spreads the relaxation.
func (p *Placement) spreadPositions(ew []entityEdge) ([]float64, []float64) {
	ne := len(p.Entities)
	const spreadW = 0.05
	stride := max(ne/64, 1)
	ts := edgeTriplets(ew, (ne+stride-1)/stride+ne)
	bx := make([]float64, ne)
	by := make([]float64, ne)
	W, H := float64(p.Grid.Width), float64(p.Grid.Rows)
	slot := 0
	for i := 0; i < ne; i += stride {
		fx := (float64(slot%8) + 0.5) / 8 * W
		fy := (float64(slot/8%8) + 0.5) / 8 * H
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: spreadW})
		bx[i] += spreadW * fx
		by[i] += spreadW * fy
		slot++
	}
	ts, cx, cy := p.regularize(ts, ne)
	for i := range bx {
		bx[i] += cx
		by[i] += cy
	}
	m, err := linalg.FromTriplets(ne, ts)
	if err != nil {
		panic(err) // every triplet indexes an entity of this block
	}
	return solveAxes(m, bx, by)
}

// anchoredSystem is the linear system of the anchored rounds: the edge
// Laplacian, one anchor term per entity, then the regularizer. Only the
// anchor weight changes from round to round, so the coordinates are
// sorted once and each round re-sums values only.
type anchoredSystem struct {
	ts      []linalg.Triplet
	anchors int // ts[anchors+i] anchors entity i
	pattern *linalg.Pattern
	cx, cy  float64 // the regularizer's share of each right-hand side
}

func (p *Placement) newAnchoredSystem(ew []entityEdge) *anchoredSystem {
	ne := len(p.Entities)
	s := &anchoredSystem{ts: edgeTriplets(ew, 2*ne)}
	s.anchors = len(s.ts)
	for i := 0; i < ne; i++ {
		s.ts = append(s.ts, linalg.Triplet{Row: i, Col: i})
	}
	s.ts, s.cx, s.cy = p.regularize(s.ts, ne)
	var err error
	if s.pattern, err = linalg.NewPattern(ne, s.ts); err != nil {
		panic(err) // every triplet indexes an entity of this block
	}
	return s
}

// positions solves one anchored round: every entity pulled toward its
// current legalized site with weight anchorW.
func (s *anchoredSystem) positions(p *Placement, anchorW float64) ([]float64, []float64) {
	ne := len(p.Entities)
	bx := make([]float64, ne)
	by := make([]float64, ne)
	for i := 0; i < ne; i++ {
		s.ts[s.anchors+i].Val = anchorW
		ax, ay := p.Grid.SitePos(p.Sites[i])
		// The conversion rounds the product before the add, so no platform
		// fuses the two into one multiply-add.
		bx[i] = float64(anchorW*ax) + s.cx
		by[i] = float64(anchorW*ay) + s.cy
	}
	return solveAxes(s.pattern.Assemble(s.ts), bx, by)
}

// solveAxes solves m·x = bx and m·y = by from a zero start, the y axis on
// a second goroutine: the two solves share only the read-only matrix, so
// the result is the same as solving them one after the other.
func solveAxes(m *linalg.CSR, bx, by []float64) ([]float64, []float64) {
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	// Convergence tolerance is modest: legalization absorbs residual
	// error anyway.
	opt := linalg.CGOptions{Tol: 1e-4, MaxIter: 300}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = linalg.SolveCG(m, y, by, opt)
	}()
	_, _ = linalg.SolveCG(m, x, bx, opt)
	wg.Wait()
	return x, y
}

// legalize snaps continuous positions to sites: per resource kind, entities
// are distributed over that kind's columns by x order, then packed into
// sites by y order.
func (p *Placement) legalize(x, y []float64) {
	byKind := map[fpga.ColumnKind][]int{}
	for i := range p.Entities {
		byKind[p.Entities[i].Kind] = append(byKind[p.Entities[i].Kind], i)
	}
	for kind, idxs := range byKind {
		cols := p.Grid.ColumnsOfKind(kind)
		// Sort entities by x, split proportionally across columns.
		sort.Slice(idxs, func(a, b int) bool {
			if x[idxs[a]] != x[idxs[b]] {
				return x[idxs[a]] < x[idxs[b]]
			}
			return idxs[a] < idxs[b]
		})
		total := len(idxs)
		start := 0
		remaining := total
		for ci, col := range cols {
			// Fill columns evenly (ceil division keeps the tail columns
			// within capacity).
			left := len(cols) - ci
			want := (remaining + left - 1) / left
			if capSites := p.Grid.SitesInColumn(col); want > capSites {
				want = capSites
			}
			colEnt := idxs[start : start+want]
			// Within a column, order by y.
			sort.Slice(colEnt, func(a, b int) bool {
				if y[colEnt[a]] != y[colEnt[b]] {
					return y[colEnt[a]] < y[colEnt[b]]
				}
				return colEnt[a] < colEnt[b]
			})
			for si, ei := range colEnt {
				p.Sites[ei] = fpga.Site{Kind: kind, Col: col, Idx: si}
			}
			start += want
			remaining -= want
		}
	}
}
