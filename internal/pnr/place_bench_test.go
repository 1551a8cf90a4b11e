package pnr

import (
	"testing"

	"vital/internal/fpga"
	"vital/internal/hls"
	"vital/internal/netlist"
	"vital/internal/partition"
	"vital/internal/workload"
)

// BenchmarkPlaceBlock places block 0 of vgg16-S as the compile flow
// partitions it (same block capacity and seed): packing, the analytic
// rounds with their linear solves, legalization and detailed placement.
// The design-wide adjacency is built once outside the loop, as
// LocalPlaceAndRoute shares it across blocks. Run with -benchmem.
func BenchmarkPlaceBlock(b *testing.B) {
	spec, err := workload.ParseSpec("vgg16-S")
	if err != nil {
		b.Fatal(err)
	}
	res, err := hls.Synthesize(workload.BuildDesign(spec))
	if err != nil {
		b.Fatal(err)
	}
	n := res.Netlist
	dev := fpga.XCVU37P()
	part, err := partition.Auto(n, partition.Config{BlockCapacity: dev.BlockResources(), Seed: 11}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var cells []netlist.CellID
	for c, blk := range part.CellBlock {
		if blk == 0 {
			cells = append(cells, netlist.CellID(c))
		}
	}
	grid := fpga.NewGrid(dev.BlockShape())
	adj := n.Adjacency(packMaxFanout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlaceBlockAdj(n, cells, grid, adj); err != nil {
			b.Fatal(err)
		}
	}
}
