package core

import (
	"testing"

	"vital/internal/cluster"
	"vital/internal/fpga"
	"vital/internal/workload"
)

func compileSpec(t *testing.T, s *Stack, bench string, v workload.Variant) (*CompiledApp, workload.Spec) {
	t.Helper()
	b, err := workload.Find(bench)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Benchmark: b, Variant: v}
	app, err := s.Compile(workload.BuildDesign(spec))
	if err != nil {
		t.Fatal(err)
	}
	return app, spec
}

func TestCompileLenetSmall(t *testing.T) {
	s := NewStack(nil)
	app, spec := compileSpec(t, s, "lenet", workload.Small)
	if app.Blocks() != spec.PaperBlocks() {
		t.Fatalf("blocks = %d, want %d", app.Blocks(), spec.PaperBlocks())
	}
	if len(app.Bitstreams) != app.Blocks() {
		t.Fatalf("bitstreams = %d", len(app.Bitstreams))
	}
	if app.FminMHz <= 0 {
		t.Fatal("no timing result")
	}
	if app.Times.Total() <= 0 {
		t.Fatal("no stage times")
	}
	// Single-block app: no inter-block channels.
	if len(app.Channels) != 0 {
		t.Fatalf("channels = %d for a 1-block app", len(app.Channels))
	}
	// Registered with the controller's bitstream database.
	if _, ok := s.Controller.Bitstreams.Lookup("lenet-S"); !ok {
		t.Fatal("bitstreams not stored")
	}
}

func TestCompileMultiBlockGeneratesInterface(t *testing.T) {
	s := NewStack(nil)
	app, spec := compileSpec(t, s, "lenet", workload.Medium)
	if app.Blocks() != spec.PaperBlocks() {
		t.Fatalf("blocks = %d, want %d", app.Blocks(), spec.PaperBlocks())
	}
	if len(app.Channels) == 0 {
		t.Fatal("multi-block app needs latency-insensitive channels")
	}
	for _, c := range app.Channels {
		if c.SrcBlock < 0 || c.SrcBlock >= app.Blocks() || len(c.DstBlocks) == 0 {
			t.Fatalf("bad channel %+v", c)
		}
	}
	// Compile-time breakdown: P&R dominates, custom tools are small
	// (Fig. 8 shape).
	if app.Times.PNRFraction() < 0.5 {
		t.Fatalf("P&R fraction = %.2f, expected dominant", app.Times.PNRFraction())
	}
	if app.Times.CustomToolFraction() > 0.45 {
		t.Fatalf("custom tool fraction = %.2f, expected small", app.Times.CustomToolFraction())
	}
}

func TestDeployExecuteUndeploy(t *testing.T) {
	s := NewStack(nil)
	app, _ := compileSpec(t, s, "lenet", workload.Medium)
	dep, err := s.Deploy(app, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Blocks) != app.Blocks() {
		t.Fatalf("deployed %d blocks, want %d", len(dep.Blocks), app.Blocks())
	}
	stats, err := s.Execute(app, dep, 200)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tokens != 200 {
		t.Fatalf("sink produced %d tokens, want 200", stats.Tokens)
	}
	if stats.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if err := s.Undeploy(app); err != nil {
		t.Fatal(err)
	}
	if st := s.Controller.Status(); st.UsedBlocks != 0 {
		t.Fatalf("blocks leaked: %+v", st)
	}
}

func TestExecuteAcrossFPGAs(t *testing.T) {
	// Force a multi-FPGA deployment by pre-occupying blocks so no single
	// board fits the app.
	s := NewStack(nil)
	app, _ := compileSpec(t, s, "lenet", workload.Medium) // 4 blocks
	for b := 0; b < 4; b++ {
		free := s.Controller.DB.FreeOnBoard(b)
		if err := s.Controller.DB.Claim("filler", free[:13]); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := s.Deploy(app, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.MultiFPGA {
		t.Fatal("expected a multi-FPGA deployment")
	}
	stats, err := s.Execute(app, dep, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tokens != 3000 {
		t.Fatalf("tokens = %d", stats.Tokens)
	}
	if stats.InterFPGA == 0 {
		t.Fatal("no inter-FPGA channels despite spanning deployment")
	}
	// The latency-insensitive interface keeps the overhead tiny even
	// across FPGAs (the paper reports < 0.03% on full runs; short runs pay
	// pipeline fill, so allow a loose bound).
	if stats.OverheadFraction() > 0.2 {
		t.Fatalf("overhead fraction %.3f implausibly high", stats.OverheadFraction())
	}
}

func TestExecuteValidatesDeployment(t *testing.T) {
	s := NewStack(nil)
	app, _ := compileSpec(t, s, "lenet", workload.Small)
	if _, err := s.Execute(app, nil, 10); err == nil {
		t.Fatal("nil deployment accepted")
	}
}

func TestStackOnCustomCluster(t *testing.T) {
	c, err := cluster.New(cluster.Config{NumBoards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStack(c)
	if s.MaxBlocksPerApp != 30 {
		t.Fatalf("MaxBlocksPerApp = %d", s.MaxBlocksPerApp)
	}
}

func TestHeterogeneousClusterDeployment(t *testing.T) {
	// The Section 7 extension: different device types on one ring, same
	// virtual-block abstraction. An app compiled once deploys across a
	// VU37P and a VU9P without recompilation.
	c, err := cluster.NewHeterogeneous([]*fpga.Device{fpga.XCVU37P(), fpga.XCVU9P()}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStack(c)
	app, _ := compileSpec(t, s, "lenet", workload.Medium) // 4 blocks
	// Leave only 2 blocks free on each board so the app must span both
	// device types.
	for b := range c.Boards {
		free := s.Controller.DB.FreeOnBoard(b)
		if err := s.Controller.DB.Claim("filler", free[:len(free)-2]); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := s.Deploy(app, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.MultiFPGA {
		t.Fatal("expected deployment across both device types")
	}
	boards := map[int]bool{}
	for _, blk := range dep.Blocks {
		boards[blk.Board] = true
	}
	if len(boards) != 2 {
		t.Fatalf("spans %d boards, want 2", len(boards))
	}
	stats, err := s.Execute(app, dep, 500)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tokens != 500 {
		t.Fatalf("tokens = %d", stats.Tokens)
	}
}

func TestExecuteAccountsDRAMTraffic(t *testing.T) {
	s := NewStack(nil)
	app, _ := compileSpec(t, s, "lenet", workload.Small)
	dep, err := s.Deploy(app, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Execute(app, dep, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DRAMReadBytes != 1000*64 || stats.DRAMWriteBytes != 1000*64 {
		t.Fatalf("DRAM traffic = %d/%d bytes", stats.DRAMReadBytes, stats.DRAMWriteBytes)
	}
	if stats.DMASeconds <= 0 {
		t.Fatal("no DMA time modeled")
	}
	// The monitored counters in the app's domain saw the traffic.
	board := s.Cluster.Boards[dep.Blocks[0].Board]
	d, ok := board.Mem.Domain(app.Name)
	if !ok {
		t.Fatal("domain missing")
	}
	if d.BytesRead != stats.DRAMReadBytes || d.BytesWrit != stats.DRAMWriteBytes {
		t.Fatalf("monitor counters %d/%d don't match stats", d.BytesRead, d.BytesWrit)
	}
	if err := board.Mem.CheckIsolation(); err != nil {
		t.Fatal(err)
	}
	if err := s.Undeploy(app); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteFreesDMAWindow runs more executes of 16384 tokens than a
// default 1 GiB quota could hold if each leaked its DMA window (one 2 MiB
// page per run), then checks the domain's allocation is back where it
// started.
func TestExecuteFreesDMAWindow(t *testing.T) {
	s := NewStack(nil)
	app, _ := compileSpec(t, s, "lenet", workload.Small)
	dep, err := s.Deploy(app, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	domain, ok := s.Cluster.Boards[dep.Blocks[0].Board].Mem.Domain(app.Name)
	if !ok {
		t.Fatal("deployment has no memory domain")
	}
	before := domain.Stats().AllocatedBytes
	const runs = 640
	for i := 0; i < runs; i++ {
		if _, err := s.Execute(app, dep, 16384); err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
	}
	if after := domain.Stats().AllocatedBytes; after != before {
		t.Fatalf("domain holds %d allocated bytes after %d executes, want %d", after, runs, before)
	}
}
