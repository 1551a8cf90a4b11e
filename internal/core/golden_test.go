package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"vital/internal/workload"
)

// artifactHash digests everything a compile hands to the runtime and the
// bitstream database: block count, Fmin, every frame's address and payload,
// every block's placement sites, and every block's routed wirelength.
func artifactHash(app *CompiledApp) string {
	h := sha256.New()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(app.Blocks()))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(app.FminMHz))
	for _, bs := range app.Bitstreams {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(bs.Frames)))
		for _, f := range bs.Frames {
			for _, v := range []int{f.Addr.Die, f.Addr.Block, f.Addr.Col, f.Addr.Minor, len(f.Payload)} {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			buf = append(buf, f.Payload...)
		}
	}
	for _, br := range app.BlockResults {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(br.Placement.Sites)))
		for _, s := range br.Placement.Sites {
			for _, v := range []int{int(s.Kind), s.Col, s.Idx} {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(br.Routing.WirelengthUnits))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenArtifacts pins artifactHash of the seven small Table 2 designs,
// compiled with NoCache on linux/amd64. Compiles are deterministic, so any
// change here means a change to what the flow emits, not just to how fast
// it emits it: a pure speed-up of the compile path must leave every entry
// untouched.
var goldenArtifacts = map[string]string{
	"lenet-S":    "3f942f31057fe3e95718863358e3f64d90ad34a61dd3937f9b67d894cd58c0a6",
	"alexnet-S":  "8ec133476ec3f3d25576ac9a29f9129680fec224cdd4aefedb31d2c137144c73",
	"svhn-S":     "4da46aea936ffb018131def84bade8877074c7c9e2e101fcc56c57a25aee803e",
	"vgg16-S":    "cd0fc87dc89b71f37bf769a9eec1fb12a047a1416cf924e4994a9293a7fed309",
	"cifar10-S":  "c3b481f1392f6d94e30950435e64d4367f50beaf4c5b74dee71e223f053367a5",
	"nin-S":      "a28ff0014d151621806b3693cf8ef46e864ae8050e115d127bd51565f915dd8f",
	"resnet18-S": "017df591c118ffcd17b1a1bd93052256182ad7506d9e7fa1ed75774f2ecf6bf0",
}

// TestCompileArtifactsGolden compiles each small design and compares its
// artifact hash against the pinned value. Other architectures may fuse
// floating-point multiply-adds in the placer's solver, which legitimately
// moves placements, so the pin holds on amd64 only.
func TestCompileArtifactsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("artifact hashes are pinned on amd64, running on %s", runtime.GOARCH)
	}
	for _, name := range []string{"lenet-S", "alexnet-S", "svhn-S", "vgg16-S", "cifar10-S", "nin-S", "resnet18-S"} {
		spec, err := workload.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		app, err := NewStack(nil).CompileWithOptions(context.Background(), workload.BuildDesign(spec),
			CompileOptions{NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := artifactHash(app), goldenArtifacts[name]; got != want {
			t.Errorf("%s: artifact hash %s, want %s", name, got, want)
		}
	}
}
