package solver

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spanner"
)

// TestSharedMemoryGoldenPins pins the shared-memory path against its own
// past: the hashes below were captured before the spanner grouping and
// graph.Canonical lost their hash maps, and every later refactor of
// spanner, core, graph or solver must reproduce them bit for bit. Each
// input pins four outputs: the spanner.Compute mask, the
// core.ParallelSparsify edges, every BuildChain level graph (built on
// the sparsifier, as the pipeline does) and the SolveLaplacian x.
//
// GOMAXPROCS is fixed at 4 so that the shard partition (and with it
// the parallel dot products' combination order) is the same on every
// host. The pins are amd64 values: other architectures may fuse
// multiply-adds and round differently.
func TestSharedMemoryGoldenPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float hashes are pinned on amd64, not %s", runtime.GOARCH)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name                string
		g                   *graph.Graph
		seed                uint64
		mask, sparsifier, x uint64
		levels              []uint64
	}{
		{
			name: "image-24x24-r2", g: gen.ImageAffinityRadius(24, 24, 2, 0.2, 5), seed: 3,
			mask:       0xbfbb4730f16c0c57,
			sparsifier: 0x60015f89562079bc,
			levels: []uint64{
				0x60015f89562079bc, 0x356ed10fe7719fd3, 0xaac0b51e19a5b71c, 0x9b2ecdcf98b16422,
				0x872991556b18ac1a, 0xb696c33f58fe5ebc, 0x787139481364b3a0, 0x32161b00f7e5b7c2,
			},
			x: 0xbdd4d1faf410cad2,
		},
		{
			name: "gnp-1500-p0.006", g: gen.Gnp(1500, 0.006, 17), seed: 9,
			mask:       0x056f4cee53362756,
			sparsifier: 0x7183a7e6d72f4232,
			levels:     []uint64{0x7183a7e6d72f4232, 0x712c9c0c85c6f9e9},
			x:          0x81cd14da43ef81c4,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := spanner.Compute(tc.g, graph.NewAdjacency(tc.g), nil, spanner.Options{Seed: tc.seed})
			h, _, err := core.ParallelSparsify(tc.g, 1, 4, core.DefaultConfig(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			chainOpt := ChainOptions{Seed: tc.seed}
			chain, err := BuildChain(h, chainOpt)
			if err != nil {
				t.Fatal(err)
			}
			x, _, err := SolveLaplacian(h, goldenRHS(h.N), 1e-8, chainOpt)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got, want uint64) {
				if got != want {
					t.Errorf("%s hash %#016x, pinned %#016x", what, got, want)
				}
			}
			check("spanner mask", hashMask(res.InSpanner), tc.mask)
			check("sparsifier", hashEdges(h.Edges), tc.sparsifier)
			levels := make([]uint64, len(chain.Levels))
			for i, lvl := range chain.Levels {
				levels[i] = hashEdges(lvl.G.Edges)
			}
			if len(levels) != len(tc.levels) {
				t.Errorf("chain has %d levels %#016x, pinned %d %#016x", len(levels), levels, len(tc.levels), tc.levels)
			} else {
				for i := range levels {
					check("chain level", levels[i], tc.levels[i])
				}
			}
			check("solution x", hashFloats(x), tc.x)
		})
	}
}

// goldenRHS is a fixed right-hand side orthogonal to the ones vector.
func goldenRHS(n int) []float64 {
	b := make([]float64, n)
	sum := 0.0
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.7)
		sum += b[i]
	}
	for i := range b {
		b[i] -= sum / float64(n)
	}
	return b
}

func hashMask(mask []bool) uint64 {
	h := fnv.New64a()
	for _, b := range mask {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

func hashEdges(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}
