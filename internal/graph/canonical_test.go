package graph

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// canonicalMapRef is the hash-map Canonical that the counting-sort
// merge replaced, kept verbatim as the reference: parallel copies are
// summed into map[key] in input order, then the edges are sorted.
func canonicalMapRef(g *Graph) *Graph {
	type key struct{ u, v int32 }
	acc := make(map[key]float64, len(g.Edges))
	for _, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		acc[key{u, v}] += e.W
	}
	edges := make([]Edge, 0, len(acc))
	for k, w := range acc {
		edges = append(edges, Edge{U: k.u, V: k.v, W: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return &Graph{N: g.N, Edges: edges}
}

// checkCanonicalMatchesRef fails unless g.Canonical() equals the map
// reference edge for edge, with weights equal bit for bit.
func checkCanonicalMatchesRef(t *testing.T, g *Graph) {
	t.Helper()
	got, want := g.Canonical(), canonicalMapRef(g)
	if got.N != want.N || len(got.Edges) != len(want.Edges) {
		t.Fatalf("Canonical: n=%d m=%d, reference n=%d m=%d", got.N, len(got.Edges), want.N, len(want.Edges))
	}
	for i, e := range got.Edges {
		w := want.Edges[i]
		if e.U != w.U || e.V != w.V || math.Float64bits(e.W) != math.Float64bits(w.W) {
			t.Fatalf("edge %d: got %+v (bits %#x), reference %+v (bits %#x)",
				i, e, math.Float64bits(e.W), w, math.Float64bits(w.W))
		}
	}
}

func TestCanonicalMatchesMapReference(t *testing.T) {
	// Summing 1e16, 1, 1 in that order keeps 1e16 (each 1 rounds away);
	// any other order gives 1e16+2. Input order is the contract.
	orderSensitive := []Edge{{3, 1, 1e16}, {1, 3, 1}, {1, 3, 1}, {0, 2, 1}, {2, 0, 1}, {2, 0, 1e16}}
	dup := make([]Edge, 0, 3000)
	for i := 0; i < 1000; i++ {
		w := math.Ldexp(1+float64(i%7)/7, i%61-30)
		dup = append(dup, Edge{0, 4, w}, Edge{4, 0, w / 3}, Edge{2, 2, w})
	}
	r := rng.New(5)
	random := make([]Edge, 0, 500)
	for i := 0; i < 500; i++ {
		random = append(random, Edge{U: int32(r.Intn(40)), V: int32(r.Intn(40)), W: 0.01 + 100*r.Float64()})
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"empty", New(0)},
		{"isolated vertices only", New(7)},
		{"self-loops only", FromEdges(3, []Edge{{0, 0, 1}, {2, 2, 2}, {2, 2, 3}})},
		{"reversed endpoints", FromEdges(4, []Edge{{3, 0, 1}, {2, 1, 2}, {1, 0, 3}, {3, 2, 4}})},
		{"order-sensitive sums", FromEdges(4, orderSensitive)},
		{"heavy duplication", FromEdges(5, dup)},
		{"isolated vertices among edges", FromEdges(100, []Edge{{99, 50, 1}, {0, 99, 2}, {50, 99, 3}})},
		{"random multigraph", FromEdges(60, random)},
		{"already canonical", FromEdges(4, []Edge{{0, 1, 1}, {0, 3, 2}, {1, 2, 3}})},
	} {
		t.Run(tc.name, func(t *testing.T) { checkCanonicalMatchesRef(t, tc.g) })
	}
}

// FuzzCanonical decodes a random multigraph — byte 0 sets n ≤ 64, then
// every 4 bytes one edge (endpoints mod n, so self-loops, reversed
// endpoints and duplicates are all frequent; a 16-bit weight spanning
// 2^±32 so that summation order shows in the low bits) — and requires
// Canonical to match the map reference bit for bit.
func FuzzCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5})
	f.Add([]byte{3, 0, 1, 7, 0, 1, 0, 9, 200, 2, 2, 1, 1})
	f.Add([]byte{64, 63, 0, 255, 127, 0, 63, 0, 0, 63, 0, 255, 128, 10, 10, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkCanonicalMatchesRef(t, New(0))
			return
		}
		n := int(data[0]) % 65
		g := New(n)
		for rec := data[1:]; n > 0 && len(rec) >= 4; rec = rec[4:] {
			bits := binary.LittleEndian.Uint16(rec[2:])
			w := math.Ldexp(1+float64(bits&0x3ff)/1024, int(bits>>10)-32)
			g.Edges = append(g.Edges, Edge{U: int32(int(rec[0]) % n), V: int32(int(rec[1]) % n), W: w})
		}
		checkCanonicalMatchesRef(t, g)
	})
}
