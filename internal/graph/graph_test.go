package graph

import (
	"testing"
	"testing/quick"

	"ftgcs/internal/sim"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, "t")
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop should fail")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range should fail")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge should fail")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("absent edge reported present")
	}
	if g.HasEdge(-1, 5) {
		t.Error("out-of-range HasEdge should be false")
	}
}

// TestDigest pins what the digest covers — name, size and ordered
// adjacency — and that AddEdge invalidates the cached value.
func TestDigest(t *testing.T) {
	build := func(name string, n int, edges ...[2]int) *Graph {
		g := New(n, name)
		for _, e := range edges {
			g.mustAddEdge(e[0], e[1])
		}
		return g
	}
	ref := Line(3)
	if build("line-3", 3, [2]int{0, 1}, [2]int{1, 2}).Digest() != ref.Digest() {
		t.Error("independently built equal graphs must share a digest")
	}
	for name, g := range map[string]*Graph{
		"name":            build("path-3", 3, [2]int{0, 1}, [2]int{1, 2}),
		"size":            build("line-3", 4, [2]int{0, 1}, [2]int{1, 2}),
		"adjacency order": build("line-3", 3, [2]int{1, 2}, [2]int{0, 1}),
	} {
		if g.Digest() == ref.Digest() {
			t.Errorf("digest ignores %s", name)
		}
	}
	before := ref.Digest()
	ref.mustAddEdge(0, 2)
	if ref.Digest() == before {
		t.Error("AddEdge did not invalidate the cached digest")
	}
}

func TestLine(t *testing.T) {
	g := Line(5)
	if g.N() != 5 || g.M() != 4 {
		t.Errorf("line-5: N=%d M=%d, want 5, 4", g.N(), g.M())
	}
	if got := g.Diameter(); got != 4 {
		t.Errorf("diameter = %d, want 4", got)
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Error("line degrees wrong")
	}
}

func TestRing(t *testing.T) {
	g := Ring(6)
	if g.M() != 6 {
		t.Errorf("ring-6 edges = %d, want 6", g.M())
	}
	if got := g.Diameter(); got != 3 {
		t.Errorf("diameter = %d, want 3", got)
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	// Degenerate small rings fall back to paths.
	if Ring(2).M() != 1 || Ring(1).M() != 0 {
		t.Error("small rings wrong")
	}
}

func TestClique(t *testing.T) {
	g := Clique(7)
	if g.M() != 21 {
		t.Errorf("K7 edges = %d, want 21", g.M())
	}
	if got := g.Diameter(); got != 1 {
		t.Errorf("diameter = %d, want 1", got)
	}
}

func TestStar(t *testing.T) {
	g := Star(9)
	if g.M() != 8 || g.Diameter() != 2 || g.Degree(0) != 8 {
		t.Errorf("star-9: M=%d D=%d deg0=%d", g.M(), g.Diameter(), g.Degree(0))
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 3)
	if g.N() != 12 {
		t.Errorf("N = %d, want 12", g.N())
	}
	// Edges: horizontal 3*3=9, vertical 4*2=8.
	if g.M() != 17 {
		t.Errorf("M = %d, want 17", g.M())
	}
	if got := g.Diameter(); got != 5 {
		t.Errorf("diameter = %d, want 5 (3+2)", got)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 4)
	if g.N() != 16 {
		t.Errorf("N = %d, want 16", g.N())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if got := g.Diameter(); got != 4 {
		t.Errorf("diameter = %d, want 4", got)
	}
}

func TestBalancedTree(t *testing.T) {
	g := BalancedTree(2, 3)
	if g.N() != 15 {
		t.Errorf("N = %d, want 15", g.N())
	}
	if g.M() != 14 {
		t.Errorf("M = %d, want 14 (tree)", g.M())
	}
	if got := g.Diameter(); got != 6 {
		t.Errorf("diameter = %d, want 6", got)
	}
	if BalancedTree(3, 0).N() != 1 {
		t.Error("depth-0 tree should be a single node")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Errorf("Q4: N=%d M=%d, want 16, 32", g.N(), g.M())
	}
	if got := g.Diameter(); got != 4 {
		t.Errorf("diameter = %d, want 4", got)
	}
}

func TestRandomConnected(t *testing.T) {
	rng := sim.NewRNG(7, 0)
	g := RandomConnected(50, 30, rng)
	if g.Diameter() < 0 {
		t.Error("random graph must be connected")
	}
	if g.M() < 49 {
		t.Errorf("M = %d, want ≥ 49", g.M())
	}
	// Determinism.
	g2 := RandomConnected(50, 30, sim.NewRNG(7, 0))
	e1, e2 := g.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("same seed should produce identical graphs")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed should produce identical edge lists")
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3, "disc")
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	d := g.BFS(0)
	if d[2] != -1 {
		t.Errorf("unreachable node distance = %d, want -1", d[2])
	}
	if g.Diameter() != -1 {
		t.Error("disconnected diameter should be -1")
	}
}

func TestSpanningTreeParents(t *testing.T) {
	g := Grid(3, 3)
	parents, err := g.SpanningTreeParents(4) // center
	if err != nil {
		t.Fatalf("SpanningTreeParents: %v", err)
	}
	if parents[4] != -1 {
		t.Error("root parent should be -1")
	}
	// Every non-root node's parent must be a neighbor and closer to root.
	dist := g.BFS(4)
	for v, p := range parents {
		if v == 4 {
			continue
		}
		if !g.HasEdge(v, p) {
			t.Errorf("parent[%d]=%d is not a neighbor", v, p)
		}
		if dist[p] != dist[v]-1 {
			t.Errorf("parent[%d]=%d not one hop closer", v, p)
		}
	}
	if _, err := g.SpanningTreeParents(-1); err == nil {
		t.Error("bad root should fail")
	}
	disc := New(2, "d")
	if _, err := disc.SpanningTreeParents(0); err == nil {
		t.Error("disconnected graph should fail")
	}
}

func TestAugmentStructure(t *testing.T) {
	base := Line(3)
	a, err := Augment(base, 4)
	if err != nil {
		t.Fatalf("Augment: %v", err)
	}
	if a.Net.N() != 12 {
		t.Errorf("N = %d, want 12", a.Net.N())
	}
	// Cluster edges: 3 * C(4,2) = 18; intercluster: 2 * 16 = 32.
	if a.Net.M() != 50 {
		t.Errorf("M = %d, want 50", a.Net.M())
	}
	// Every cluster is a clique.
	for c := 0; c < 3; c++ {
		m := a.Members(c)
		if len(m) != 4 {
			t.Fatalf("cluster %d has %d members", c, len(m))
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if !a.Net.HasEdge(m[i], m[j]) {
					t.Errorf("cluster %d not a clique: {%d,%d} missing", c, m[i], m[j])
				}
			}
		}
	}
	// Adjacent clusters fully bipartite; non-adjacent not connected.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !a.Net.HasEdge(a.Member(0, i), a.Member(1, j)) {
				t.Error("missing intercluster edge 0–1")
			}
			if a.Net.HasEdge(a.Member(0, i), a.Member(2, j)) {
				t.Error("spurious edge between non-adjacent clusters 0–2")
			}
		}
	}
}

func TestAugmentMembership(t *testing.T) {
	a, err := Augment(Ring(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < a.Net.N(); v++ {
		c := a.ClusterOf(v)
		i := a.IndexIn(v)
		if a.Member(c, i) != v {
			t.Fatalf("membership roundtrip failed for %d", v)
		}
	}
	if got := a.Clusters(); got != 5 {
		t.Errorf("Clusters = %d, want 5", got)
	}
	nc := a.NeighborClusters(0)
	if len(nc) != 2 {
		t.Errorf("ring cluster 0 should have 2 neighbor clusters, got %d", len(nc))
	}
}

func TestAugmentRejectsBadK(t *testing.T) {
	if _, err := Augment(Line(2), 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestAugmentK1IsBase(t *testing.T) {
	base := Grid(3, 2)
	a, err := Augment(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.N() != base.N() || a.Net.M() != base.M() {
		t.Error("k=1 augmentation should equal the base graph")
	}
}

func TestOverheadAccounting(t *testing.T) {
	// Theorem 1.1: with k = 3f+1, node overhead is O(f), edge overhead
	// O(f²) per base edge.
	f := 2
	k := 3*f + 1 // 7
	base := Grid(4, 4)
	a, err := Augment(base, k)
	if err != nil {
		t.Fatal(err)
	}
	o := a.Overhead()
	if o.Nodes != base.N()*k {
		t.Errorf("Nodes = %d, want %d", o.Nodes, base.N()*k)
	}
	wantEdges := base.N()*k*(k-1)/2 + base.M()*k*k
	if o.Edges != wantEdges {
		t.Errorf("Edges = %d, want %d", o.Edges, wantEdges)
	}
	if o.ClusterEdges+o.InterclusterEdges != o.Edges {
		t.Error("edge accounting inconsistent")
	}
	if o.NodeFactor != float64(k) {
		t.Errorf("NodeFactor = %v, want %v", o.NodeFactor, float64(k))
	}
}

func TestQuickAugmentInvariants(t *testing.T) {
	// Property: for random base graphs and k, |V| = k|𝒞| and
	// |E| = |𝒞|·k(k−1)/2 + |ℰ|·k².
	f := func(seed int64, rawN, rawExtra, rawK uint8) bool {
		n := 2 + int(rawN)%10
		extra := int(rawExtra) % 8
		k := 1 + int(rawK)%5
		base := RandomConnected(n, extra, sim.NewRNG(seed, 0))
		a, err := Augment(base, k)
		if err != nil {
			return false
		}
		wantEdges := base.N()*k*(k-1)/2 + base.M()*k*k
		return a.Net.N() == n*k && a.Net.M() == wantEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDiameterPreservedByAugmentation(t *testing.T) {
	// The hop diameter of G equals that of 𝒢 for k ≥ 2 on graphs with
	// diameter ≥ 1 (cluster hops are free via direct edges).
	base := Line(6)
	a, err := Augment(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Net.Diameter(), base.Diameter(); got != want {
		t.Errorf("augmented diameter = %d, want %d", got, want)
	}
}

func BenchmarkAugmentGrid(b *testing.B) {
	base := Grid(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Augment(base, 7); err != nil {
			b.Fatal(err)
		}
	}
}
