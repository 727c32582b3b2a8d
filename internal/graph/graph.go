// Package graph provides the topologies of the FTGCS paper: arbitrary base
// graphs 𝒢 = (𝒞, ℰ) and the augmented network G = (V, E) obtained by
// replacing every node of 𝒢 with a fully connected cluster of k nodes and
// every edge of 𝒢 with a complete bipartite graph between the corresponding
// clusters (paper Section 2).
package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a node in a graph. IDs are dense, 0-based.
type NodeID = int

// Graph is a simple undirected graph with dense 0-based node IDs.
type Graph struct {
	n   int
	adj [][]NodeID
	// name describes the topology for reports ("line-8", "grid-4x4", ...).
	name string
	// digest caches Digest while digested is set; AddEdge clears it. The
	// mutex orders concurrent Digest calls (sweep workers share graphs).
	digestMu sync.Mutex
	digested bool
	digest   [sha256.Size]byte
}

// New returns an empty graph with n nodes and no edges.
func New(n int, name string) *Graph {
	return &Graph{n: n, adj: make([][]NodeID, n), name: name}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Name returns the topology label.
func (g *Graph) Name() string { return g.name }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Digest returns the SHA-256 of the graph's structure: name, size and every
// adjacency list — including neighbor order, because the simulator consumes
// adjacency in order, so only order-identical graphs are guaranteed to
// drive byte-identical simulations. Two graphs with equal digests are
// interchangeable build inputs. The digest is cached; AddEdge invalidates
// it.
func (g *Graph) Digest() [sha256.Size]byte {
	g.digestMu.Lock()
	defer g.digestMu.Unlock()
	if g.digested {
		return g.digest
	}
	// Small graphs encode within the constant capacity, on the stack.
	buf := binary.AppendUvarint(make([]byte, 0, 512), uint64(len(g.name)))
	buf = append(buf, g.name...)
	buf = binary.AppendUvarint(buf, uint64(g.n))
	for _, nbrs := range g.adj {
		buf = binary.AppendUvarint(buf, uint64(len(nbrs)))
		for _, v := range nbrs {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	g.digest, g.digested = sha256.Sum256(buf), true
	return g.digest
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected.
func (g *Graph) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	for _, w := range g.adj[u] {
		if w == v {
			return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.digested = false
	return nil
}

// mustAddEdge is used by generators whose constructions are valid by
// design; an error indicates a generator bug.
func (g *Graph) mustAddEdge(u, v NodeID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Neighbors returns the adjacency list of v. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Edges returns all edges {u,v} with u < v, sorted.
func (g *Graph) Edges() [][2]NodeID {
	var out [][2]NodeID
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]NodeID{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// BFS returns the hop distance from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFS(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the hop diameter, or -1 if the graph is disconnected or
// empty.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	max := 0
	for src := 0; src < g.n; src++ {
		for _, d := range g.BFS(src) {
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// SpanningTreeParents returns, for a BFS spanning tree rooted at root, the
// parent of each node (root's parent is -1). Used by the TreeSync baseline.
func (g *Graph) SpanningTreeParents(root NodeID) ([]NodeID, error) {
	if root < 0 || root >= g.n {
		return nil, fmt.Errorf("graph: root %d out of range", root)
	}
	parent := make([]NodeID, g.n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[root] = -1
	queue := []NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if parent[v] == -2 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	for i, p := range parent {
		if p == -2 {
			return nil, fmt.Errorf("graph: node %d unreachable from root %d", i, root)
		}
	}
	return parent, nil
}
