//! Undirected weighted graph with adjacency lists.
//!
//! This is the substrate every topology in the crate is built on: the
//! GT-ITM-style generator ([`crate::gtitm`]), the embedded AS1755 topology
//! ([`crate::zoo`]) and the MEC role assignment ([`crate::mec`]) all produce
//! or consume a [`Graph`].

use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense indices in `0..graph.node_count()`.
///
/// # Examples
///
/// ```
/// use mec_topology::graph::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// Identifier of an edge in a [`Graph`].
///
/// Edge ids are dense indices in `0..graph.edge_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected edge between two nodes with a non-negative weight
/// (interpreted as a length/latency by the shortest-path routines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Non-negative edge weight (length / latency units).
    pub weight: f64,
}

impl Edge {
    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n} is not an endpoint of edge {self:?}");
        }
    }
}

/// An undirected weighted graph stored as adjacency lists.
///
/// # Examples
///
/// ```
/// use mec_topology::graph::{Graph, NodeId};
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b, 1.5);
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// assert!(g.has_edge(a, b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    /// For each node, the incident edge ids.
    adjacency: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        NodeId(self.adjacency.len() - 1)
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// Parallel edges are allowed (GT-ITM occasionally produces them); use
    /// [`Graph::has_edge`] before insertion to avoid them.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds, if `a == b` (self-loop),
    /// or if `weight` is negative or not finite.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: f64) -> EdgeId {
        assert!(a.index() < self.node_count(), "node {a} out of bounds");
        assert!(b.index() < self.node_count(), "node {b} out of bounds");
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative, got {weight}"
        );
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { a, b, weight });
        self.adjacency[a.index()].push(id);
        self.adjacency[b.index()].push(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Iterates over `(neighbor, weight)` pairs of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adjacency[n.index()].iter().map(move |&eid| {
            let e = self.edge(eid);
            (e.other(n), e.weight)
        })
    }

    /// Degree of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// Returns `true` if an edge between `a` and `b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()].iter().any(|&eid| {
            let e = self.edge(eid);
            (e.a == a && e.b == b) || (e.a == b && e.b == a)
        })
    }

    /// Returns `true` if the graph is connected (an empty graph is connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 2.0);
        g.add_edge(c, a, 3.0);
        (g, a, b, c)
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(g.has_edge(b, c));
        assert!(g.has_edge(c, a));
    }

    #[test]
    fn neighbors_and_degree() {
        let (g, a, _, _) = triangle();
        let mut nbrs: Vec<_> = g.neighbors(a).collect();
        nbrs.sort_by_key(|(n, _)| n.index());
        assert_eq!(nbrs.len(), 2);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn edge_other_endpoint() {
        let (g, a, b, _) = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(a), b);
        assert_eq!(e.other(b), a);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let (g, _, _, c) = triangle();
        let e = g.edge(EdgeId(0));
        let _ = e.other(c);
    }

    #[test]
    fn connectivity() {
        let (g, _, _, _) = triangle();
        assert!(g.is_connected());
        let mut g2 = Graph::with_nodes(4);
        g2.add_edge(NodeId(0), NodeId(1), 1.0);
        assert!(!g2.is_connected());
        assert!(Graph::new().is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_weight() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), -1.0);
    }

    #[test]
    fn with_nodes_creates_isolated_nodes() {
        let g = Graph::with_nodes(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for n in g.nodes() {
            assert_eq!(g.degree(n), 0);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(EdgeId(7).to_string(), "e7");
    }
}
