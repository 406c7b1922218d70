//! GT-ITM-style transit-stub topology generator.
//!
//! The paper generates its simulation topologies with the GT-ITM tool \[9\],
//! varying the network size from 50 to 400 switch nodes. GT-ITM's flagship
//! model is the *transit-stub* model: a small core of interconnected transit
//! domains, each transit node attaching several stub domains of access nodes.
//! This module reimplements that model with the same structural knobs
//! (domain counts, intra-domain edge probability) so that the generated
//! topologies have the statistics the paper's experiments rely on: a small
//! dense core, a large sparse edge, and guaranteed connectivity.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::graph::{Graph, NodeId};

/// Role of a node in a transit-stub topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Core (transit-domain) node; data centers attach here.
    Transit,
    /// Edge (stub-domain) node; cloudlets and users attach here.
    Stub,
}

/// Configuration of the transit-stub generator.
///
/// Defaults mirror GT-ITM's canonical `ts` parameter file scaled to the
/// requested size.
#[derive(Debug, Clone)]
pub struct GtItmConfig {
    /// Total number of nodes to aim for (the generator lands within a few
    /// nodes of this; see [`generate`]).
    pub target_nodes: usize,
    /// Number of transit domains (the "T" parameter).
    pub transit_domains: usize,
    /// Nodes per transit domain (the "NT" parameter).
    pub nodes_per_transit: usize,
    /// Stub domains hanging off each transit node (the "S" parameter).
    pub stubs_per_transit_node: usize,
    /// Probability of an extra intra-domain edge beyond the spanning tree.
    pub intra_edge_prob: f64,
    /// RNG seed; the same seed yields the same topology.
    pub seed: u64,
}

impl GtItmConfig {
    /// Canonical configuration for a network of roughly `n` nodes.
    ///
    /// Splits the node budget as GT-ITM's example files do: ~10 % transit
    /// nodes, the rest spread uniformly across stub domains.
    ///
    /// # Panics
    ///
    /// Panics if `n < 10`.
    pub fn for_size(n: usize, seed: u64) -> Self {
        assert!(n >= 10, "transit-stub topologies need at least 10 nodes");
        let transit_domains = (n / 100).clamp(1, 4);
        let nodes_per_transit = ((n / 10) / transit_domains).max(2);
        let stubs_per_transit_node = 2;
        GtItmConfig {
            target_nodes: n,
            transit_domains,
            nodes_per_transit,
            stubs_per_transit_node,
            intra_edge_prob: 0.3,
            seed,
        }
    }
}

/// A generated topology: the graph plus each node's role.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The physical graph; edge weights are link latencies in milliseconds.
    pub graph: Graph,
    /// Role of every node, indexed by [`NodeId`].
    pub kinds: Vec<NodeKind>,
    /// Human-readable name ("gt-itm-250", "as1755", ...).
    pub name: String,
}

impl Topology {
    /// Ids of all transit (core) nodes.
    pub fn transit_nodes(&self) -> Vec<NodeId> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == NodeKind::Transit)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Ids of all stub (edge) nodes.
    pub fn stub_nodes(&self) -> Vec<NodeId> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == NodeKind::Stub)
            .map(|(i, _)| NodeId(i))
            .collect()
    }
}

/// Latency ranges (ms) per link class, loosely matching wide-area vs
/// metro-area links.
const TRANSIT_TRANSIT_MS: (f64, f64) = (8.0, 20.0);
const TRANSIT_STUB_MS: (f64, f64) = (2.0, 6.0);
const STUB_STUB_MS: (f64, f64) = (0.5, 2.0);

fn sample(rng: &mut StdRng, range: (f64, f64)) -> f64 {
    rng.random_range(range.0..range.1)
}

/// Connects `members` into a random spanning tree plus extra edges with
/// probability `p`, weights drawn from `w`.
fn connect_domain(g: &mut Graph, rng: &mut StdRng, members: &[NodeId], p: f64, w: (f64, f64)) {
    for (i, &m) in members.iter().enumerate().skip(1) {
        let parent = members[rng.random_range(0..i)];
        let weight = sample(rng, w);
        g.add_edge(parent, m, weight);
    }
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            if !g.has_edge(members[i], members[j]) && rng.random_bool(p) {
                let weight = sample(rng, w);
                g.add_edge(members[i], members[j], weight);
            }
        }
    }
}

/// Generates a transit-stub topology.
///
/// The result is always connected. The exact node count may deviate slightly
/// from `config.target_nodes` because stub domains have integral sizes; the
/// generator pads the final stub domain to land exactly on the target.
///
/// # Examples
///
/// ```
/// use mec_topology::gtitm::{generate, GtItmConfig};
///
/// let topo = generate(&GtItmConfig::for_size(100, 42));
/// assert_eq!(topo.graph.node_count(), 100);
/// assert!(topo.graph.is_connected());
/// ```
pub fn generate(config: &GtItmConfig) -> Topology {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();
    let mut kinds = Vec::new();

    // 1. Transit domains.
    let mut transit_domains: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..config.transit_domains {
        let mut members = Vec::new();
        for _ in 0..config.nodes_per_transit {
            let n = g.add_node();
            kinds.push(NodeKind::Transit);
            members.push(n);
        }
        connect_domain(
            &mut g,
            &mut rng,
            &members,
            config.intra_edge_prob.max(0.5),
            TRANSIT_TRANSIT_MS,
        );
        transit_domains.push(members);
    }

    // 2. Interconnect transit domains in a ring plus random chords.
    let d = transit_domains.len();
    if d > 1 {
        for i in 0..d {
            let a = transit_domains[i][rng.random_range(0..transit_domains[i].len())];
            let nb = &transit_domains[(i + 1) % d];
            let b = nb[rng.random_range(0..nb.len())];
            if !g.has_edge(a, b) {
                g.add_edge(a, b, sample(&mut rng, TRANSIT_TRANSIT_MS));
            }
        }
    }

    // 3. Stub domains: size the stubs so the total node count hits the target.
    let transit_total = config.transit_domains * config.nodes_per_transit;
    let stub_domain_count = transit_total * config.stubs_per_transit_node;
    let stub_total = config.target_nodes.saturating_sub(transit_total);
    let base = stub_total / stub_domain_count.max(1);
    let mut remainder = stub_total % stub_domain_count.max(1);

    for domain in &transit_domains {
        for &tnode in domain {
            for _ in 0..config.stubs_per_transit_node {
                let mut size = base;
                if remainder > 0 {
                    size += 1;
                    remainder -= 1;
                }
                if size == 0 {
                    continue;
                }
                let mut members = Vec::new();
                for _ in 0..size {
                    let n = g.add_node();
                    kinds.push(NodeKind::Stub);
                    members.push(n);
                }
                connect_domain(
                    &mut g,
                    &mut rng,
                    &members,
                    config.intra_edge_prob,
                    STUB_STUB_MS,
                );
                // Attach the stub domain to its transit node.
                let gw = members[rng.random_range(0..members.len())];
                g.add_edge(tnode, gw, sample(&mut rng, TRANSIT_STUB_MS));
            }
        }
    }

    debug_assert!(g.is_connected());
    Topology {
        graph: g,
        kinds,
        name: format!("gt-itm-{}", config.target_nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_num::{approx_eq, assert_approx_eq};

    #[test]
    fn hits_target_size() {
        for &n in &[50, 100, 250, 400] {
            let topo = generate(&GtItmConfig::for_size(n, 1));
            assert_eq!(topo.graph.node_count(), n, "size {n}");
        }
    }

    #[test]
    fn always_connected() {
        for seed in 0..10 {
            let topo = generate(&GtItmConfig::for_size(120, seed));
            assert!(topo.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&GtItmConfig::for_size(80, 7));
        let b = generate(&GtItmConfig::for_size(80, 7));
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        for (ea, eb) in a.graph.edges().zip(b.graph.edges()) {
            assert_eq!(ea.a, eb.a);
            assert_eq!(ea.b, eb.b);
            // Same seed, same arithmetic: weights must match exactly.
            assert_approx_eq!(ea.weight, eb.weight, 0.0);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GtItmConfig::for_size(80, 1));
        let b = generate(&GtItmConfig::for_size(80, 2));
        // Edge sets will essentially never coincide.
        let same = a.graph.edge_count() == b.graph.edge_count()
            && a.graph
                .edges()
                .zip(b.graph.edges())
                .all(|(x, y)| x.a == y.a && x.b == y.b && approx_eq(x.weight, y.weight, 0.0));
        assert!(!same);
    }

    #[test]
    fn transit_fraction_is_about_ten_percent() {
        let topo = generate(&GtItmConfig::for_size(200, 3));
        let transit = topo.transit_nodes().len();
        let frac = transit as f64 / 200.0;
        assert!(frac > 0.03 && frac < 0.2, "transit fraction {frac}");
    }

    #[test]
    fn stub_and_transit_partition_nodes() {
        let topo = generate(&GtItmConfig::for_size(150, 4));
        assert_eq!(
            topo.transit_nodes().len() + topo.stub_nodes().len(),
            topo.graph.node_count()
        );
    }

    #[test]
    fn edge_weights_positive() {
        let topo = generate(&GtItmConfig::for_size(100, 5));
        for e in topo.graph.edges() {
            assert!(e.weight > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least 10 nodes")]
    fn rejects_tiny_networks() {
        let _ = GtItmConfig::for_size(5, 0);
    }
}
