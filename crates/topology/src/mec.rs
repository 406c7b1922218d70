//! Two-tiered MEC network: cloudlet and data-center placement on a topology.
//!
//! Mirrors the paper's Section IV-A setup: cloudlets at 10 % of the network
//! size, "randomly distributed in the network edge" (stub nodes), and 5
//! remote data centers in the core (transit nodes).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::graph::NodeId;
use crate::gtitm::Topology;
use crate::shortest_path::DistanceMatrix;

/// Index of a cloudlet site in a [`MecNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CloudletId(pub usize);

impl CloudletId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CloudletId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CL{}", self.0)
    }
}

/// Index of a data-center site in a [`MecNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataCenterId(pub usize);

impl DataCenterId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for DataCenterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DC{}", self.0)
    }
}

/// Placement configuration for [`MecNetwork::place`].
#[derive(Debug, Clone)]
pub struct PlacementConfig {
    /// Fraction of nodes that host a cloudlet (paper: 0.10).
    pub cloudlet_fraction: f64,
    /// Number of remote data centers (paper: 5).
    pub data_centers: usize,
    /// Seed for the random site selection.
    pub seed: u64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            cloudlet_fraction: 0.10,
            data_centers: 5,
            seed: 0,
        }
    }
}

/// A two-tiered MEC network: the physical topology plus cloudlet /
/// data-center sites and the all-pairs distance matrix used for pricing.
#[derive(Debug, Clone)]
pub struct MecNetwork {
    topology: Topology,
    distances: DistanceMatrix,
    cloudlet_sites: Vec<NodeId>,
    dc_sites: Vec<NodeId>,
}

impl MecNetwork {
    /// Places cloudlets and data centers on `topology`.
    ///
    /// Cloudlets go to randomly chosen stub (edge) nodes; data centers to
    /// randomly chosen transit (core) nodes. If the topology has fewer
    /// transit nodes than requested data centers, the remainder go to stub
    /// nodes (mirrors GT-ITM runs where the core is tiny).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no nodes, or if the requested cloudlet
    /// count is zero after rounding.
    pub fn place(topology: Topology, config: &PlacementConfig) -> Self {
        let n = topology.graph.node_count();
        assert!(n > 0, "topology must have nodes");
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut stubs = topology.stub_nodes();
        let mut transits = topology.transit_nodes();
        stubs.shuffle(&mut rng);
        transits.shuffle(&mut rng);

        let cloudlet_count = ((n as f64 * config.cloudlet_fraction).round() as usize).max(1);
        assert!(
            cloudlet_count <= stubs.len() + transits.len(),
            "not enough nodes for {cloudlet_count} cloudlets"
        );

        let mut cloudlet_sites: Vec<NodeId> = stubs.iter().copied().take(cloudlet_count).collect();
        if cloudlet_sites.len() < cloudlet_count {
            // Degenerate topologies (all transit): spill into the core.
            let missing = cloudlet_count - cloudlet_sites.len();
            cloudlet_sites.extend(transits.iter().copied().take(missing));
        }

        let mut dc_sites: Vec<NodeId> =
            transits.iter().copied().take(config.data_centers).collect();
        if dc_sites.len() < config.data_centers {
            let used: std::collections::HashSet<NodeId> = cloudlet_sites.iter().copied().collect();
            for &s in stubs.iter().rev() {
                if dc_sites.len() == config.data_centers {
                    break;
                }
                if !used.contains(&s) && !dc_sites.contains(&s) {
                    dc_sites.push(s);
                }
            }
        }

        let distances = DistanceMatrix::new(&topology.graph);
        MecNetwork {
            topology,
            distances,
            cloudlet_sites,
            dc_sites,
        }
    }

    /// Like [`MecNetwork::place`] but choosing cloudlet sites with an
    /// explicit [`crate::placement::PlacementStrategy`] instead of the
    /// paper's uniform-random rule. Data centers are placed as in
    /// [`MecNetwork::place`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`MecNetwork::place`].
    pub fn place_with_strategy(
        topology: Topology,
        config: &PlacementConfig,
        strategy: crate::placement::PlacementStrategy,
    ) -> Self {
        let n = topology.graph.node_count();
        assert!(n > 0, "topology must have nodes");
        let distances = DistanceMatrix::new(&topology.graph);
        let cloudlet_count = ((n as f64 * config.cloudlet_fraction).round() as usize).max(1);
        let cloudlet_sites = crate::placement::choose_sites(
            &topology,
            &distances,
            strategy,
            cloudlet_count,
            config.seed,
        );

        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xDC));
        let mut transits = topology.transit_nodes();
        transits.shuffle(&mut rng);
        let mut dc_sites: Vec<NodeId> = transits
            .into_iter()
            .filter(|s| !cloudlet_sites.contains(s))
            .take(config.data_centers)
            .collect();
        if dc_sites.len() < config.data_centers {
            for node in topology.graph.nodes() {
                if dc_sites.len() == config.data_centers {
                    break;
                }
                if !cloudlet_sites.contains(&node) && !dc_sites.contains(&node) {
                    dc_sites.push(node);
                }
            }
        }
        MecNetwork {
            topology,
            distances,
            cloudlet_sites,
            dc_sites,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// All-pairs distance matrix of the physical graph.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// Number of cloudlet sites.
    pub fn cloudlet_count(&self) -> usize {
        self.cloudlet_sites.len()
    }

    /// Number of data-center sites.
    pub fn data_center_count(&self) -> usize {
        self.dc_sites.len()
    }

    /// Ids of all cloudlets.
    pub fn cloudlets(&self) -> impl Iterator<Item = CloudletId> + '_ {
        (0..self.cloudlet_sites.len()).map(CloudletId)
    }

    /// Ids of all data centers.
    pub fn data_centers(&self) -> impl Iterator<Item = DataCenterId> + '_ {
        (0..self.dc_sites.len()).map(DataCenterId)
    }

    /// Physical node hosting cloudlet `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn cloudlet_site(&self, c: CloudletId) -> NodeId {
        self.cloudlet_sites[c.index()]
    }

    /// Physical node hosting data center `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of bounds.
    pub fn dc_site(&self, d: DataCenterId) -> NodeId {
        self.dc_sites[d.index()]
    }

    /// Latency distance between cloudlet `c` and data center `d`.
    pub fn cloudlet_dc_distance(&self, c: CloudletId, d: DataCenterId) -> f64 {
        self.distances
            .distance(self.cloudlet_site(c), self.dc_site(d))
    }

    /// Latency distance from an arbitrary node to cloudlet `c`.
    pub fn node_cloudlet_distance(&self, n: NodeId, c: CloudletId) -> f64 {
        self.distances.distance(n, self.cloudlet_site(c))
    }

    /// Latency distance from an arbitrary node to data center `d`.
    pub fn node_dc_distance(&self, n: NodeId, d: DataCenterId) -> f64 {
        self.distances.distance(n, self.dc_site(d))
    }

    /// The data center closest to node `n` (ties to the smallest id).
    ///
    /// # Panics
    ///
    /// Panics if the network has no data centers.
    pub fn nearest_dc(&self, n: NodeId) -> DataCenterId {
        assert!(!self.dc_sites.is_empty(), "network has no data centers");
        let mut best = DataCenterId(0);
        let mut best_d = f64::INFINITY;
        for d in self.data_centers() {
            let dist = self.node_dc_distance(n, d);
            if dist < best_d {
                best_d = dist;
                best = d;
            }
        }
        best
    }

    /// The cloudlet closest to node `n` (ties to the smallest id).
    ///
    /// # Panics
    ///
    /// Panics if the network has no cloudlets.
    pub fn nearest_cloudlet(&self, n: NodeId) -> CloudletId {
        assert!(!self.cloudlet_sites.is_empty(), "network has no cloudlets");
        let mut best = CloudletId(0);
        let mut best_d = f64::INFINITY;
        for c in self.cloudlets() {
            let dist = self.node_cloudlet_distance(n, c);
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        best
    }

    /// Buckets cloudlets into `n` spatial regions by proximity.
    ///
    /// Returns a region index in `0..n` for every cloudlet (indexed by
    /// [`CloudletId`]). Seeds are picked greedily k-center style — the
    /// first seed is cloudlet 0, each further seed the cloudlet farthest
    /// (in shortest-path latency between sites) from every seed chosen so
    /// far — then each cloudlet joins its nearest seed (ties to the
    /// smallest region index). The construction is deterministic, so the
    /// same network always shards the same way, and every region is
    /// non-empty as long as `n <= cloudlet_count()`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the cloudlet count.
    pub fn regions(&self, n: usize) -> Vec<usize> {
        let m = self.cloudlet_count();
        assert!(n > 0, "need at least one region");
        assert!(n <= m, "cannot split {m} cloudlets into {n} regions");

        let site = |c: usize| self.cloudlet_sites[c];
        let d = |a: usize, b: usize| self.distances.distance(site(a), site(b));

        // Greedy farthest-point seeding: min-distance-to-any-seed, maxed.
        let mut seeds: Vec<usize> = vec![0];
        let mut min_to_seed: Vec<f64> = (0..m).map(|c| d(c, 0)).collect();
        while seeds.len() < n {
            let mut far = None;
            let mut far_d = f64::NEG_INFINITY;
            for (c, &dist) in min_to_seed.iter().enumerate() {
                if seeds.contains(&c) {
                    continue;
                }
                // Unreachable pairs (infinite distance) still make fine
                // seeds: a disconnected cluster deserves its own region.
                let dist = if dist.is_finite() { dist } else { f64::MAX };
                if dist > far_d {
                    far_d = dist;
                    far = Some(c);
                }
            }
            let far = far.expect("n <= cloudlet_count leaves a non-seed candidate");
            seeds.push(far);
            for (c, slot) in min_to_seed.iter_mut().enumerate() {
                let nd = d(c, far);
                if nd < *slot {
                    *slot = nd;
                }
            }
        }

        (0..m)
            .map(|c| {
                // A seed anchors its own region even when another seed is
                // equidistant, so no region can come out empty.
                if let Some(r) = seeds.iter().position(|&s| s == c) {
                    return r;
                }
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (r, &s) in seeds.iter().enumerate() {
                    let dist = d(c, s);
                    if dist < best_d {
                        best_d = dist;
                        best = r;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtitm::{generate, GtItmConfig};
    use crate::zoo::as1755;

    fn net(n: usize, seed: u64) -> MecNetwork {
        let topo = generate(&GtItmConfig::for_size(n, seed));
        MecNetwork::place(
            topo,
            &PlacementConfig {
                seed,
                ..PlacementConfig::default()
            },
        )
    }

    #[test]
    fn paper_default_counts() {
        let m = net(200, 1);
        assert_eq!(m.cloudlet_count(), 20); // 10 % of 200
        assert_eq!(m.data_center_count(), 5);
    }

    #[test]
    fn cloudlets_on_stub_nodes() {
        let m = net(150, 2);
        let stubs: std::collections::HashSet<_> = m.topology().stub_nodes().into_iter().collect();
        for c in m.cloudlets() {
            assert!(stubs.contains(&m.cloudlet_site(c)));
        }
    }

    #[test]
    fn dcs_on_transit_nodes() {
        let m = net(300, 3);
        let transits: std::collections::HashSet<_> =
            m.topology().transit_nodes().into_iter().collect();
        for d in m.data_centers() {
            assert!(transits.contains(&m.dc_site(d)));
        }
    }

    #[test]
    fn regions_cover_and_fill() {
        let m = net(200, 5);
        for n in [1, 2, 4, m.cloudlet_count()] {
            let regions = m.regions(n);
            assert_eq!(regions.len(), m.cloudlet_count());
            assert!(regions.iter().all(|&r| r < n));
            for r in 0..n {
                assert!(regions.contains(&r), "region {r} of {n} is empty");
            }
        }
    }

    #[test]
    fn regions_are_deterministic_and_proximal() {
        let m = net(200, 6);
        let a = m.regions(4);
        assert_eq!(a, m.regions(4), "same network must shard the same way");

        // Proximity sanity: a cloudlet is no farther from some member of
        // its own region than from every member of every other region.
        let d = |x: usize, y: usize| {
            m.distances().distance(
                m.cloudlet_site(CloudletId(x)),
                m.cloudlet_site(CloudletId(y)),
            )
        };
        for c in 0..m.cloudlet_count() {
            let own = (0..m.cloudlet_count())
                .filter(|&x| x != c && a[x] == a[c])
                .map(|x| d(c, x))
                .fold(f64::INFINITY, f64::min);
            let other = (0..m.cloudlet_count())
                .filter(|&x| a[x] != a[c])
                .map(|x| d(c, x))
                .fold(f64::INFINITY, f64::min);
            if own.is_finite() && other.is_finite() {
                // Clusters may interleave at the margin, but a cloudlet
                // should never sit 3x closer to a foreign region.
                assert!(own <= other * 3.0 + 1e-9, "cloudlet {c}: {own} vs {other}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "regions")]
    fn regions_rejects_more_regions_than_cloudlets() {
        let m = net(100, 7);
        let _ = m.regions(m.cloudlet_count() + 1);
    }

    #[test]
    fn distances_finite() {
        let m = net(100, 4);
        for c in m.cloudlets() {
            for d in m.data_centers() {
                assert!(m.cloudlet_dc_distance(c, d).is_finite());
            }
        }
    }

    #[test]
    fn nearest_dc_is_nearest() {
        let m = net(120, 5);
        for c in m.cloudlets() {
            let site = m.cloudlet_site(c);
            let nd = m.nearest_dc(site);
            for d in m.data_centers() {
                assert!(m.node_dc_distance(site, nd) <= m.node_dc_distance(site, d) + 1e-12);
            }
        }
    }

    #[test]
    fn nearest_cloudlet_is_nearest() {
        let m = net(120, 6);
        for n in m.topology().graph.nodes().take(20) {
            let nc = m.nearest_cloudlet(n);
            for c in m.cloudlets() {
                assert!(m.node_cloudlet_distance(n, nc) <= m.node_cloudlet_distance(n, c) + 1e-12);
            }
        }
    }

    #[test]
    fn works_on_as1755() {
        let m = MecNetwork::place(as1755(), &PlacementConfig::default());
        assert_eq!(m.cloudlet_count(), 9); // 10 % of 87, rounded
        assert_eq!(m.data_center_count(), 5);
    }

    #[test]
    fn deterministic_placement() {
        let a = net(100, 9);
        let b = net(100, 9);
        for c in a.cloudlets() {
            assert_eq!(a.cloudlet_site(c), b.cloudlet_site(c));
        }
    }

    #[test]
    fn display_ids() {
        assert_eq!(CloudletId(3).to_string(), "CL3");
        assert_eq!(DataCenterId(1).to_string(), "DC1");
    }

    #[test]
    fn strategy_placement_produces_valid_network() {
        use crate::placement::PlacementStrategy;
        let topo = generate(&GtItmConfig::for_size(120, 8));
        for strategy in [
            PlacementStrategy::Random,
            PlacementStrategy::DegreeWeighted,
            PlacementStrategy::KMedian,
        ] {
            let m = MecNetwork::place_with_strategy(
                topo.clone(),
                &PlacementConfig::default(),
                strategy,
            );
            assert_eq!(m.cloudlet_count(), 12);
            assert_eq!(m.data_center_count(), 5);
            // DC and cloudlet sites never collide under this path.
            for d in m.data_centers() {
                for c in m.cloudlets() {
                    assert_ne!(m.dc_site(d), m.cloudlet_site(c));
                }
            }
        }
    }

    #[test]
    fn kmedian_placement_improves_coverage() {
        use crate::placement::{coverage_cost, PlacementStrategy};
        let topo = generate(&GtItmConfig::for_size(150, 9));
        let rand = MecNetwork::place_with_strategy(
            topo.clone(),
            &PlacementConfig::default(),
            PlacementStrategy::Random,
        );
        let kmed = MecNetwork::place_with_strategy(
            topo,
            &PlacementConfig::default(),
            PlacementStrategy::KMedian,
        );
        let c_rand = coverage_cost(
            rand.topology(),
            rand.distances(),
            &rand
                .cloudlets()
                .map(|c| rand.cloudlet_site(c))
                .collect::<Vec<_>>(),
        );
        let c_kmed = coverage_cost(
            kmed.topology(),
            kmed.distances(),
            &kmed
                .cloudlets()
                .map(|c| kmed.cloudlet_site(c))
                .collect::<Vec<_>>(),
        );
        assert!(c_kmed <= c_rand + 1e-9);
    }
}
