//! Bipartite transportation by successive shortest paths.
//!
//! Both flow problems in this crate are bipartite: the transportation
//! relaxation (items supply `w_i`, bins absorb up to `CAP_j`) and the
//! Shmoys–Tardos matching (items supply 1, unit slots absorb 1). So the
//! solver takes exactly that shape — sources with a supply, sinks with a
//! capacity, and per-source arcs with a non-negative per-unit cost stored
//! in CSR form — rather than a general graph.
//!
//! Each augmentation runs Dijkstra on reduced costs from one source with
//! residual supply (the first one added; the caller picks the order) and
//! stops as soon as the popped key reaches `dist[t]`, the sink's tentative
//! distance. Potentials are then raised by `min(dist[v], dist[t])` for
//! every node, unreached nodes by `dist[t]`. That keeps every residual
//! reduced cost non-negative despite the early exit: no node is raised by
//! more than `dist[t]`, which is what every unsettled node gets, so an arc
//! out of an unsettled node loses no slack; and an arc `u → v` out of a
//! settled node was relaxed (or is dominated by one that was, below), so
//! `v`'s raise is at most `dist[u] + rc(u, v)`. Forward arcs are
//! uncapacitated (a source's own supply bounds them), and a bin's reverse
//! arcs exist only for the arcs that carry flow into it.
//!
//! The final potentials are returned with the flow: they are an optimal
//! dual solution of the transportation LP, which is how the relaxation
//! reads its capacity prices ([`crate::lp_relax`]). Every forward arc keeps
//! a non-negative reduced cost, and an arc carrying flow has reduced
//! cost 0. No bin ever rises above the sink: all start at 0, and each
//! search raises the sink by `dist[t]` and no node by more. A bin's load
//! never falls (a path adds load only at its last bin), so its sink arc
//! is residual from the start until the bin fills. So every bin with room
//! sits exactly at the sink's potential, and a full bin at or below it.
//!
//! That shapes the search. Every item's arcs are sorted once per solve,
//! in cost order with ties in arc order, and a settled item at distance
//! `d` scans them in that order. An arc into a full bin is relaxed as
//! usual. The first arc into a bin with room offers the sink `d + rc`
//! directly and ends the scan: the bin's sink arc has reduced cost
//! exactly 0, so that is the distance the bin would have passed on had it
//! been pushed and popped. Every dearer arc is dominated. An arc of cost
//! `c' ≥ c` into a bin `j'` has `c' + π_u − π_j' ≥ c + π_u − π_t`, because
//! no bin sits above the sink (`π_j' ≤ π_t`), and rounding is monotone,
//! so this holds in floating point too. Such an arc offers the sink
//! nothing cheaper, and it reaches a full bin no nearer than the sink,
//! where no search goes on. So bins with room never enter the heap and
//! never get a tentative distance. The update raises each by exactly
//! `dist[t]`, as it raises the sink, so they stay bit-equal to it. That
//! is what makes an item's cheapest bin with room by cost also its
//! cheapest by reduced cost.
//!
//! So a popped bin is always full and relaxes only its reverse arcs. A
//! relaxation pushes nothing at or past the sink's tentative distance:
//! such an entry could never pop, and the tentative distance it leaves
//! behind is at least `dist[t]`, which the update ignores. When the popped
//! key reaches `dist[t]`, every node nearer than the sink has settled.
//! Settling the nodes tied at that key would change nothing: from a key
//! `≥ dist[t]` they could only set tentative distances `≥ dist[t]`, and
//! they could re-route no node already settled.
//!
//! An exhaustive scan (every arc relaxed, bins with room pushed, and the
//! first such bin popped ending the search) computes the same shortest
//! distances. Its result can differ from this one only where two
//! candidate distances fall within `EPS` of each other: a relaxation
//! wins only by more than `EPS`, and the two scans meet the candidates in
//! different orders (the sink takes offers in the order items settle,
//! where the exhaustive scan compared its bins' tentative distances). On
//! the `lcf_solve` relaxation every flow and potential is bit-identical
//! (DESIGN.md §3d).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tolerance for saturation and for distance improvements.
const EPS: f64 = 1e-12;

/// A transportation network: sources (items) with a supply, sinks (bins)
/// with a capacity, and arcs from items to bins with a per-unit cost.
///
/// Arcs are numbered in the order they are added (item-major, since each
/// item's arcs are added together); [`TransportFlow::flow`] is indexed by
/// that number.
///
/// # Examples
///
/// ```
/// use mec_gap::flow::Transportation;
///
/// // Two bins of capacity 1; item 0 (supply 2) prefers bin 0.
/// let mut t = Transportation::new(vec![1.0, 1.0]);
/// t.add_item(2.0, [(0, 1.0), (1, 3.0)]);
/// let r = t.solve();
/// assert!((r.routed - 2.0).abs() < 1e-9);
/// assert!((r.cost - 4.0).abs() < 1e-9);
/// assert!((r.flow[0] - 1.0).abs() < 1e-9 && (r.flow[1] - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Transportation {
    capacity: Vec<f64>,
    supply: Vec<f64>,
    /// Item `i` owns arcs `start[i]..start[i + 1]`.
    start: Vec<usize>,
    bin: Vec<usize>,
    cost: Vec<f64>,
}

/// Outcome of [`Transportation::solve`].
#[derive(Debug, Clone)]
pub struct TransportFlow {
    /// Amount of supply routed (≤ the total supply).
    pub routed: f64,
    /// Total cost of the routed flow.
    pub cost: f64,
    /// Flow on every arc, in the order the arcs were added.
    pub flow: Vec<f64>,
    /// Final node potentials: items `0..n` in the order they were added,
    /// then bins `n..n + m`, then the sink at `n + m`. For every arc
    /// `i → j` of per-unit cost `c`, `c + potential[i] - potential[n + j]`
    /// is non-negative, and zero when the arc carries flow.
    pub potential: Vec<f64>,
}

impl Transportation {
    /// Creates a network with one bin per entry of `capacity` and no items.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is negative or non-finite.
    pub fn new(capacity: Vec<f64>) -> Self {
        assert!(
            capacity.iter().all(|c| c.is_finite() && *c >= 0.0),
            "capacity must be >= 0"
        );
        Transportation {
            capacity,
            supply: Vec::new(),
            start: vec![0],
            bin: Vec::new(),
            cost: Vec::new(),
        }
    }

    /// Adds the next item, with the given supply and `(bin, per-unit
    /// cost)` arcs. Its arcs take the next indices in
    /// [`TransportFlow::flow`], in the order given.
    ///
    /// # Panics
    ///
    /// Panics if the supply is negative or non-finite, a bin is out of
    /// range, or a cost is negative or non-finite (non-negative costs are
    /// what allow the Dijkstra-based solver).
    pub fn add_item(&mut self, supply: f64, arcs: impl IntoIterator<Item = (usize, f64)>) {
        assert!(supply.is_finite() && supply >= 0.0, "supply must be >= 0");
        for (bin, cost) in arcs {
            assert!(bin < self.capacity.len(), "bin out of range");
            assert!(cost.is_finite() && cost >= 0.0, "cost must be >= 0");
            self.bin.push(bin);
            self.cost.push(cost);
        }
        self.start.push(self.bin.len());
        self.supply.push(supply);
    }

    /// Routes as much supply as the capacities admit, at minimum cost.
    ///
    /// Items are served in the order they were added; one that can no
    /// longer reach any bin with room keeps its residual supply (the
    /// result's `routed` then falls short of the total supply, and callers
    /// decide whether that is an error). The cost is optimal in any order,
    /// but the order sets how many searches it takes.
    ///
    /// Records the counters `gap.flow.searches` (shortest-path searches),
    /// `gap.flow.settled` (nodes a search settled) and `gap.flow.relaxed`
    /// (arcs relaxed, forward and reverse, plus offers to the sink).
    pub fn solve(&self) -> TransportFlow {
        let n = self.supply.len();
        let m = self.capacity.len();
        // Nodes: items 0..n, bins n..n+m, sink n+m.
        let sink = n + m;
        let mut flow = vec![0.0; self.bin.len()];
        let mut load = vec![0.0; m];
        let mut item_of = vec![0usize; self.bin.len()];
        for i in 0..n {
            item_of[self.start[i]..self.start[i + 1]].fill(i);
        }
        // Every item's arcs as `(cost, bin, arc)`, in cost order with ties
        // in arc order (the sort is stable): the order a settled item scans
        // them.
        let index = |x: usize| u32::try_from(x).expect("arc and bin indices fit in u32");
        let mut by_cost: Vec<(f64, u32, u32)> = (0..self.bin.len())
            .map(|a| (self.cost[a], index(self.bin[a]), index(a)))
            .collect();
        for i in 0..n {
            by_cost[self.start[i]..self.start[i + 1]].sort_by(|x, y| x.0.total_cmp(&y.0));
        }
        // Per bin, the arcs carrying flow into it: its only reverse arcs.
        let mut carried: Vec<Vec<usize>> = vec![Vec::new(); m];
        // Johnson potentials: every arc cost is >= 0, so pi = 0 is a valid
        // start.
        let mut pi = vec![0.0; sink + 1];
        let mut dist = vec![f64::INFINITY; sink + 1];
        // The arc a node was reached by: for a full bin, the forward arc
        // into it; for an item, the carried arc it was reached back along;
        // for the sink, the forward arc into the bin with room it was
        // offered through.
        let mut pred = vec![0; sink + 1];
        // Keyed by a distance's bits, which order as the distances do
        // because no distance is negative.
        let mut heap = BinaryHeap::new();
        let mut routed = 0.0;
        let mut total_cost = 0.0;
        let (mut searches, mut settled, mut relaxed) = (0u64, 0u64, 0u64);

        for src in 0..n {
            let mut residual = self.supply[src];
            while residual > EPS {
                searches += 1;
                dist.fill(f64::INFINITY);
                dist[src] = 0.0;
                heap.clear();
                heap.push(Reverse((0.0f64.to_bits(), src)));
                while let Some(Reverse((key, u))) = heap.pop() {
                    let d = f64::from_bits(key);
                    // Every node nearer than the sink has settled, so
                    // `dist[sink]` is final (module docs).
                    if d >= dist[sink] {
                        break;
                    }
                    if d > dist[u] + EPS {
                        continue;
                    }
                    settled += 1;
                    let mut relax = |dist: &mut [f64], v: usize, rc: f64, via: usize| {
                        debug_assert!(rc > -1e-6, "negative reduced cost {rc}");
                        relaxed += 1;
                        let nd = d + rc.max(0.0);
                        if nd < dist[v] - EPS {
                            dist[v] = nd;
                            pred[v] = via;
                            // An entry at or past the sink could never pop.
                            if nd < dist[sink] {
                                heap.push(Reverse((nd.to_bits(), v)));
                            }
                        }
                    };
                    if u < n {
                        for &(cost, j, a) in &by_cost[self.start[u]..self.start[u + 1]] {
                            let (j, a) = (j as usize, a as usize);
                            let v = n + j;
                            let rc = cost + pi[u] - pi[v];
                            if self.capacity[j] - load[j] > EPS {
                                // The first bin with room sits at the
                                // sink's potential: offer the sink
                                // directly. Every dearer arc is dominated.
                                relax(&mut dist, sink, rc, a);
                                break;
                            }
                            relax(&mut dist, v, rc, a);
                        }
                    } else {
                        // A popped bin is full: only bins without room
                        // enter the heap.
                        for &a in &carried[u - n] {
                            let v = item_of[a];
                            relax(&mut dist, v, pi[u] - pi[v] - self.cost[a], a);
                        }
                    }
                }
                let dt = dist[sink];
                if !dt.is_finite() {
                    break; // No bin with room is reachable from `src`.
                }
                for (p, d) in pi.iter_mut().zip(&dist) {
                    *p += d.min(dt);
                }

                // Bottleneck: the residual supply, the last bin's room and
                // the flow on every reverse arc of the path.
                let last = self.bin[pred[sink]];
                // The last bin has room, so the search never reached it.
                pred[n + last] = pred[sink];
                let mut push = residual.min(self.capacity[last] - load[last]);
                let mut v = n + last;
                while v != src {
                    let a = pred[v];
                    if v < n {
                        push = push.min(flow[a]);
                        v = n + self.bin[a];
                    } else {
                        v = item_of[a];
                    }
                }
                // Apply, accumulating the true (unreduced) cost.
                load[last] += push;
                let mut path_cost = 0.0;
                let mut v = n + last;
                while v != src {
                    let a = pred[v];
                    let j = self.bin[a];
                    if v < n {
                        path_cost -= self.cost[a];
                        flow[a] -= push;
                        if flow[a] <= EPS {
                            let k = carried[j]
                                .iter()
                                .position(|&c| c == a)
                                .expect("a reverse arc carries flow");
                            carried[j].remove(k);
                        }
                        v = n + j;
                    } else {
                        path_cost += self.cost[a];
                        if flow[a] <= EPS {
                            carried[j].push(a);
                        }
                        flow[a] += push;
                        v = item_of[a];
                    }
                }
                total_cost += push * path_cost;
                routed += push;
                residual -= push;
            }
        }
        mec_obs::counter_add("gap.flow.searches", searches);
        mec_obs::counter_add("gap.flow.settled", settled);
        mec_obs::counter_add("gap.flow.relaxed", relaxed);
        TransportFlow {
            routed,
            cost: total_cost,
            flow,
            potential: pi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_num::assert_approx_eq;

    #[test]
    fn splits_when_capacity_binds() {
        // Both items prefer bin 0, which holds one; the cheaper detour
        // goes to item 1.
        let mut t = Transportation::new(vec![1.0, 1.0]);
        t.add_item(1.0, [(0, 1.0), (1, 5.0)]);
        t.add_item(1.0, [(0, 1.0), (1, 2.0)]);
        let r = t.solve();
        assert_approx_eq!(r.routed, 2.0, 1e-12);
        assert_approx_eq!(r.cost, 3.0, 1e-12);
        assert_approx_eq!(r.flow[0], 1.0, 1e-12);
        assert_approx_eq!(r.flow[3], 1.0, 1e-12);
    }

    #[test]
    fn potentials_price_every_arc() {
        // Bin 0 (capacity 1) is contended, bin 1 (capacity 1) fills,
        // bin 2 (capacity 3) keeps room.
        let mut t = Transportation::new(vec![1.0, 1.0, 3.0]);
        t.add_item(1.0, [(0, 1.0), (1, 2.0), (2, 6.0)]);
        t.add_item(1.5, [(0, 1.0), (1, 4.0), (2, 5.0)]);
        t.add_item(1.0, [(1, 1.0), (2, 2.0)]);
        let r = t.solve();
        assert_approx_eq!(r.routed, 3.5, 1e-12);
        let (n, sink) = (3, 6);
        let pi = &r.potential;
        let mut load = [0.0; 3];
        for (a, (item, bin, cost)) in [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (0, 2, 6.0),
            (1, 0, 1.0),
            (1, 1, 4.0),
            (1, 2, 5.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
        ]
        .into_iter()
        .enumerate()
        {
            let rc = cost + pi[item] - pi[n + bin];
            assert!(rc > -1e-12, "arc {a}: reduced cost {rc}");
            if r.flow[a] > 1e-12 {
                assert_approx_eq!(rc, 0.0, 1e-12);
            }
            load[bin] += r.flow[a];
        }
        for (bin, cap) in [1.0, 1.0, 3.0].into_iter().enumerate() {
            let slack = pi[n + bin] - pi[sink];
            if load[bin] < cap - 1e-12 {
                assert!(slack > -1e-12, "bin {bin} with room below the sink");
            }
            if load[bin] > 1e-12 {
                assert!(slack < 1e-12, "loaded bin {bin} above the sink");
            }
        }
        assert!(pi[sink] - pi[n] > 1e-9, "the contended bin is priced");
    }

    #[test]
    fn fractional_split_of_one_item() {
        let mut t = Transportation::new(vec![0.5, 0.75, 2.0]);
        t.add_item(1.0, [(0, 1.0), (1, 2.0), (2, 3.0)]);
        let r = t.solve();
        assert_approx_eq!(r.routed, 1.0, 1e-12);
        assert_approx_eq!(r.cost, 0.5 + 1.0, 1e-12);
        assert_approx_eq!(r.flow[2], 0.0, 1e-12);
    }

    #[test]
    fn partial_routing_when_capacity_is_short() {
        let mut t = Transportation::new(vec![1.0]);
        t.add_item(5.0, [(0, 1.0)]);
        let r = t.solve();
        assert_approx_eq!(r.routed, 1.0, 1e-12);
        assert_approx_eq!(r.cost, 1.0, 1e-12);
    }

    #[test]
    fn item_without_arcs_routes_nothing() {
        let mut t = Transportation::new(vec![1.0]);
        t.add_item(1.0, []);
        t.add_item(1.0, [(0, 2.0)]);
        let r = t.solve();
        assert_approx_eq!(r.routed, 1.0, 1e-12);
        assert_approx_eq!(r.cost, 2.0, 1e-12);
    }

    #[test]
    fn reroutes_through_a_reverse_arc() {
        // Item 0 takes bin 0 first; item 1 can only use bin 0, so the
        // second search must push item 0 back out to bin 1 along the
        // reverse arc: optimum {0 -> 1, 1 -> 0} at cost 10 + 1.
        let mut t = Transportation::new(vec![1.0, 1.0]);
        t.add_item(1.0, [(0, 1.0), (1, 10.0)]);
        t.add_item(1.0, [(0, 1.0)]);
        let r = t.solve();
        assert_approx_eq!(r.routed, 2.0, 1e-12);
        assert_approx_eq!(r.cost, 11.0, 1e-12);
        assert_eq!(r.flow, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn displaces_through_a_full_bin_cheaper_than_the_first_with_room() {
        // Bins A, B (capacity 1) and C (capacity 10). Item 0 takes A. For
        // item 1 the full A (1.0) is cheaper than B, its first bin with
        // room (3.0), and pushing item 0 on from A to C costs only 0.2
        // more: optimum {0 -> C, 1 -> A} at cost 1.2 + 1.0.
        let mut t = Transportation::new(vec![1.0, 1.0, 10.0]);
        t.add_item(1.0, [(0, 1.0), (2, 1.2)]);
        t.add_item(1.0, [(0, 1.0), (1, 3.0)]);
        let r = t.solve();
        assert_approx_eq!(r.routed, 2.0, 1e-12);
        assert_approx_eq!(r.cost, 2.2, 1e-12);
        assert_eq!(r.flow, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn assignment_matches_brute_force() {
        // 6x6 unit assignment: the flow must find the optimal permutation.
        let costs = [
            [4.0, 1.0, 3.0, 2.0, 9.0, 5.0],
            [2.0, 0.5, 6.0, 3.0, 1.0, 8.0],
            [7.0, 2.0, 2.5, 1.0, 4.0, 3.0],
            [1.5, 6.0, 4.0, 2.0, 3.0, 2.0],
            [3.0, 3.0, 1.0, 5.0, 2.0, 4.0],
            [5.0, 4.0, 2.0, 3.0, 6.0, 1.0],
        ];
        let n = 6;
        let mut t = Transportation::new(vec![1.0; n]);
        for row in &costs {
            t.add_item(1.0, row.iter().copied().enumerate());
        }
        let r = t.solve();
        assert_approx_eq!(r.routed, n as f64, 1e-9);
        fn go(k: usize, used: &mut u32, costs: &[[f64; 6]; 6], acc: f64, best: &mut f64) {
            if k == 6 {
                *best = best.min(acc);
                return;
            }
            for j in 0..6 {
                if *used & (1 << j) == 0 {
                    *used |= 1 << j;
                    go(k + 1, used, costs, acc + costs[k][j], best);
                    *used &= !(1 << j);
                }
            }
        }
        let mut best = f64::INFINITY;
        go(0, &mut 0, &costs, 0.0, &mut best);
        assert!(
            (r.cost - best).abs() < 1e-9,
            "flow {} vs brute {}",
            r.cost,
            best
        );
        // The flow is an integral permutation.
        for i in 0..n {
            let row = &r.flow[i * n..(i + 1) * n];
            assert_eq!(row.iter().filter(|f| **f > 0.5).count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "cost must be >= 0")]
    fn rejects_negative_costs() {
        let mut t = Transportation::new(vec![1.0]);
        t.add_item(1.0, [(0, -1.0)]);
    }
}
