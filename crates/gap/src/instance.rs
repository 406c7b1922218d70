//! Generalized Assignment Problem instances and assignments.
//!
//! A GAP instance has `n` items and `m` knapsacks (bins). Assigning item `i`
//! to bin `j` costs `cost(i, j)` and consumes `weight(i)` of bin `j`'s
//! capacity. The goal is a minimum-cost assignment of every item to exactly
//! one bin, respecting capacities. The paper reduces its service-caching
//! problem to GAP by treating virtual cloudlets as bins (Section III-B);
//! a service then weighs the same in every bin, which is why an item has
//! one weight rather than one per bin. That is also what makes the LP
//! relaxation a transportation problem ([`crate::lp_relax`]).

use std::fmt;

/// Marks an (item, bin) pair as forbidden.
pub const FORBIDDEN: f64 = f64::INFINITY;

/// A Generalized Assignment Problem instance.
///
/// # Examples
///
/// ```
/// use mec_gap::GapInstance;
///
/// let mut inst = GapInstance::new(2, 2);
/// inst.set_cost(0, 0, 1.0).set_cost(0, 1, 3.0);
/// inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
/// inst.set_uniform_weights(1.0);
/// inst.set_capacity(0, 1.0);
/// inst.set_capacity(1, 1.0);
/// assert_eq!(inst.items(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GapInstance {
    items: usize,
    bins: usize,
    cost: Vec<f64>,
    /// One weight per item: the same in every bin.
    weight: Vec<f64>,
    capacity: Vec<f64>,
}

impl GapInstance {
    /// Creates an instance with all costs/weights zero and capacities zero.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `bins == 0`.
    pub fn new(items: usize, bins: usize) -> Self {
        assert!(items > 0, "GAP needs at least one item");
        assert!(bins > 0, "GAP needs at least one bin");
        GapInstance {
            items,
            bins,
            cost: vec![0.0; items * bins],
            weight: vec![0.0; items],
            capacity: vec![0.0; bins],
        }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Cost of assigning `item` to `bin` ([`FORBIDDEN`] if disallowed).
    #[inline]
    pub fn cost(&self, item: usize, bin: usize) -> f64 {
        self.cost[item * self.bins + bin]
    }

    /// Weight `item` puts on whichever bin it is assigned to.
    #[inline]
    pub fn weight(&self, item: usize) -> f64 {
        self.weight[item]
    }

    /// Capacity of `bin`.
    #[inline]
    pub fn capacity(&self, bin: usize) -> f64 {
        self.capacity[bin]
    }

    /// Sets the assignment cost. Use [`FORBIDDEN`] to disallow the pair.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, NaN, or negative cost.
    pub fn set_cost(&mut self, item: usize, bin: usize, cost: f64) -> &mut Self {
        assert!(item < self.items && bin < self.bins, "index out of range");
        assert!(
            !cost.is_nan() && cost >= 0.0,
            "cost must be >= 0, got {cost}"
        );
        self.cost[item * self.bins + bin] = cost;
        self
    }

    /// Sets every item's weight to `w` (items of equal size).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative weight.
    pub fn set_uniform_weights(&mut self, w: f64) -> &mut Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "weight must be finite and >= 0, got {w}"
        );
        self.weight.fill(w);
        self
    }

    /// Sets the weight of `item` to `w`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index or a non-finite / negative weight.
    pub fn set_item_weight(&mut self, item: usize, w: f64) -> &mut Self {
        assert!(item < self.items, "index out of range");
        assert!(
            w.is_finite() && w >= 0.0,
            "weight must be finite and >= 0, got {w}"
        );
        self.weight[item] = w;
        self
    }

    /// Sets the capacity of `bin`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index or a non-finite / negative capacity.
    pub fn set_capacity(&mut self, bin: usize, cap: f64) -> &mut Self {
        assert!(bin < self.bins, "bin out of range");
        assert!(cap.is_finite() && cap >= 0.0, "capacity must be >= 0");
        self.capacity[bin] = cap;
        self
    }

    /// Returns whether `(item, bin)` is an admissible pair: the cost is not
    /// [`FORBIDDEN`] and the item fits the bin on its own. This is the
    /// single admissibility predicate shared by the relaxation, the
    /// rounding and the certifiers.
    #[inline]
    pub fn is_allowed(&self, item: usize, bin: usize) -> bool {
        self.cost(item, bin).is_finite() && self.weight(item) <= self.capacity(bin) + 1e-12
    }
}

/// An integral assignment of every item to one bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    of: Vec<usize>,
}

impl Assignment {
    /// Wraps a raw `item -> bin` vector.
    ///
    /// # Panics
    ///
    /// Panics if `of` is empty.
    pub fn new(of: Vec<usize>) -> Self {
        assert!(!of.is_empty(), "assignment must cover at least one item");
        Assignment { of }
    }

    /// Bin assigned to `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of range.
    pub fn bin_of(&self, item: usize) -> usize {
        self.of[item]
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.of.len()
    }

    /// `false` — assignments always cover at least one item.
    pub fn is_empty(&self) -> bool {
        self.of.is_empty()
    }

    /// Iterates over `(item, bin)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.of.iter().copied().enumerate()
    }

    /// Total assignment cost on `inst`.
    ///
    /// # Panics
    ///
    /// Panics if this assignment does not match the instance dimensions.
    pub fn total_cost(&self, inst: &GapInstance) -> f64 {
        assert_eq!(self.of.len(), inst.items(), "assignment/instance mismatch");
        self.iter().map(|(i, j)| inst.cost(i, j)).sum()
    }

    /// Load each bin carries under this assignment.
    pub fn loads(&self, inst: &GapInstance) -> Vec<f64> {
        assert_eq!(self.of.len(), inst.items(), "assignment/instance mismatch");
        let mut loads = vec![0.0; inst.bins()];
        for (i, j) in self.iter() {
            loads[j] += inst.weight(i);
        }
        loads
    }

    /// `true` if every bin load is within its capacity (tolerance 1e-9).
    pub fn is_capacity_feasible(&self, inst: &GapInstance) -> bool {
        self.max_overflow(inst) <= 1e-9
    }

    /// Largest capacity violation over all bins (0 if none).
    pub fn max_overflow(&self, inst: &GapInstance) -> f64 {
        self.loads(inst)
            .iter()
            .zip(0..inst.bins())
            .map(|(load, j)| (load - inst.capacity(j)).max(0.0))
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, j) in self.iter() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}->{j}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_num::assert_approx_eq;

    fn small() -> GapInstance {
        let mut inst = GapInstance::new(3, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 4.0);
        inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
        inst.set_cost(2, 0, 3.0).set_cost(2, 1, 2.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 2.0);
        inst
    }

    #[test]
    fn accessors() {
        let inst = small();
        assert_eq!(inst.items(), 3);
        assert_eq!(inst.bins(), 2);
        assert_approx_eq!(inst.cost(0, 1), 4.0, 0.0);
        assert_approx_eq!(inst.weight(2), 1.0, 0.0);
        assert_approx_eq!(inst.capacity(1), 2.0, 1e-12);
    }

    #[test]
    fn assignment_cost_and_loads() {
        let inst = small();
        let a = Assignment::new(vec![0, 1, 1]);
        assert_approx_eq!(a.total_cost(&inst), 1.0 + 1.0 + 2.0, 0.0);
        assert_eq!(a.loads(&inst), vec![1.0, 2.0]);
        assert!(a.is_capacity_feasible(&inst));
    }

    #[test]
    fn overflow_detection() {
        let inst = small();
        let a = Assignment::new(vec![0, 0, 0]);
        assert!(!a.is_capacity_feasible(&inst));
        assert!((a.max_overflow(&inst) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn item_weight_setter() {
        let mut inst = small();
        inst.set_item_weight(1, 5.0);
        assert_approx_eq!(inst.weight(1), 5.0, 0.0);
        assert_approx_eq!(inst.weight(0), 1.0, 0.0);
    }

    #[test]
    fn display_assignment() {
        let a = Assignment::new(vec![1, 0]);
        assert_eq!(a.to_string(), "[0->1, 1->0]");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn rejects_empty_instances() {
        let _ = GapInstance::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "cost must be >= 0")]
    fn rejects_negative_cost() {
        GapInstance::new(1, 1).set_cost(0, 0, -1.0);
    }

    #[test]
    fn forbidden_cost_allowed() {
        let mut inst = GapInstance::new(1, 2);
        inst.set_cost(0, 0, FORBIDDEN);
        assert!(inst.cost(0, 0).is_infinite());
    }
}
