//! Sparse revised simplex with product-form (eta-file) basis updates.
//!
//! A dense tableau carries the whole `m × (n+s+a)` matrix through every
//! pivot: an Appro-sized GAP relaxation (1000 providers × 80 cloudlets ⇒
//! ~81 000 columns × ~1 100 rows) costs hundreds of megabytes and
//! minutes of column-strided memory traffic. The revised simplex stores
//! the constraint matrix **once**, column-wise
//! sparse (GAP assignment columns have exactly two nonzeros: one item row,
//! one bin row), and represents the basis inverse as
//!
//! ```text
//! B⁻¹ = E_k · E_{k-1} · … · E_1 · B₀⁻¹
//! ```
//!
//! where `B₀` is refactorized into a dense LU every `refactor_interval(m)`
//! pivots and each `E_i` is an elementary *eta* matrix recorded at pivot
//! time. Per iteration it pays one BTRAN (duals), one reduced-cost scan
//! over the sparse columns (Dantzig rule within a rotating partial-pricing
//! block), one FTRAN (entering column) and one `O(m)` eta append — instead
//! of an `O(m · ncols)` dense elimination.
//!
//! The solver is deterministic: partial pricing scans blocks in a fixed
//! rotation, ties in the ratio test break on the smallest basis index
//! (artificials preferred out first), and a Bland-rule fallback engages
//! after a fixed iteration budget so cycling cannot occur. Numerics use
//! absolute tolerances; solutions are certified optimal from first
//! principles by [`crate::verify::check_solution`] (automatic under the
//! `verify` cargo feature).

use crate::simplex::{LpBuilder, LpError, LpSolution, Relation};

/// Pivot/ratio tolerance.
const EPS: f64 = 1e-9;

/// Refactorize the basis (fresh LU, eta file cleared) after this many
/// pivots: keeps FTRAN/BTRAN cost at `O(m² + interval·m)` and stops
/// round-off from accumulating through long eta chains. Scaled to the row
/// count because a dense LU refactor costs `O(m³)`: balancing the
/// amortized refactor cost `m³/interval` against the per-iteration eta
/// cost `interval·m` puts the optimum near `m`, clamped for stability.
fn refactor_interval(m: usize) -> usize {
    (m / 2).clamp(32, 512)
}

/// Minimum partial-pricing block; blocks also never shrink below
/// `ncols / 8` so a sweep finishes in a bounded number of blocks.
const MIN_PRICE_BLOCK: usize = 256;

/// Column-wise sparse standard form `min c·x  s.t.  A x = b, x ≥ 0` after
/// slack/surplus/artificial augmentation and `b ≥ 0` normalization.
struct SparseForm {
    m: usize,
    ncols: usize,
    /// First artificial column (artificials occupy `art0..ncols`).
    art0: usize,
    /// CSC storage: column `j` holds entries `idx[ptr[j]..ptr[j+1]]`.
    ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    b: Vec<f64>,
    /// −1 where the original row was multiplied by −1 to make `b ≥ 0`.
    row_sign: Vec<f64>,
}

impl SparseForm {
    fn build(lp: &LpBuilder) -> SparseForm {
        let m = lp.constraint_count();
        let n = lp.var_count();
        let mut slack = 0usize;
        let mut art = 0usize;
        for i in 0..m {
            let (_, rel, rhs) = lp.constraint_row(i);
            match flip(rel, rhs < 0.0) {
                Relation::Le => slack += 1,
                Relation::Ge => {
                    slack += 1;
                    art += 1;
                }
                Relation::Eq => art += 1,
            }
        }
        let ncols = n + slack + art;
        let art0 = n + slack;

        // Structural columns: gather per-column entries row-by-row (the
        // builder stores rows dense, so this is one sequential sweep).
        let mut col_entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); ncols];
        let mut b = vec![0.0; m];
        let mut row_sign = vec![1.0; m];
        let mut next_slack = n;
        let mut next_art = art0;
        for i in 0..m {
            let (coeffs, rel, rhs) = lp.constraint_row(i);
            let sign = if rhs < 0.0 { -1.0 } else { 1.0 };
            row_sign[i] = sign;
            b[i] = sign * rhs;
            for (j, &v) in coeffs.iter().enumerate() {
                // Exact-zero test on stored input data: a coefficient the
                // caller never set must not materialize as a stored zero.
                // lint: allow(float-cmp)
                if v != 0.0 {
                    col_entries[j].push((i as u32, sign * v));
                }
            }
            match flip(rel, rhs < 0.0) {
                Relation::Le => {
                    col_entries[next_slack].push((i as u32, 1.0));
                    next_slack += 1;
                }
                Relation::Ge => {
                    col_entries[next_slack].push((i as u32, -1.0));
                    next_slack += 1;
                    col_entries[next_art].push((i as u32, 1.0));
                    next_art += 1;
                }
                Relation::Eq => {
                    col_entries[next_art].push((i as u32, 1.0));
                    next_art += 1;
                }
            }
        }
        let nnz: usize = col_entries.iter().map(Vec::len).sum();
        let mut ptr = Vec::with_capacity(ncols + 1);
        let mut rows = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        ptr.push(0);
        for col in &col_entries {
            for &(r, v) in col {
                rows.push(r);
                vals.push(v);
            }
            ptr.push(rows.len());
        }
        SparseForm {
            m,
            ncols,
            art0,
            ptr,
            rows,
            vals,
            b,
            row_sign,
        }
    }

    #[inline]
    fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.ptr[j], self.ptr[j + 1]);
        (&self.rows[lo..hi], &self.vals[lo..hi])
    }

    /// `y · A_j` over the sparse column.
    #[inline]
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter()
            .zip(vals)
            .map(|(&r, &v)| y[r as usize] * v)
            .sum()
    }
}

fn flip(rel: Relation, negate: bool) -> Relation {
    if !negate {
        return rel;
    }
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

/// Dense LU factorization of the basis matrix with partial pivoting.
/// `f` holds L (unit diagonal, below) and U (on/above) row-major; `ft` is
/// the transposed copy so BTRAN's triangular solves also stream row-major.
struct Lu {
    m: usize,
    f: Vec<f64>,
    ft: Vec<f64>,
    perm: Vec<usize>,
}

impl Lu {
    /// Factors the matrix whose columns are the basis columns of `form`.
    /// Returns `None` if the basis is numerically singular.
    fn factor(form: &SparseForm, basis: &[usize]) -> Option<Lu> {
        let m = form.m;
        let mut f = vec![0.0; m * m];
        for (k, &j) in basis.iter().enumerate() {
            let (rows, vals) = form.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                f[r as usize * m + k] = v;
            }
        }
        let mut perm: Vec<usize> = (0..m).collect();
        for k in 0..m {
            let mut p = k;
            let mut best = f[k * m + k].abs();
            for i in k + 1..m {
                let a = f[i * m + k].abs();
                if a > best {
                    best = a;
                    p = i;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if p != k {
                perm.swap(k, p);
                for j in 0..m {
                    f.swap(k * m + j, p * m + j);
                }
            }
            let inv = 1.0 / f[k * m + k];
            for i in k + 1..m {
                let l = f[i * m + k] * inv;
                f[i * m + k] = l;
                if l.abs() > 0.0 {
                    for j in k + 1..m {
                        f[i * m + j] -= l * f[k * m + j];
                    }
                }
            }
        }
        let mut ft = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                ft[j * m + i] = f[i * m + j];
            }
        }
        Some(Lu { m, f, ft, perm })
    }

    /// Solves `B x = rhs` in place (`rhs` becomes `x`).
    fn solve(&self, rhs: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        scratch.clear();
        scratch.extend(self.perm.iter().map(|&p| rhs[p]));
        // Forward: L (unit diagonal).
        for i in 0..m {
            let row = &self.f[i * m..i * m + i];
            let mut s = scratch[i];
            for (j, &l) in row.iter().enumerate() {
                s -= l * scratch[j];
            }
            scratch[i] = s;
        }
        // Backward: U.
        for i in (0..m).rev() {
            let row = &self.f[i * m..(i + 1) * m];
            let mut s = scratch[i];
            for (j, &u) in row.iter().enumerate().skip(i + 1) {
                s -= u * scratch[j];
            }
            scratch[i] = s / row[i];
        }
        rhs.copy_from_slice(scratch);
    }

    /// Solves `Bᵀ y = rhs` in place (`rhs` becomes `y`).
    fn solve_transposed(&self, rhs: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        scratch.clear();
        scratch.extend_from_slice(rhs);
        // Forward: Uᵀ (rows of `ft` are columns of U).
        for i in 0..m {
            let row = &self.ft[i * m..i * m + i];
            let mut s = scratch[i];
            for (j, &u) in row.iter().enumerate() {
                s -= u * scratch[j];
            }
            scratch[i] = s / self.ft[i * m + i];
        }
        // Backward: Lᵀ (unit diagonal).
        for i in (0..m).rev() {
            let row = &self.ft[i * m..(i + 1) * m];
            let mut s = scratch[i];
            for (j, &l) in row.iter().enumerate().skip(i + 1) {
                s -= l * scratch[j];
            }
            scratch[i] = s;
        }
        for (i, &p) in self.perm.iter().enumerate() {
            rhs[p] = scratch[i];
        }
    }
}

/// One product-form update: the FTRAN'd entering column `d` and the pivot
/// row `r` (`B_new⁻¹ = E · B_old⁻¹`).
struct Eta {
    r: usize,
    d: Vec<f64>,
}

struct Revised<'a> {
    form: &'a SparseForm,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    lu: Lu,
    etas: Vec<Eta>,
    /// Current basic-variable values `B⁻¹ b`, maintained incrementally and
    /// recomputed at every refactorization.
    xb: Vec<f64>,
    /// Rotating partial-pricing cursor.
    cursor: usize,
    scratch: Vec<f64>,
}

impl<'a> Revised<'a> {
    fn new(form: &'a SparseForm) -> Result<Revised<'a>, LpError> {
        let m = form.m;
        // Initial basis: the slack (Le rows) / artificial (Ge, Eq rows)
        // column of each row — B₀ is a signed permutation, trivially LU-able.
        let mut basis = vec![usize::MAX; m];
        let mut in_basis = vec![false; form.ncols];
        for j in form.art0..form.ncols {
            let (rows, _) = form.col(j);
            basis[rows[0] as usize] = j;
        }
        let n_struct_slack = form.art0;
        for j in 0..n_struct_slack {
            let (rows, vals) = form.col(j);
            // Slack columns (+1 on their row) seed rows with no artificial.
            if rows.len() == 1 && vals[0] > 0.0 {
                let r = rows[0] as usize;
                if basis[r] == usize::MAX {
                    basis[r] = j;
                }
            }
        }
        debug_assert!(basis.iter().all(|&j| j != usize::MAX));
        for &j in &basis {
            in_basis[j] = true;
        }
        let lu = Lu::factor(form, &basis).ok_or(LpError::IterationLimit)?;
        let mut me = Revised {
            form,
            basis,
            in_basis,
            lu,
            etas: Vec::new(),
            xb: vec![0.0; m],
            cursor: 0,
            scratch: Vec::with_capacity(m),
        };
        me.recompute_xb();
        Ok(me)
    }

    fn recompute_xb(&mut self) {
        self.xb.copy_from_slice(&self.form.b);
        let mut xb = std::mem::take(&mut self.xb);
        self.lu.solve(&mut xb, &mut self.scratch);
        self.apply_etas(&mut xb);
        self.xb = xb;
    }

    #[inline]
    fn apply_etas(&self, u: &mut [f64]) {
        for eta in &self.etas {
            let t = u[eta.r] / eta.d[eta.r];
            if t.abs() > 1e-300 {
                for (ui, &di) in u.iter_mut().zip(&eta.d) {
                    *ui -= di * t;
                }
            }
            u[eta.r] = t;
        }
    }

    /// FTRAN: `u = B⁻¹ A_j` for sparse column `j`.
    fn ftran(&mut self, j: usize) -> Vec<f64> {
        let mut u = vec![0.0; self.form.m];
        let (rows, vals) = self.form.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            u[r as usize] = v;
        }
        self.lu.solve(&mut u, &mut self.scratch);
        self.apply_etas(&mut u);
        u
    }

    /// BTRAN: `y = c_B B⁻¹` for the given full cost vector.
    fn btran(&mut self, cost: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&j| cost[j]).collect();
        // Apply the etas transposed, newest first: only component `r`
        // of the running vector changes per eta.
        for eta in self.etas.iter().rev() {
            let s: f64 = y.iter().zip(&eta.d).map(|(a, b)| a * b).sum();
            y[eta.r] = (y[eta.r] - (s - y[eta.r] * eta.d[eta.r])) / eta.d[eta.r];
        }
        self.lu.solve_transposed(&mut y, &mut self.scratch);
        y
    }

    fn refactorize(&mut self) -> Result<(), LpError> {
        self.lu = Lu::factor(self.form, &self.basis).ok_or(LpError::IterationLimit)?;
        self.etas.clear();
        self.recompute_xb();
        Ok(())
    }

    /// Applies the pivot `(leave row r, enter column q)` given the FTRAN'd
    /// entering column `d`.
    fn pivot(&mut self, r: usize, q: usize, d: Vec<f64>) -> Result<(), LpError> {
        let t = self.xb[r] / d[r];
        for (xi, &di) in self.xb.iter_mut().zip(&d) {
            *xi -= di * t;
        }
        self.xb[r] = t;
        // Degenerate or round-off negatives are clamped to zero, as the
        // solution read-out clamps them.
        for xi in self.xb.iter_mut() {
            if *xi < 0.0 && *xi > -1e-9 {
                *xi = 0.0;
            }
        }
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.etas.push(Eta { r, d });
        if self.etas.len() >= refactor_interval(self.form.m) {
            self.refactorize()?;
        }
        Ok(())
    }

    /// One pricing pass: returns the entering column with the most
    /// negative reduced cost inside the first rotating block that contains
    /// any candidate (Dantzig within a block = partial pricing), or `None`
    /// at optimality. `bland` switches to first-index selection.
    fn price<F: Fn(usize) -> bool>(
        &mut self,
        cost: &[f64],
        y: &[f64],
        allowed: &F,
        bland: bool,
    ) -> Option<usize> {
        let ncols = self.form.ncols;
        let block = MIN_PRICE_BLOCK.max(ncols / 8);
        let tol = EPS * 10.0;
        let mut scanned = 0usize;
        let mut best: Option<(usize, f64)> = None;
        let mut block_seen = 0usize;
        while scanned < ncols {
            let j = self.cursor;
            self.cursor += 1;
            if self.cursor >= ncols {
                self.cursor = 0;
            }
            scanned += 1;
            block_seen += 1;
            if allowed(j) && !self.in_basis[j] {
                let rj = cost[j] - self.form.col_dot(j, y);
                if rj < -tol {
                    if bland {
                        // Bland: the first candidate ends the scan.
                        return Some(j);
                    }
                    if best.is_none_or(|(_, b)| rj < b) {
                        best = Some((j, rj));
                    }
                }
            }
            if block_seen >= block {
                if best.is_some() {
                    break;
                }
                block_seen = 0;
            }
        }
        best.map(|(j, _)| j)
    }

    /// Ratio test on the FTRAN'd entering column: smallest `xb_i / d_i`
    /// over `d_i > EPS`; ties prefer kicking artificials out, then the
    /// smallest basis index (deterministic, Bland-compatible).
    fn ratio_test(&self, d: &[f64]) -> Option<usize> {
        let art0 = self.form.art0;
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (i, &di) in d.iter().enumerate() {
            if di > EPS {
                let ratio = self.xb[i].max(0.0) / di;
                let better = match leave {
                    None => true,
                    Some(l) => {
                        ratio < best_ratio - EPS
                            || (ratio < best_ratio + EPS && {
                                let (bi, bl) = (self.basis[i], self.basis[l]);
                                // Prefer artificial leavers, then low index.
                                match ((bi >= art0), (bl >= art0)) {
                                    (true, false) => true,
                                    (false, true) => false,
                                    _ => bi < bl,
                                }
                            })
                    }
                };
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        leave
    }

    /// Simplex iterations minimizing `cost`; `allowed` restricts entering
    /// columns (phase 2 excludes artificials).
    fn optimize<F: Fn(usize) -> bool>(&mut self, cost: &[f64], allowed: F) -> Result<(), LpError> {
        let max_iter = 2000 + 20 * (self.form.m + self.form.ncols);
        let bland_after = 1000 + 10 * (self.form.m + self.form.ncols);
        for iter in 0..max_iter {
            let bland = iter >= bland_after;
            let y = self.btran(cost);
            let Some(q) = self.price(cost, &y, &allowed, bland) else {
                return Ok(());
            };
            let d = self.ftran(q);
            let Some(r) = self.ratio_test(&d) else {
                return Err(LpError::Unbounded);
            };
            if d[r].abs() <= EPS {
                // Numerically unusable pivot: refresh the factorization
                // and re-price rather than dividing by noise.
                self.refactorize()?;
                continue;
            }
            self.pivot(r, q, d)?;
        }
        Err(LpError::IterationLimit)
    }

    /// Drives basic artificials sitting at zero level out of the basis
    /// where any admissible pivot exists (post-phase-1 cleanup).
    fn expel_artificials(&mut self) -> Result<(), LpError> {
        let art0 = self.form.art0;
        for r in 0..self.form.m {
            if self.basis[r] < art0 {
                continue;
            }
            // Row r of B⁻¹A: BTRAN of e_r, then a sparse dot per column.
            let mut e = vec![0.0; self.form.m];
            e[r] = 1.0;
            let mut row = {
                let mut y: Vec<f64> = (0..self.form.m)
                    .map(|i| if i == r { 1.0 } else { 0.0 })
                    .collect();
                for eta in self.etas.iter().rev() {
                    let s: f64 = y.iter().zip(&eta.d).map(|(a, b)| a * b).sum();
                    y[eta.r] = (y[eta.r] - (s - y[eta.r] * eta.d[eta.r])) / eta.d[eta.r];
                }
                self.lu.solve_transposed(&mut y, &mut self.scratch);
                y
            };
            // Guard against drift in the unit vector.
            if !row.iter().all(|v| v.is_finite()) {
                self.refactorize()?;
                row = {
                    let mut y = e;
                    self.lu.solve_transposed(&mut y, &mut self.scratch);
                    y
                };
            }
            let enter =
                (0..art0).find(|&j| !self.in_basis[j] && self.form.col_dot(j, &row).abs() > 1e-7);
            if let Some(q) = enter {
                let d = self.ftran(q);
                if d[r].abs() > 1e-7 {
                    self.pivot(r, q, d)?;
                }
            }
        }
        Ok(())
    }
}

/// Solves `lp` with the sparse revised simplex: the structural solution
/// vector, its objective, and the duals `y = c_B B⁻¹` in original row
/// order.
pub(crate) fn solve_revised(lp: &LpBuilder) -> Result<LpSolution, LpError> {
    let n = lp.var_count();
    let c = lp.objective_coeffs();
    let form = SparseForm::build(lp);
    if form.m == 0 {
        // No constraints: x = 0 unless some cost is negative (unbounded).
        if c.iter().any(|&cj| cj < -EPS) {
            return Err(LpError::Unbounded);
        }
        return Ok(LpSolution {
            x: vec![0.0; n],
            objective: 0.0,
            duals: Vec::new(),
        });
    }
    let mut s = Revised::new(&form)?;

    // Phase 1: minimize the sum of artificials (skipped when the initial
    // basis is all-slack).
    if form.art0 < form.ncols && s.basis.iter().any(|&j| j >= form.art0) {
        let mut cost1 = vec![0.0; form.ncols];
        for c1 in cost1.iter_mut().skip(form.art0) {
            *c1 = 1.0;
        }
        s.optimize(&cost1, |_| true)?;
        let infeas: f64 = s
            .basis
            .iter()
            .zip(&s.xb)
            .filter(|(&j, _)| j >= form.art0)
            .map(|(_, &v)| v.max(0.0))
            .sum();
        if infeas > 1e-6 {
            return Err(LpError::Infeasible);
        }
        s.expel_artificials()?;
    }

    // Phase 2: the true objective; artificials may not re-enter.
    let mut cost2 = vec![0.0; form.ncols];
    cost2[..n].copy_from_slice(c);
    let art0 = form.art0;
    s.optimize(&cost2, |j| j < art0)?;

    let mut x = vec![0.0; n];
    for (i, &j) in s.basis.iter().enumerate() {
        if j < n {
            x[j] = s.xb[i].max(0.0);
        }
    }
    let objective = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();

    // Duals: y = c_B B⁻¹ in the normalized row space; undo the b ≥ 0
    // normalization sign per original row.
    let y = s.btran(&cost2);
    let duals = y
        .iter()
        .zip(&form.row_sign)
        .map(|(&yi, &sg)| sg * yi)
        .collect();

    Ok(LpSolution {
        x,
        objective,
        duals,
    })
}

#[cfg(test)]
mod tests {
    use crate::simplex::{LpBuilder, LpError, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// The reference cases with their known optima; every answer must
    /// also pass the optimality certificate.
    #[test]
    fn reference_cases_reach_known_optima() {
        let cases: Vec<(LpBuilder, f64)> = {
            let mut v = Vec::new();
            let mut lp = LpBuilder::new(2);
            lp.objective(&[-1.0, -2.0]);
            lp.constraint(&[1.0, 1.0], Relation::Le, 4.0);
            lp.constraint(&[0.0, 1.0], Relation::Le, 3.0);
            v.push((lp, -7.0));
            let mut lp = LpBuilder::new(2);
            lp.objective(&[1.0, 1.0]);
            lp.constraint(&[1.0, 2.0], Relation::Eq, 4.0);
            v.push((lp, 2.0));
            let mut lp = LpBuilder::new(2);
            lp.objective(&[2.0, 3.0]);
            lp.constraint(&[1.0, 1.0], Relation::Ge, 5.0);
            lp.constraint(&[1.0, 0.0], Relation::Le, 3.0);
            v.push((lp, 12.0));
            let mut lp = LpBuilder::new(1);
            lp.objective(&[1.0]);
            lp.constraint(&[-1.0], Relation::Le, -3.0);
            v.push((lp, 3.0));
            let mut lp = LpBuilder::new(3);
            lp.objective(&[-0.75, 150.0, -0.02]);
            lp.constraint(&[0.25, -60.0, -0.04], Relation::Le, 0.0);
            lp.constraint(&[0.5, -90.0, -0.02], Relation::Le, 0.0);
            lp.constraint(&[0.0, 0.0, 1.0], Relation::Le, 1.0);
            v.push((lp, -0.05));
            let mut lp = LpBuilder::new(4);
            lp.objective(&[1.0, 3.0, 2.0, 1.0]);
            lp.constraint(&[1.0, 1.0, 0.0, 0.0], Relation::Eq, 1.0);
            lp.constraint(&[0.0, 0.0, 1.0, 1.0], Relation::Eq, 1.0);
            lp.constraint(&[1.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
            lp.constraint(&[0.0, 1.0, 0.0, 1.0], Relation::Le, 1.0);
            v.push((lp, 2.0));
            let mut lp = LpBuilder::new(2);
            lp.objective(&[1.0, 2.0]);
            lp.constraint(&[1.0, 1.0], Relation::Eq, 2.0);
            lp.constraint(&[2.0, 2.0], Relation::Eq, 4.0);
            v.push((lp, 2.0));
            v
        };
        for (k, (lp, optimum)) in cases.iter().enumerate() {
            let sol = super::solve_revised(lp).unwrap();
            assert!(
                (sol.objective - optimum).abs() < 1e-6,
                "case {k}: {} vs the known optimum {optimum}",
                sol.objective
            );
            let violations = crate::verify::check_solution(lp, &sol, 1e-6);
            assert!(violations.is_empty(), "case {k}: {violations:?}");
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpBuilder::new(1);
        lp.objective(&[1.0]);
        lp.constraint(&[1.0], Relation::Le, 1.0);
        lp.constraint(&[1.0], Relation::Ge, 2.0);
        assert_eq!(super::solve_revised(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpBuilder::new(1);
        lp.objective(&[-1.0]);
        lp.constraint(&[-1.0], Relation::Le, 0.0);
        assert_eq!(super::solve_revised(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn unconstrained_zero_or_unbounded() {
        let lp = LpBuilder::new(2);
        let s = super::solve_revised(&lp).unwrap();
        assert_close(s.objective, 0.0);
        let mut lp = LpBuilder::new(1);
        lp.objective(&[-1.0]);
        assert_eq!(super::solve_revised(&lp).unwrap_err(), LpError::Unbounded);
    }

    /// min 2x + 3y s.t. x + y ≥ 5, x ≤ 3: one more unit of demand costs
    /// 3 (through y), one more unit of x-room saves 3 − 2 = 1.
    #[test]
    fn duals_are_the_shadow_prices() {
        let mut lp = LpBuilder::new(2);
        lp.objective(&[2.0, 3.0]);
        lp.constraint(&[1.0, 1.0], Relation::Ge, 5.0);
        lp.constraint(&[1.0, 0.0], Relation::Le, 3.0);
        let r = super::solve_revised(&lp).unwrap();
        assert_close(r.duals[0], 3.0);
        assert_close(r.duals[1], -1.0);
        assert!(crate::verify::check_solution(&lp, &r, 1e-9).is_empty());
    }

    /// A GAP-shaped relaxation large enough to cross several refactorization
    /// intervals: 60 items × 12 bins ⇒ 720 structural columns, 72 rows.
    /// The certificate proves the pinned optimum optimal.
    #[test]
    fn gap_shaped_instance_crosses_refactorizations() {
        let items = 60usize;
        let bins = 12usize;
        let nv = items * bins;
        let mut lp = LpBuilder::new(nv);
        let costs: Vec<f64> = (0..nv)
            .map(|v| {
                let (i, j) = (v / bins, v % bins);
                1.0 + ((i * 7 + j * 13) % 17) as f64
            })
            .collect();
        lp.objective(&costs);
        for i in 0..items {
            let mut row = vec![0.0; nv];
            for j in 0..bins {
                row[i * bins + j] = 1.0;
            }
            lp.constraint(&row, Relation::Eq, 1.0);
        }
        for j in 0..bins {
            let mut row = vec![0.0; nv];
            for i in 0..items {
                row[i * bins + j] = 0.5 + ((i + j) % 3) as f64 * 0.25;
            }
            lp.constraint(&row, Relation::Le, 4.5);
        }
        let revised = super::solve_revised(&lp).unwrap();
        assert!(
            (revised.objective - 89.375).abs() < 1e-5,
            "{} vs the known optimum 89.375",
            revised.objective
        );
        let violations = crate::verify::check_solution(&lp, &revised, 1e-5);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
