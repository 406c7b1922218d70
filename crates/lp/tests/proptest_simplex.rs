//! Property-based tests for the simplex solver.
//!
//! Strategy: generate random bounded-feasible LPs (box constraints plus
//! random `≤` rows with non-negative coefficients and rhs), then check that
//! the solver's answer is (a) feasible, (b) at least as good as a cloud of
//! random feasible points and (c) certified optimal by `check_solution`.

use mec_lp::{check_solution, LpBuilder, Relation};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

#[derive(Debug, Clone)]
struct RandomLp {
    n: usize,
    c: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    box_ub: f64,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..5).prop_flat_map(|n| {
        let c = proptest::collection::vec(-5.0..5.0f64, n);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(0.0..3.0f64, n), 1.0..10.0f64),
            1..4,
        );
        (Just(n), c, rows, 1.0..5.0f64).prop_map(|(n, c, rows, box_ub)| RandomLp {
            n,
            c,
            rows,
            box_ub,
        })
    })
}

fn build(lp: &RandomLp) -> LpBuilder {
    let mut b = LpBuilder::new(lp.n);
    b.objective(&lp.c);
    for (coeffs, rhs) in &lp.rows {
        b.constraint(coeffs, Relation::Le, *rhs);
    }
    for i in 0..lp.n {
        let mut e = vec![0.0; lp.n];
        e[i] = 1.0;
        b.constraint(&e, Relation::Le, lp.box_ub);
    }
    b
}

fn is_feasible(lp: &RandomLp, x: &[f64]) -> bool {
    x.iter().all(|&v| v >= -TOL && v <= lp.box_ub + TOL)
        && lp
            .rows
            .iter()
            .all(|(coeffs, rhs)| coeffs.iter().zip(x).map(|(a, v)| a * v).sum::<f64>() <= rhs + TOL)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn solution_is_feasible(lp in random_lp()) {
        let sol = build(&lp).solve().expect("box-bounded LP with rhs>0 is feasible");
        prop_assert!(is_feasible(&lp, &sol.x), "solution {:?} infeasible", sol.x);
    }

    #[test]
    fn solution_beats_random_feasible_points(lp in random_lp(), samples in proptest::collection::vec(proptest::collection::vec(0.0..1.0f64, 2..5), 20)) {
        let sol = build(&lp).solve().unwrap();
        for s in &samples {
            // Scale the unit sample into the box; reject if infeasible.
            let x: Vec<f64> = s.iter().cycle().take(lp.n).map(|v| v * lp.box_ub).collect();
            if is_feasible(&lp, &x) {
                let obj: f64 = lp.c.iter().zip(&x).map(|(c, v)| c * v).sum();
                prop_assert!(sol.objective <= obj + TOL,
                    "simplex {} worse than random point {}", sol.objective, obj);
            }
        }
    }

    #[test]
    fn objective_matches_x(lp in random_lp()) {
        let sol = build(&lp).solve().unwrap();
        let recomputed: f64 = lp.c.iter().zip(&sol.x).map(|(c, v)| c * v).sum();
        prop_assert!((sol.objective - recomputed).abs() < 1e-6);
    }

    #[test]
    fn strong_duality_holds(lp in random_lp()) {
        let sol = build(&lp).solve().unwrap();
        // b ordering matches build(): the random rows then the box rows.
        let mut by = 0.0;
        for (k, (_, rhs)) in lp.rows.iter().enumerate() {
            by += rhs * sol.duals[k];
        }
        for i in 0..lp.n {
            by += lp.box_ub * sol.duals[lp.rows.len() + i];
        }
        prop_assert!((by - sol.objective).abs() < 1e-5,
            "b·y = {by} but c·x = {}", sol.objective);
    }

    /// Every answer passes the optimality certificate: primal and dual
    /// feasibility and a closed duality gap, checked from the problem
    /// data alone.
    #[test]
    fn solution_is_certified_optimal(lp in random_lp()) {
        let b = build(&lp);
        let sol = b.solve().unwrap();
        let violations = check_solution(&b, &sol, 1e-6);
        prop_assert!(violations.is_empty(),
            "solution rejected by the certificate: {violations:?}");
    }

    #[test]
    fn duals_nonpositive_for_le_rows(lp in random_lp()) {
        // Minimization with all-Le rows: tightening b can only help, so
        // every dual is <= 0.
        let sol = build(&lp).solve().unwrap();
        for (k, d) in sol.duals.iter().enumerate() {
            prop_assert!(*d <= 1e-7, "dual {k} = {d} > 0");
        }
    }
}
