//! Approximate functional dependencies.
//!
//! The paper's Figure 5 shows how a single erroneous value turns the
//! exact dependency `C → B` into an *approximate* one. Approximate
//! dependencies (TANE's `g3` semantics: the minimum fraction of tuples
//! to delete for the dependency to hold) are exactly what a structure
//! miner meets on dirty, integrated data, and both FDEP-style and
//! TANE-style miners in the paper's related work support them.
//!
//! [`mine_approximate`] runs a levelwise search emitting all minimal
//! `X → A` with `g3(X → A) ≤ ε`. The rhs⁺ pruning of exact TANE is not
//! sound under approximation, so minimality is enforced directly against
//! the discovered set, and no set is pruned from generation.

use crate::fd::Fd;
use crate::lattice::{FoundLhs, Lattice, Walker};
use dbmine_context::AnalysisCtx;
use dbmine_relation::Relation;

/// An approximate dependency with its `g3` error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxFd {
    /// The dependency.
    pub fd: Fd,
    /// Its `g3` error in `[0, ε]` (0 = exact).
    pub error: f64,
}

/// Mines all minimal dependencies with `g3` error at most `epsilon`
/// (`epsilon = 0` reduces to exact mining). `max_lhs` bounds the LHS
/// size (`None` = unbounded). Serial, over a transient context; see
/// [`mine_approximate_ctx`] for the shared-context, threaded variant.
pub fn mine_approximate(rel: &Relation, epsilon: f64, max_lhs: Option<usize>) -> Vec<ApproxFd> {
    mine_approximate_ctx(&AnalysisCtx::of(rel), epsilon, max_lhs, 1)
}

/// As [`mine_approximate`], seeding level 1 from the context's memoized
/// single-attribute partitions, with an explicit worker-thread count
/// (`1` = serial, `0` = all cores). The `g3` tests and the prefix-join
/// products fan out with deterministic chunking, so results are
/// bit-identical for every thread count.
pub fn mine_approximate_ctx(
    ctx: &AnalysisCtx,
    epsilon: f64,
    max_lhs: Option<usize>,
    threads: usize,
) -> Vec<ApproxFd> {
    assert!((0.0..1.0).contains(&epsilon), "ε must be in [0,1)");
    let lattice = Lattice::seed(ctx, threads);
    let mut walker = Approximate {
        epsilon,
        found: Vec::new(),
        found_lhs: FoundLhs::new(ctx.n_attrs()),
    };
    let _span = dbmine_telemetry::span("fdmine.approximate");
    lattice.walk(max_lhs, &mut walker);
    // Each (LHS, RHS) pair is tested once and LHSs never contain their
    // RHS, so the emissions are already duplicate-free and non-trivial.
    walker.found.sort_by_key(|f| f.fd);
    walker.found
}

/// The approximate miner's part of the walk: the `g3 ≤ ε` test. Every
/// set survives into generation.
///
/// Unlike exact TANE, a key X must NOT be pruned from candidate
/// generation. The FD (X∪{b})∖{a} → a (for a ∈ X) is only ever
/// tested from the candidate X∪{b}; its LHS does not contain X, so
/// it can still be minimal even though X is a key. Without the rhs⁺
/// machinery that makes TANE's key pruning complete, deleting X here
/// silently loses those dependencies. Keys still cost nothing extra
/// to emit: a key LHS has an empty stripped partition, so its g3
/// error is exactly 0.0 and its consequents surface through the
/// normal test one level up.
struct Approximate {
    epsilon: f64,
    found: Vec<ApproxFd>,
    found_lhs: FoundLhs,
}

impl Walker for Approximate {
    fn visit(&mut self, lattice: &Lattice) {
        let epsilon = self.epsilon;
        let tested = lattice.test_candidates(&self.found_lhs, |scratch, fd, p_lhs, px| {
            let error = p_lhs.g3_error_with(px, scratch);
            (error <= epsilon).then_some(ApproxFd { fd, error })
        });
        for f in tested.into_iter().flatten() {
            self.found_lhs.insert(f.fd);
            self.found.push(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::mine_brute;
    use crate::check::fd_error_g3;
    use dbmine_relation::paper::{figure4, figure5};
    use dbmine_relation::AttrSet;
    use dbmine_relation::RelationBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn epsilon_zero_equals_exact_mining() {
        for rel in [figure4(), figure5()] {
            let approx = mine_approximate(&rel, 0.0, None);
            let mut exact: Vec<Fd> = approx.iter().map(|f| f.fd).collect();
            let mut brute = mine_brute(&rel);
            exact.sort();
            brute.sort();
            assert_eq!(exact, brute, "mismatch on {}", rel.name());
            assert!(approx.iter().all(|f| f.error == 0.0));
        }
    }

    #[test]
    fn figure5_c_to_b_is_approximate_at_20_percent() {
        // One of five tuples violates C → B.
        let rel = figure5();
        let approx = mine_approximate(&rel, 0.2, None);
        let c_to_b = approx
            .iter()
            .find(|f| f.fd.lhs == AttrSet::single(2) && f.fd.rhs == 1)
            .expect("C→B approximate");
        assert!((c_to_b.error - 0.2).abs() < 1e-12);
        // At a tighter threshold it disappears.
        let tight = mine_approximate(&rel, 0.1, None);
        assert!(!tight
            .iter()
            .any(|f| f.fd.lhs == AttrSet::single(2) && f.fd.rhs == 1));
    }

    #[test]
    fn results_are_minimal_and_within_epsilon() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let m = rng.gen_range(2..=4);
            let n = rng.gen_range(3..=12);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("r", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..3)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let eps = 0.25;
            let approx = mine_approximate(&rel, eps, None);
            for f in &approx {
                let direct = fd_error_g3(&rel, f.fd.lhs, f.fd.rhs);
                assert!(
                    (f.error - direct).abs() < 1e-12,
                    "error mismatch for {}",
                    f.fd
                );
                assert!(f.error <= eps + 1e-12);
                for bb in f.fd.lhs.iter() {
                    let sub_err = fd_error_g3(&rel, f.fd.lhs.without(bb), f.fd.rhs);
                    assert!(
                        sub_err > eps,
                        "{} not minimal: dropping {bb} gives error {sub_err}",
                        f.fd
                    );
                }
            }
            // Completeness for LHS size ≤ 2 by brute force.
            for a in 0..m {
                for bits in 0u64..(1 << m) {
                    let lhs = AttrSet::from_bits(bits);
                    if lhs.len() > 2 || lhs.contains(a) {
                        continue;
                    }
                    let err = fd_error_g3(&rel, lhs, a);
                    let minimal = lhs
                        .iter()
                        .all(|bb| fd_error_g3(&rel, lhs.without(bb), a) > eps);
                    if err <= eps && minimal {
                        assert!(
                            approx.iter().any(|f| f.fd == Fd::new(lhs, a)),
                            "missing approximate FD {} (error {err})",
                            Fd::new(lhs, a)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn max_lhs_respected() {
        let rel = figure4();
        let approx = mine_approximate(&rel, 0.1, Some(1));
        assert!(approx.iter().all(|f| f.fd.lhs.len() <= 1));
    }

    #[test]
    #[should_panic(expected = "ε")]
    fn epsilon_out_of_range() {
        mine_approximate(&figure4(), 1.0, None);
    }
}
