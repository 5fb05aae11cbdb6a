//! Levelwise mining of reliable approximate dependencies with
//! branch-and-bound pruning.
//!
//! [`mine_reliable`] is a walker on `fdmine`'s levelwise lattice engine
//! ([`dbmine_fdmine::lattice`]), the same walk as
//! `fdmine::mine_approximate`, but it scores each candidate
//! `X∖{A} → A` with the bias-corrected F̂ of [`crate::estimator`] and
//! emits every minimal dependency with `F̂ ≥ θ`.
//!
//! On top of the walk sits the Mandros et al. branch-and-bound rule: a
//! candidate set `X` can be dropped from generation when **no**
//! dependency reachable through its descendants can still clear `θ`,
//! i.e. when `F̄ < θ` for every consequent — both `A ∈ X` (whose
//! descendants test supersets of `X∖{A}`, reusing the bias already paid
//! for in the scoring pass) and `A ∉ X` (a fresh bound from `π_X`'s
//! size multiset). Because `F̄` is admissible and the minimality filter
//! is hereditary, pruning can only *skip* work: the mined set is
//! bit-identical with pruning on or off (pinned by tests), while the
//! lattice shrinks by the amounts recorded in the `bnb_bounds` /
//! `bnb_prunes` counters.

use crate::estimator::{RfiScorer, SizeMultiset};
use dbmine_context::AnalysisCtx;
use dbmine_fdmine::lattice::{FoundLhs, Lattice, Walker};
use dbmine_fdmine::Fd;
use dbmine_parallel::par_map;
use dbmine_relation::{AttrSet, Relation};
use dbmine_telemetry::{counter_add, span, Counter};

/// The default reliability threshold θ for CLI/daemon runs.
pub const DEFAULT_THETA: f64 = 0.2;

/// Options for [`mine_reliable`].
#[derive(Clone, Copy, Debug)]
pub struct ReliableOptions {
    /// Emission threshold `θ ∈ [0,1]`: keep `X → A` with `F̂ ≥ θ`.
    pub theta: f64,
    /// Bound on the LHS size (`None` = unbounded).
    pub max_lhs: Option<usize>,
    /// Worker threads (`1` = serial, `0` = all cores); results are
    /// bit-identical for every thread count.
    pub threads: usize,
    /// Branch-and-bound pruning. On by default; turning it off explores
    /// the full (minimality-filtered) lattice and must return the exact
    /// same dependencies — the switch exists for the pruning-
    /// effectiveness bench and the bit-identity tests.
    pub prune: bool,
}

impl Default for ReliableOptions {
    fn default() -> Self {
        ReliableOptions {
            theta: DEFAULT_THETA,
            max_lhs: None,
            threads: 1,
            prune: true,
        }
    }
}

/// A reliable dependency: `F̂(X→A) ≥ θ`, minimal in the LHS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReliableFd {
    /// The dependency.
    pub fd: Fd,
    /// The reliable fraction of information `F̂ = plugin − bias`.
    pub score: f64,
    /// The uncorrected plugin fraction `I(X;A)/H(A)`.
    pub plugin: f64,
    /// The permutation-model correction `m₀/H(A)`.
    pub bias: f64,
    /// The `g3` error of the same dependency, for side-by-side
    /// comparison of the two quality measures.
    pub g3: f64,
}

/// Mines all minimal `X → A` with `F̂(X→A) ≥ θ` over a transient
/// context; see [`mine_reliable_ctx`] for the shared-context variant.
pub fn mine_reliable(rel: &Relation, options: ReliableOptions) -> Vec<ReliableFd> {
    mine_reliable_ctx(&AnalysisCtx::of(rel), options)
}

/// As [`mine_reliable`], seeding level 1 from the context's memoized
/// single-attribute partitions.
pub fn mine_reliable_ctx(ctx: &AnalysisCtx, options: ReliableOptions) -> Vec<ReliableFd> {
    assert!((0.0..=1.0).contains(&options.theta), "θ must be in [0,1]");
    let _span = span("fdmine.reliable");
    let mut walker = Reliable {
        options,
        scorer: RfiScorer::new(ctx, options.threads),
        found: Vec::new(),
        found_lhs: FoundLhs::new(ctx.n_attrs()),
        scored: Vec::new(),
    };
    Lattice::seed(ctx, options.threads).walk(options.max_lhs, &mut walker);
    // Each (LHS, RHS) pair is scored once and LHSs never contain their
    // RHS, so the emissions are already duplicate-free and non-trivial.
    walker.found.sort_by_key(|f| f.fd);
    walker.found
}

/// The reliable miner's part of the walk: the F̂ scoring pass and the
/// optional F̄ branch-and-bound survivor filter.
struct Reliable {
    options: ReliableOptions,
    scorer: RfiScorer,
    found: Vec<ReliableFd>,
    found_lhs: FoundLhs,
    /// Every candidate the current level scored, per set, kept so the
    /// prune pass can reuse the biases it already paid for.
    scored: Vec<Vec<ReliableFd>>,
}

impl Walker for Reliable {
    const GENERATE_SPAN: Option<&'static str> = Some("reliable.generate");

    /// Scoring pass: every uncovered candidate gets its F̂ and g3; those
    /// with `F̂ ≥ θ` are emitted, in set order.
    fn visit(&mut self, lattice: &Lattice) {
        let scorer = &self.scorer;
        self.scored = {
            let _s = span("reliable.score");
            lattice.test_candidates(&self.found_lhs, |scratch, fd, p_lhs, px| {
                let rfi = scorer.score(p_lhs, px, fd.rhs);
                Some(ReliableFd {
                    fd,
                    score: rfi.score,
                    plugin: rfi.plugin,
                    bias: rfi.bias,
                    g3: p_lhs.g3_error_with(px, scratch),
                })
            })
        };
        for f in self.scored.iter().flatten() {
            if f.score >= self.options.theta {
                self.found.push(*f);
                self.found_lhs.insert(f.fd);
            }
        }
    }

    /// Branch-and-bound pass: X survives into generation unless every
    /// consequent's descendants are provably hopeless. For A ∈ X the
    /// bias from the scoring pass is reused (its bound covers every
    /// superset of X∖{A}); for A ∉ X a fresh bound is computed from
    /// π_X's size multiset (its bound covers every superset of X). The
    /// minimality short-circuit is hereditary — an emitted subset LHS
    /// covers every descendant's LHS — so pruning never removes a
    /// dependency the unpruned walk would emit.
    fn survivors(&mut self, lattice: &Lattice) -> Vec<AttrSet> {
        if !self.options.prune {
            return lattice.sets.clone();
        }
        let _s = span("reliable.prune");
        let theta = self.options.theta;
        let (found_lhs, scorer) = (&self.found_lhs, &self.scorer);
        let verdicts: Vec<(bool, u64)> = par_map(
            lattice.threads,
            &lattice.sets.iter().zip(&self.scored).collect::<Vec<_>>(),
            |_, &(&x, scored)| {
                let mut bounds = 0u64;
                let mut hopeful = |bound: f64| {
                    bounds += 1;
                    bound >= theta
                };
                // Consequents covered by this level's emissions need no bound.
                let keep = scored
                    .iter()
                    .filter(|f| !found_lhs.covers(f.fd.lhs, f.fd.rhs))
                    .any(|f| hopeful(scorer.bound_from_bias(f.bias, f.fd.rhs)))
                    || {
                        let x_sizes = SizeMultiset::of_partition(&lattice.part(x).partition);
                        (0..lattice.attrs.len())
                            .filter(|&b| !x.contains(b) && !found_lhs.covers(x, b))
                            .any(|b| hopeful(scorer.bound(&x_sizes, b)))
                    };
                (keep, bounds)
            },
        );
        let survivors: Vec<AttrSet> = lattice
            .sets
            .iter()
            .zip(&verdicts)
            .filter_map(|(&x, &(keep, _))| keep.then_some(x))
            .collect();
        counter_add(Counter::BnbBounds, verdicts.iter().map(|v| v.1).sum());
        counter_add(
            Counter::BnbPrunes,
            (lattice.sets.len() - survivors.len()) as u64,
        );
        survivors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::{figure4, figure5};

    #[test]
    fn theta_one_emits_only_bias_free_exact_fds() {
        // θ = 1 demands plugin − bias ≥ 1: an exact FD with zero
        // chance agreement. On figure4 the constant-free columns all
        // carry bias, so only ∅→A-style constants could reach 1 — and
        // figure4 has none.
        let out = mine_reliable(
            &figure4(),
            ReliableOptions {
                theta: 1.0,
                ..Default::default()
            },
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn scores_respect_threshold_and_minimality() {
        for rel in [figure4(), figure5()] {
            let out = mine_reliable(
                &rel,
                ReliableOptions {
                    theta: 0.05,
                    ..Default::default()
                },
            );
            for f in &out {
                assert!(f.score >= 0.05, "{f:?}");
                assert!((f.score - (f.plugin - f.bias)).abs() < 1e-12);
                for (i, g) in out.iter().enumerate() {
                    let _ = i;
                    if g.fd.rhs == f.fd.rhs && g.fd.lhs != f.fd.lhs {
                        assert!(
                            !g.fd.lhs.is_subset_of(f.fd.lhs),
                            "{:?} not minimal given {:?}",
                            f.fd,
                            g.fd
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn max_lhs_respected() {
        let out = mine_reliable(
            &figure4(),
            ReliableOptions {
                theta: 0.05,
                max_lhs: Some(1),
                ..Default::default()
            },
        );
        assert!(out.iter().all(|f| f.fd.lhs.len() <= 1));
    }

    #[test]
    #[should_panic(expected = "θ")]
    fn theta_out_of_range_panics() {
        mine_reliable(
            &figure4(),
            ReliableOptions {
                theta: 1.5,
                ..Default::default()
            },
        );
    }
}
