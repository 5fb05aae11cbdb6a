//! TANE (Huhtala, Kärkkäinen, Porkka, Toivonen) — levelwise FD discovery
//! over stripped partitions, with rhs⁺-candidate and key pruning.
//!
//! Where FDEP compares all `O(n²)` tuple pairs, TANE's cost is governed
//! by the number of attribute sets it visits, making it the right miner
//! for the paper's large DBLP partitions (14k–36k tuples, few
//! attributes). Produces exactly the minimal, non-trivial FDs.
//!
//! # Performance architecture
//!
//! TANE is a [`Walker`] on the shared lattice engine ([`crate::lattice`],
//! see DESIGN.md), which carries every partition with its precomputed
//! TANE error — so validity tests are integer comparisons — and runs the
//! partition products through per-worker [`PartitionScratch`]es. On top
//! of it, TANE's COMPUTE_DEPENDENCIES step fans out across
//! `dbmine_parallel` with deterministic chunking (results are identical
//! for every [`TaneOptions::threads`] value), and key pruning memoizes
//! subset partitions in a level-local cache, so each is built once per
//! level instead of once per (subset, rhs) pair.

use crate::fd::{normalize_fds, Fd};
use crate::lattice::{Lattice, Part, Walker};
use crate::partitions::PartitionScratch;
use dbmine_context::AnalysisCtx;
use dbmine_parallel::par_map;
use dbmine_relation::{AttrSet, Relation};
use fxhash::FxHashMap;

/// Options for the TANE run.
#[derive(Clone, Copy, Debug)]
pub struct TaneOptions {
    /// Stop after this LHS size (None = unbounded). Bounding trades
    /// completeness for time on wide relations; dependencies with small
    /// LHSs — the ones FD-RANK cares about — are found first.
    pub max_lhs: Option<usize>,
    /// Worker threads for the levelwise steps (`1` = serial, `0` = all
    /// cores). Results are bit-identical for every thread count.
    pub threads: usize,
}

impl Default for TaneOptions {
    fn default() -> Self {
        TaneOptions {
            max_lhs: None,
            threads: 1,
        }
    }
}

/// Mines all minimal non-trivial FDs of `rel` with TANE.
///
/// Builds a transient [`AnalysisCtx`]; callers analyzing the same
/// relation more than once should hold a context and call
/// [`mine_tane_ctx`] so the single-attribute seed partitions are shared
/// (with FD-RANK, the approximate miner, …).
pub fn mine_tane(rel: &Relation, options: TaneOptions) -> Vec<Fd> {
    mine_tane_ctx(&AnalysisCtx::of(rel), options)
}

/// As [`mine_tane`], seeding level 1 from the context's memoized
/// single-attribute partitions instead of rebuilding them.
pub fn mine_tane_ctx(ctx: &AnalysisCtx, options: TaneOptions) -> Vec<Fd> {
    let lattice = Lattice::seed(ctx, options.threads);
    let mut tane = Tane {
        // Level 0: C⁺(∅) = R.
        cplus: std::iter::once((AttrSet::EMPTY.bits(), ctx.all_attrs())).collect(),
        out: Vec::new(),
        scratch: PartitionScratch::new(),
    };
    let _span = dbmine_telemetry::span("tane.run");
    lattice.walk(options.max_lhs, &mut tane);
    normalize_fds(tane.out)
}

/// TANE's part of the walk: the C⁺ (rhs⁺-candidate) compute step and
/// key pruning.
struct Tane {
    /// C⁺ of *every* set of the last visited level (kept even for
    /// pruned sets; the next compute step reads them).
    cplus: FxHashMap<u64, AttrSet>,
    out: Vec<Fd>,
    scratch: PartitionScratch,
}

impl Walker for Tane {
    const GENERATE_SPAN: Option<&'static str> = Some("tane.generate_next_level");

    /// COMPUTE_DEPENDENCIES: each set's candidate-rhs narrowing and
    /// validity tests read only the previous level, so the sets fan out
    /// in parallel; the serial merge keeps emission order (and therefore
    /// the whole run) independent of the chunking.
    fn visit(&mut self, lattice: &Lattice) {
        let _span = dbmine_telemetry::span("tane.compute_dependencies");
        let r: AttrSet = (0..lattice.attrs.len()).collect();
        let prev_cplus = &self.cplus;
        let computed: Vec<(AttrSet, Vec<Fd>)> = par_map(lattice.threads, &lattice.sets, |_, &x| {
            // C+(X) = ∩_{A∈X} C+(X∖{A}).
            let mut cp = x
                .iter()
                .try_fold(r, |cp, a| {
                    prev_cplus
                        .get(&x.without(a).bits())
                        .map(|&c| cp.intersect(c))
                })
                .unwrap_or(AttrSet::EMPTY);
            let px_error = lattice.part(x).error;
            let mut fds = Vec::new();
            for a in x.intersect(cp).iter() {
                let parent = x.without(a);
                // A pruned parent means a smaller FD exists.
                if lattice
                    .prev_part(parent)
                    .is_some_and(|pp| pp.error == px_error)
                {
                    fds.push(Fd::new(parent, a));
                    cp = cp.without(a);
                    cp = cp.minus(r.minus(x));
                }
            }
            (cp, fds)
        });
        self.cplus.clear();
        for (x, (cp, fds)) in lattice.sets.iter().zip(computed) {
            self.out.extend(fds);
            self.cplus.insert(x.bits(), cp);
        }
    }

    /// PRUNE (serial: keys are rare). The level-local cache memoizes
    /// subset partitions so each is built once per level, not once per
    /// (subset, rhs) pair.
    fn survivors(&mut self, lattice: &Lattice) -> Vec<AttrSet> {
        let _span = dbmine_telemetry::span("tane.prune");
        let mut key_cache: FxHashMap<u64, Part> = FxHashMap::default();
        let mut survivors = Vec::with_capacity(lattice.sets.len());
        for &x in &lattice.sets {
            let cp = self.cplus[&x.bits()];
            if cp.is_empty() {
                continue;
            }
            if !lattice.part(x).partition.is_key() {
                survivors.push(x);
                continue;
            }
            // X is a key: X → A is valid for every A. Emit the minimal
            // ones — those where no (X∖{B}) → A holds. The sets
            // X∪{A}∖{B} the original C⁺ test consults may never have
            // been generated, so we verify minimality directly on
            // partitions (keys are rare enough for this to be cheap).
            for a in cp.minus(x).iter() {
                let minimal = x.iter().all(|b| {
                    let sub = x.without(b);
                    let mut error =
                        |set| cached_error(set, lattice, &mut key_cache, &mut self.scratch);
                    error(sub) != error(sub.with(a))
                });
                if minimal {
                    self.out.push(Fd::new(x, a));
                }
            }
        }
        survivors
    }
}

/// The TANE error of `π_set`, served from (in order) the previous
/// level's survivors, the current level, or the level-local `cache`;
/// cache misses materialize the partition by extending the partition of
/// `set ∖ {max attr}` with one scratch-reused product, so a subset is
/// built at most once per level.
fn cached_error(
    set: AttrSet,
    lattice: &Lattice,
    cache: &mut FxHashMap<u64, Part>,
    scratch: &mut PartitionScratch,
) -> usize {
    if let Some(p) = lattice.find(set).or_else(|| cache.get(&set.bits())) {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TanePruneCacheHits, 1);
        return p.error;
    }
    dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TanePruneCacheMisses, 1);
    // ∅ is only asked for at level 1, where it is the previous level.
    let last = set.iter().last().expect("∅ is always cached");
    let prefix = set.without(last);
    let partition = if prefix.is_empty() {
        lattice.attrs[last].clone()
    } else {
        // Materialize the prefix (recursion depth ≤ |set|) …
        cached_error(prefix, lattice, cache, scratch);
        // … then extend it by one product.
        (lattice.find(prefix).or_else(|| cache.get(&prefix.bits())))
            .expect("prefix just materialized")
            .partition
            .product_with(lattice.attrs[last], scratch)
    };
    let part = Part::new(partition);
    let error = part.error;
    cache.insert(set.bits(), part);
    error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::mine_brute;
    use crate::fdep::mine_fdep;
    use dbmine_relation::paper::{figure1, figure4, figure5};
    use dbmine_relation::RelationBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn figure4_matches_fdep_and_brute() {
        for rel in [figure1(), figure4(), figure5()] {
            let mut tane = mine_tane(&rel, TaneOptions::default());
            let mut fdep = mine_fdep(&rel);
            let mut brute = mine_brute(&rel);
            tane.sort();
            fdep.sort();
            brute.sort();
            assert_eq!(tane, brute, "tane vs brute on {}", rel.name());
            assert_eq!(tane, fdep, "tane vs fdep on {}", rel.name());
        }
    }

    #[test]
    fn random_relations_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..25 {
            let m = rng.gen_range(2..=5);
            let n = rng.gen_range(2..=14);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..3)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let mut tane = mine_tane(&rel, TaneOptions::default());
            let mut brute = mine_brute(&rel);
            tane.sort();
            brute.sort();
            assert_eq!(tane, brute, "trial {trial} mismatch");
        }
    }

    #[test]
    fn thread_counts_agree() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let m = rng.gen_range(3..=6);
            let n = rng.gen_range(20..=60);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..4)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let serial = mine_tane(
                &rel,
                TaneOptions {
                    threads: 1,
                    ..Default::default()
                },
            );
            for threads in [0, 2, 4] {
                let parallel = mine_tane(
                    &rel,
                    TaneOptions {
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(serial, parallel, "threads = {threads}");
            }
        }
    }

    #[test]
    fn composite_key_discovered() {
        // (A,B) is a key but neither attribute alone is.
        let mut b = RelationBuilder::new("ck", &["A", "B", "C"]);
        b.push_row_strs(&["1", "1", "x"]);
        b.push_row_strs(&["1", "2", "y"]);
        b.push_row_strs(&["2", "1", "y"]);
        b.push_row_strs(&["2", "2", "x"]);
        let rel = b.build();
        let fds = mine_tane(&rel, TaneOptions::default());
        assert!(fds.contains(&Fd::new(set(&[0, 1]), 2)));
        assert!(!fds.iter().any(|f| f.rhs == 2 && f.lhs.len() < 2));
    }

    #[test]
    fn max_lhs_bounds_results() {
        let mut b = RelationBuilder::new("ck", &["A", "B", "C"]);
        b.push_row_strs(&["1", "1", "x"]);
        b.push_row_strs(&["1", "2", "y"]);
        b.push_row_strs(&["2", "1", "y"]);
        b.push_row_strs(&["2", "2", "x"]);
        let rel = b.build();
        let fds = mine_tane(
            &rel,
            TaneOptions {
                max_lhs: Some(1),
                ..Default::default()
            },
        );
        assert!(fds.iter().all(|f| f.lhs.len() <= 1));
    }

    #[test]
    fn all_distinct_relation_has_single_attribute_keys() {
        let mut b = RelationBuilder::new("d", &["A", "B"]);
        b.push_row_strs(&["1", "x"]);
        b.push_row_strs(&["2", "y"]);
        let rel = b.build();
        let fds = mine_tane(&rel, TaneOptions::default());
        // A → B and B → A.
        assert!(fds.contains(&Fd::new(set(&[0]), 1)));
        assert!(fds.contains(&Fd::new(set(&[1]), 0)));
    }
}
