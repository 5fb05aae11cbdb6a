//! The levelwise lattice engine shared by every TANE-style miner.
//!
//! Exact TANE ([`crate::tane`]), g3-approximate mining
//! ([`crate::approximate`]) and reliable F̂ mining (`dbmine-reliability`)
//! walk the attribute-set lattice the same way: level ℓ holds the sets
//! of size ℓ with their stripped partitions, its candidate dependencies
//! `X∖{A} → A` are tested against level ℓ−1, and level ℓ+1 is the prefix
//! join of the sets that survive. [`Lattice`] owns that walk — seeding,
//! the node count and `max_lhs` stop, generation with parallel products,
//! the level shift — and a [`Walker`] supplies the rest: the tests of a
//! level and the choice of its survivors. Candidates are enumerated
//! serially and products written back by index, so every walk is
//! bit-identical at every thread count.

use crate::fd::Fd;
use crate::partitions::{PartitionScratch, StrippedPartition};
use dbmine_context::AnalysisCtx;
use dbmine_parallel::par_map_init;
use dbmine_relation::AttrSet;
use dbmine_telemetry::{counter_add, span, Counter};
use fxhash::{FxHashMap, FxHashSet};

/// A partition bundled with its precomputed TANE error `e(π)`, so the
/// hot validity test `e(π_X) == e(π_{X∖{A}})` never rescans classes.
pub struct Part {
    /// The stripped partition `π_X`.
    pub partition: StrippedPartition,
    /// Its TANE error `e(π_X) = ‖π_X‖ − |π_X|`.
    pub error: usize,
}

impl Part {
    /// Wraps `partition`, computing its error once.
    pub(crate) fn new(partition: StrippedPartition) -> Self {
        let error = partition.error();
        Part { partition, error }
    }
}

/// One miner's part of the levelwise walk.
pub trait Walker {
    /// Telemetry span wrapped around each level's generation step.
    const GENERATE_SPAN: Option<&'static str> = None;

    /// Tests the candidate dependencies of the current level.
    fn visit(&mut self, lattice: &Lattice);

    /// The current-level sets that join into the next level, as a
    /// subsequence of `lattice.sets` (generation relies on that order).
    /// Only their partitions are kept for the next level's tests. By
    /// default every set survives.
    fn survivors(&mut self, lattice: &Lattice) -> Vec<AttrSet> {
        lattice.sets.clone()
    }
}

/// The state of a levelwise walk: the current level and the survivors
/// of the one before it.
pub struct Lattice<'c> {
    /// Worker threads for the walk (`1` = serial, `0` = all cores).
    pub threads: usize,
    /// The single-attribute partitions `π_A`, borrowed from the context.
    pub attrs: Vec<&'c StrippedPartition>,
    /// The current level's sets, in generation order.
    pub sets: Vec<AttrSet>,
    /// Partitions of every set in [`Self::sets`].
    parts: FxHashMap<u64, Part>,
    /// Partitions of the previous level's survivors (level 0: `∅`).
    prev: FxHashMap<u64, Part>,
}

impl<'c> Lattice<'c> {
    /// Level 1 of `ctx`'s lattice: every single attribute, seeded from
    /// the context's memoized partitions (`threads` workers build any
    /// that are missing, and run the walk's products).
    pub fn seed(ctx: &'c AnalysisCtx, threads: usize) -> Self {
        let attrs = ctx.attr_partitions_with(threads);
        Lattice {
            threads,
            sets: (0..attrs.len()).map(AttrSet::single).collect(),
            parts: attrs
                .iter()
                .enumerate()
                .map(|(a, p)| (AttrSet::single(a).bits(), Part::new((*p).clone())))
                .collect(),
            prev: std::iter::once((
                AttrSet::EMPTY.bits(),
                Part::new(StrippedPartition::of_empty(ctx.n_tuples())),
            ))
            .collect(),
            attrs,
        }
    }

    /// The partition of a current-level set.
    pub fn part(&self, x: AttrSet) -> &Part {
        &self.parts[&x.bits()]
    }

    /// The partition of a previous-level survivor, if `x` is one.
    pub(crate) fn prev_part(&self, x: AttrSet) -> Option<&Part> {
        self.prev.get(&x.bits())
    }

    /// The partition of `x` if it is a current-level set or a
    /// previous-level survivor.
    pub(crate) fn find(&self, x: AttrSet) -> Option<&Part> {
        self.prev_part(x).or_else(|| self.parts.get(&x.bits()))
    }

    /// Tests, in parallel, every candidate `X∖{A} → A` of the level that
    /// `found` does not cover: `test(scratch, fd, π_lhs, π_X)` runs with
    /// one [`PartitionScratch`] per worker, and its results come back
    /// grouped per set, in level order. The tests read only the
    /// level-start `found` — same-level LHSs have equal size and never
    /// cover each other — so a serial merge of the results afterwards is
    /// identical at every thread count.
    pub fn test_candidates<R: Send>(
        &self,
        found: &FoundLhs,
        test: impl Fn(&mut PartitionScratch, Fd, &StrippedPartition, &StrippedPartition) -> Option<R>
            + Sync,
    ) -> Vec<Vec<R>> {
        par_map_init(
            self.threads,
            &self.sets,
            PartitionScratch::new,
            |scratch, _, &x| {
                let px = &self.part(x).partition;
                x.iter()
                    .filter_map(|a| {
                        let lhs = x.without(a);
                        if found.covers(lhs, a) {
                            return None; // a smaller LHS already works
                        }
                        let p_lhs = self.prev_part(lhs)?;
                        test(scratch, Fd::new(lhs, a), &p_lhs.partition, px)
                    })
                    .collect()
            },
        )
    }

    /// Runs the walk to the end: level by level, `walker` visits the
    /// level, then — unless the level's LHSs (size ℓ−1) have reached
    /// `max_lhs` — picks the survivors the next level is joined from.
    pub fn walk<W: Walker>(mut self, max_lhs: Option<usize>, walker: &mut W) {
        while !self.sets.is_empty() {
            counter_add(Counter::TaneLatticeNodes, self.sets.len() as u64);
            walker.visit(&self);
            if max_lhs.is_some_and(|max| self.sets[0].len() > max) {
                break;
            }
            let survivors = walker.survivors(&self);
            let _span = W::GENERATE_SPAN.map(span);
            self.advance(&survivors);
        }
    }

    /// GENERATE_NEXT_LEVEL and the level shift: prefix-joins the
    /// survivors into the next level and keeps only their partitions.
    fn advance(&mut self, survivors: &[AttrSet]) {
        // A prefix block is a run of survivors that agree on all but
        // their largest attribute. The join emits each block's sets
        // contiguously and in ascending largest attribute, and survivors
        // keep level order, so blocks are runs of the survivor list and
        // each candidate P ∪ {b, c} comes from exactly one pair (P ∪ {b},
        // P ∪ {c}). A candidate is kept when all its |X|-1-subsets
        // survived.
        let survivor_bits: FxHashSet<u64> = survivors.iter().map(|s| s.bits()).collect();
        let prefix = |s: &AttrSet| s.without(s.iter().last().expect("non-empty set"));
        let mut candidates: Vec<(AttrSet, AttrSet, AttrSet)> = Vec::new();
        for block in survivors.chunk_by(|a, b| prefix(a) == prefix(b)) {
            for (i, &left) in block.iter().enumerate() {
                for &right in &block[i + 1..] {
                    let x = left.union(right);
                    if x.iter()
                        .all(|a| survivor_bits.contains(&x.without(a).bits()))
                    {
                        candidates.push((x, left, right));
                    }
                }
            }
        }
        let products: Vec<Part> = par_map_init(
            self.threads,
            &candidates,
            PartitionScratch::new,
            |scratch, _, &(_, left, right)| {
                Part::new(
                    self.part(left)
                        .partition
                        .product_with(&self.part(right).partition, scratch),
                )
            },
        );
        self.prev = survivors
            .iter()
            .filter_map(|s| self.parts.remove_entry(&s.bits()))
            .collect();
        self.sets = candidates.iter().map(|c| c.0).collect();
        self.parts = self.sets.iter().map(|x| x.bits()).zip(products).collect();
    }
}

/// The minimality filter of the approximate walkers: per consequent,
/// the LHSs emitted so far. Levels grow, so only a dependency emitted at
/// an earlier level can make a candidate non-minimal.
pub struct FoundLhs(Vec<Vec<AttrSet>>);

impl FoundLhs {
    /// An empty filter over `m` attributes.
    pub fn new(m: usize) -> Self {
        FoundLhs(vec![Vec::new(); m])
    }

    /// True when an emitted `Y → rhs` has `Y ⊆ lhs`.
    pub fn covers(&self, lhs: AttrSet, rhs: usize) -> bool {
        self.0[rhs].iter().any(|&y| y.is_subset_of(lhs))
    }

    /// Records an emitted dependency.
    pub fn insert(&mut self, fd: Fd) {
        self.0[fd.rhs].push(fd.lhs);
    }
}
