//! Golden bit-identity test for the three levelwise lattice walks: exact
//! TANE, g3-approximate mining and reliable (F̂) mining.
//!
//! Every walk runs over a fixed corpus (the paper's figures 1/4/5, the
//! DB2 sample, a seeded 2 000-tuple DBLP relation and 30 seeded random
//! relations) and its output is rendered to text: the FD lists, and the
//! `f64::to_bits` of every g3 error and every F̂ `score`/`plugin`/`bias`/
//! `g3`. The rendering must match `tests/golden/lattice_walks.txt`
//! exactly, so any change to candidate generation, pruning, scoring or
//! emission order shows up as a diff.
//!
//! Set `DBMINE_BLESS_GOLDEN=1` to rewrite the expected file instead of
//! comparing against it.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::fdmine::{mine_approximate_ctx, mine_tane_ctx, Fd, TaneOptions};
use dbmine::relation::paper::{figure1, figure4, figure5};
use dbmine::relation::{csv::read_relation_path, Relation, RelationBuilder};
use dbmine::reliability::{mine_reliable_ctx, ReliableOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Seeded random relations: 2–6 attributes, small domains and some
/// NULL cells, so keys, constants and approximate FDs all occur.
fn random_relations() -> Vec<Relation> {
    let mut rng = StdRng::seed_from_u64(0x01a7_71ce);
    (0..30)
        .map(|i| {
            let m = rng.gen_range(2..=6);
            let n = rng.gen_range(2..=40);
            let domain = rng.gen_range(1..=5);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new(&format!("random{i}"), &refs);
            for _ in 0..n {
                let row: Vec<Option<String>> = (0..m)
                    .map(|a| {
                        (rng.gen_range(0..10) != 0)
                            .then(|| format!("v{a}_{}", rng.gen_range(0..domain)))
                    })
                    .collect();
                let cells: Vec<Option<&str>> = row.iter().map(Option::as_deref).collect();
                b.push_row(&cells);
            }
            b.build()
        })
        .collect()
}

/// The corpus with the LHS bound used for its g3 and F̂ walks: the
/// 19-attribute DB2 sample and the DBLP relation are bounded so the
/// unpruned walks stay small; everything else runs unbounded.
fn corpus() -> Vec<(Relation, Option<usize>)> {
    let mut out = vec![(figure1(), None), (figure4(), None), (figure5(), None)];
    out.push((
        read_relation_path(repo_path("results/db2_sample.csv")).expect("read the DB2 sample"),
        Some(2),
    ));
    out.push((dblp_sample(&DblpSpec::scaled(2_000, 7)), Some(3)));
    out.extend(random_relations().into_iter().map(|r| (r, None)));
    out
}

fn fd_text(fd: &Fd) -> String {
    let lhs: Vec<String> = fd.lhs.iter().map(|a| a.to_string()).collect();
    format!("[{}]->{}", lhs.join(","), fd.rhs)
}

fn render_corpus() -> String {
    let mut out = String::new();
    for (rel, bound) in corpus() {
        let ctx = AnalysisCtx::of(&rel);
        let name = rel.name();
        for max_lhs in [None, Some(2)] {
            let fds = mine_tane_ctx(
                &ctx,
                TaneOptions {
                    max_lhs,
                    threads: 1,
                },
            );
            let _ = writeln!(out, "## {name} tane max_lhs={max_lhs:?}: {}", fds.len());
            for fd in &fds {
                let _ = writeln!(out, "{}", fd_text(fd));
            }
        }
        for eps in [0.0, 0.05, 0.2] {
            let fds = mine_approximate_ctx(&ctx, eps, bound, 1);
            let _ = writeln!(
                out,
                "## {name} approx eps={eps} max_lhs={bound:?}: {}",
                fds.len()
            );
            for f in &fds {
                let _ = writeln!(out, "{} g3={:016x}", fd_text(&f.fd), f.error.to_bits());
            }
        }
        for theta in [0.1, 0.6, 0.9] {
            for prune in [true, false] {
                let fds = mine_reliable_ctx(
                    &ctx,
                    ReliableOptions {
                        theta,
                        max_lhs: bound,
                        threads: 1,
                        prune,
                    },
                );
                let _ = writeln!(
                    out,
                    "## {name} reliable theta={theta} prune={prune} max_lhs={bound:?}: {}",
                    fds.len()
                );
                for f in &fds {
                    let _ = writeln!(
                        out,
                        "{} score={:016x} plugin={:016x} bias={:016x} g3={:016x}",
                        fd_text(&f.fd),
                        f.score.to_bits(),
                        f.plugin.to_bits(),
                        f.bias.to_bits(),
                        f.g3.to_bits()
                    );
                }
            }
        }
    }
    out
}

#[test]
fn lattice_walks_match_the_golden_file() {
    let path = repo_path("tests/golden/lattice_walks.txt");
    let fresh = render_corpus();
    if std::env::var_os("DBMINE_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &fresh).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read the golden file");
    if fresh != expected {
        let first = fresh
            .lines()
            .zip(expected.lines())
            .position(|(f, e)| f != e)
            .unwrap_or_else(|| fresh.lines().count().min(expected.lines().count()));
        panic!(
            "lattice walks drifted from {} at line {}:\n  expected: {:?}\n  fresh:    {:?}",
            path.display(),
            first + 1,
            expected.lines().nth(first),
            fresh.lines().nth(first)
        );
    }
}
