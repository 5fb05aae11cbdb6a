//! `perfbench` — the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` drives the shipped `dbmine`/`dbmined` binaries and
//! calls this program for the work that has to happen inside one
//! process:
//!
//! ```text
//! perfbench reference (KIND INPUT OUT)...     render::run_* output, one file per triple
//! perfbench setup-csv CSV REPS                CSV read + context build, REPS times
//! perfbench setup-spill CSV STORE REPS        CSV → .dbss spill, REPS times
//! perfbench replay KIND INPUT OUT             traced replay of one CLI command
//! perfbench replay-daemon REQUESTS OUT        traced replay of a daemon request log
//! ```
//!
//! `KIND` is one of `analyze`, `fds`, `approx`, `rfi`, `duplicates` and
//! `partition`, each with the defaults the CLI and the daemon share
//! (`approx` is `fds --approx 0.05 --max-lhs 3`, `rfi` is
//! `fds --score rfi --max-lhs 2`). `INPUT` is a CSV file or a `.dbss`
//! store, loaded the way the CLI loads it.
//!
//! The replay calls, in order and with the same arguments, the public
//! functions that the command's code path calls, each inside a
//! benchmark-owned telemetry span named `bench.<layer>`. The program's
//! own spans nest under those, so one span tree gives each layer's busy
//! time, the counter deltas around it, and the view builds hidden inside
//! it. Every command prints one JSON object on stdout.

use dbmine::context::{AnalysisCtx, CtxCache};
use dbmine::fdmine::{mine_fdep_ctx, mine_tane_ctx, minimum_cover, TaneOptions};
use dbmine::fdrank::{rad_ctx, rank_fds, rtr_ctx, ScoreKind};
use dbmine::ib::{assign_all_with, Dcf, MergeScratch};
use dbmine::limbo::{
    phase1_auto, phase2_with, phase3_with, tuple_dcfs_ctx, value_dcfs_with, LimboParams,
};
use dbmine::relation::{csv, ShardedRelation};
use dbmine::reliability::{mine_reliable_ctx, ReliableOptions, DEFAULT_THETA};
use dbmine::server::{parse, Daemon, Json, DEFAULT_CACHE_CAPACITY};
use dbmine::summaries::{
    group_attributes, suggest_k, DuplicateReport, TupleGroup, ValueClustering, ValueGroup,
};
use dbmine::telemetry::{self, Counter, ReportNode, RunReport};
use dbmine::{render, RankedDependency, StructureReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

// The same counting allocator the CLI and the daemon install, so the
// replay pays the same allocation cost as the commands it replays.
#[global_allocator]
static ALLOCATOR: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;

/// Command defaults shared by `dbmine` and `dbmined`.
const PHI_DUPLICATES: f64 = 0.1;
const PHI_PARTITION: f64 = 0.5;
const PARTITION_MAX_K: usize = 8;
const APPROX_EPS: f64 = 0.05;
const APPROX_MAX_LHS: usize = 3;
const RFI_MAX_LHS: usize = 2;
/// Commands run with `--threads 1`, the CLI default.
const THREADS: usize = 1;
/// `FdMiner::Auto`: FDEP up to this many tuples, TANE above.
const FDEP_MAX_TUPLES: usize = 2_000;
/// Request kinds of the daemon mix, in report order.
const KINDS: [&str; 6] = ["analyze", "fds", "approx", "rfi", "duplicates", "partition"];

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {msg}");
    exit(1);
}

fn main() {
    telemetry::alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        die("usage: perfbench reference|setup-csv|setup-spill|replay|replay-daemon ...")
    };
    let json = match (cmd.as_str(), rest) {
        ("reference", triples) if !triples.is_empty() && triples.len() % 3 == 0 => {
            for t in triples.chunks(3) {
                let out = reference(&t[0], &load(&t[1]));
                write_file(&t[2], &out);
            }
            "{}".to_string()
        }
        ("setup-csv", [csv_path, reps]) => times_json(parse_reps(reps), || {
            let rel = csv::read_relation_path(csv_path).unwrap_or_else(|e| die(e));
            std::hint::black_box(rel.distinct_value_count());
            std::hint::black_box(AnalysisCtx::from(rel));
        }),
        ("setup-spill", [csv_path, store, reps]) => times_json(parse_reps(reps), || {
            let s =
                ShardedRelation::scan_csv_path_spill(csv_path, 0, store).unwrap_or_else(|e| die(e));
            std::hint::black_box(s.n_chunks());
        }),
        ("replay", [kind, input, out]) => replay_command(kind, input, out),
        ("replay-daemon", [requests, out]) => replay_daemon(requests, out),
        _ => die(format!("bad arguments: {args:?}")),
    };
    println!("{json}");
}

fn parse_reps(s: &str) -> usize {
    s.parse()
        .unwrap_or_else(|_| die(format!("bad repetition count `{s}`")))
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
}

fn times_json(reps: usize, mut f: impl FnMut()) -> String {
    let times: Vec<String> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            format!("{}", t.elapsed().as_secs_f64())
        })
        .collect();
    format!("{{\"times_s\":[{}]}}", times.join(","))
}

/// The reference output: what `dbmine KIND` prints with default flags.
fn reference(kind: &str, ctx: &AnalysisCtx) -> String {
    match kind {
        "analyze" => render::run_analyze(ctx, &analyze_config()),
        "fds" => render::run_fds(ctx, None, None, THREADS, ScoreKind::G3, None),
        "approx" => render::run_fds(
            ctx,
            Some(APPROX_EPS),
            Some(APPROX_MAX_LHS),
            THREADS,
            ScoreKind::G3,
            None,
        ),
        "rfi" => render::run_fds(ctx, None, Some(RFI_MAX_LHS), THREADS, ScoreKind::Rfi, None),
        "duplicates" => render::run_duplicates(ctx, PHI_DUPLICATES, THREADS, None),
        "partition" => render::run_partition(ctx, PHI_PARTITION, None, THREADS, None),
        other => die(format!("unknown kind `{other}`")),
    }
}

fn analyze_config() -> dbmine::MinerConfig {
    render::analyze_config(None, None, None, None, THREADS, None, ScoreKind::G3)
}

/// Runs `f` inside the benchmark span of one layer.
fn call<R>(layer: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = telemetry::span(layer);
    f()
}

/// Tallies the replay keeps itself, for ratios the counters lack.
#[derive(Default)]
struct Tally {
    phase1_leaves: u64,
    phase3_objects: u64,
}

/// Loads `input` as the CLI's `load_input` does: a `.dbss` store
/// chunk-backed, a CSV into a resident relation. The layer spans cost
/// nothing outside a trace.
fn load(input: &str) -> AnalysisCtx {
    if input.ends_with(".dbss") {
        let store = call("bench.relation.store_open", || {
            let s = ShardedRelation::open_store(input).unwrap_or_else(|e| die(e));
            std::hint::black_box(s.dict().len());
            s
        });
        call("bench.context.views", || {
            AnalysisCtx::from_chunks(store).unwrap_or_else(|e| die(e))
        })
    } else {
        let rel = call("bench.relation.csv_read", || {
            let r = csv::read_relation_path(input).unwrap_or_else(|e| die(e));
            std::hint::black_box(r.distinct_value_count());
            r
        });
        call("bench.context.views", || AnalysisCtx::from(rel))
    }
}

/// Replays `render::run_*` for `kind` through its public layers.
fn replay_kind(kind: &str, ctx: &AnalysisCtx, tally: &mut Tally) -> String {
    match kind {
        "analyze" => replay_analyze(ctx, tally),
        "fds" => replay_tane(ctx),
        "approx" => replay_approx(ctx),
        "rfi" => replay_rfi(ctx),
        "duplicates" => replay_duplicates(ctx, tally),
        "partition" => replay_partition(ctx, tally),
        other => die(format!("unknown kind `{other}`")),
    }
}

fn limbo_params(phi: f64) -> LimboParams {
    LimboParams::with_phi(phi).threads(THREADS).shards(None)
}

/// `summaries::find_duplicate_tuples_ctx`.
fn duplicate_tuples(ctx: &AnalysisCtx, phi: f64, tally: &mut Tally) -> DuplicateReport {
    let params = limbo_params(phi);
    let objects = call("bench.limbo.objects", || tuple_dcfs_ctx(ctx, THREADS));
    let mi = call("bench.context.views", || ctx.tuple_mutual_information());
    let model = call("bench.limbo.phase1", || phase1_auto(&objects, mi, params));
    tally.phase1_leaves += model.leaves.len() as u64;
    let multi: Vec<Dcf> = model
        .leaves
        .iter()
        .filter(|d| d.count > 1)
        .cloned()
        .collect();
    let mut groups: Vec<TupleGroup> = multi
        .iter()
        .map(|d| TupleGroup {
            tuples: Vec::new(),
            losses: Vec::new(),
            summary_count: d.count,
        })
        .collect();
    if !multi.is_empty() {
        tally.phase3_objects += objects.len() as u64;
        let assignments = call("bench.ib.phase3", || {
            assign_all_with(objects.iter(), &multi, THREADS)
        });
        for (t, (idx, loss)) in assignments.into_iter().enumerate() {
            groups[idx].tuples.push(t);
            groups[idx].losses.push(loss);
        }
    }
    groups.retain(|g| g.tuples.len() >= 2);
    DuplicateReport {
        groups,
        threshold: model.threshold,
        n_summaries: model.leaves.len(),
    }
}

/// `summaries::cluster_values_ctx` without a tuple assignment.
fn cluster_values(ctx: &AnalysisCtx, phi: f64, tally: &mut Tally) -> ValueClustering {
    let params = limbo_params(phi);
    let index = call("bench.context.views", || ctx.value_index());
    let objects = call("bench.limbo.objects", || value_dcfs_with(index, THREADS));
    let mi = call("bench.context.views", || ctx.value_mutual_information());
    let model = call("bench.limbo.phase1", || phase1_auto(&objects, mi, params));
    tally.phase1_leaves += model.leaves.len() as u64;
    let mut member_lists: Vec<Vec<usize>> = vec![Vec::new(); model.leaves.len()];
    if !model.leaves.is_empty() {
        tally.phase3_objects += objects.len() as u64;
        let assignments = call("bench.ib.phase3", || {
            assign_all_with(objects.iter(), &model.leaves, THREADS)
        });
        for (i, (idx, _)) in assignments.into_iter().enumerate() {
            member_lists[idx].push(i);
        }
    }
    let mut groups: Vec<ValueGroup> = Vec::new();
    for members in member_lists.into_iter().filter(|m| !m.is_empty()) {
        let mut o_row = dbmine::infotheory::SparseDist::new();
        let mut tuples: Vec<u32> = Vec::new();
        for &i in &members {
            o_row.add_assign(index.o_row(i));
            tuples.extend_from_slice(index.occurrences(i));
        }
        tuples.sort_unstable();
        tuples.dedup();
        let tuple_support = tuples.len();
        let is_duplicate = tuple_support >= 2 && o_row.support() >= 2;
        groups.push(ValueGroup {
            values: members.iter().map(|&i| index.value_id(i)).collect(),
            o_row,
            tuple_support,
            is_duplicate,
        });
    }
    groups.sort_by(|a, b| {
        b.is_duplicate
            .cmp(&a.is_duplicate)
            .then(b.tuple_support.cmp(&a.tuple_support))
            .then(a.values.cmp(&b.values))
    });
    ValueClustering {
        groups,
        threshold: model.threshold,
    }
}

/// `render::run_analyze` = `StructureMiner::analyze_ctx` + `render_with`.
fn replay_analyze(ctx: &AnalysisCtx, tally: &mut Tally) -> String {
    let config = analyze_config();
    let columns = call("bench.context.views", || ctx.column_profiles().to_vec());
    let duplicate_tuples = duplicate_tuples(ctx, config.phi_tuples, tally);
    let value_groups = cluster_values(ctx, config.phi_values, tally);
    let attribute_grouping = call("bench.summaries.group_attributes", || {
        group_attributes(&value_groups, ctx.n_attrs())
    });
    let fds = if ctx.n_tuples() <= FDEP_MAX_TUPLES {
        call("bench.fdmine.fdep", || mine_fdep_ctx(ctx))
    } else {
        call("bench.fdmine.tane", || {
            mine_tane_ctx(
                ctx,
                TaneOptions {
                    max_lhs: config.max_lhs,
                    threads: THREADS,
                },
            )
        })
    };
    let cover = call("bench.fdmine.cover", || minimum_cover(&fds));
    let ranked = call("bench.fdrank.rank", || {
        rank_fds(&cover, &attribute_grouping, config.psi)
            .into_iter()
            .map(|fd| {
                let attrs = fd.attrs();
                RankedDependency {
                    rad: rad_ctx(ctx, attrs),
                    rtr: rtr_ctx(ctx, attrs),
                    rfi: None,
                    fd,
                }
            })
            .collect()
    });
    let report = StructureReport {
        columns,
        duplicate_tuples,
        value_groups,
        attribute_grouping,
        fds,
        cover,
        ranked,
    };
    call("bench.core.render", || {
        report.render_with(ctx.attr_names(), ctx.dict())
    })
}

/// `render::run_fds` in exact (TANE) mode.
fn replay_tane(ctx: &AnalysisCtx) -> String {
    let fds = call("bench.fdmine.tane", || {
        mine_tane_ctx(
            ctx,
            TaneOptions {
                max_lhs: None,
                threads: THREADS,
            },
        )
    });
    let cover = call("bench.fdmine.cover", || minimum_cover(&fds));
    call("bench.core.render", || {
        let names = ctx.attr_names();
        let mut out = String::new();
        writeln!(
            out,
            "exact minimal dependencies: {} (cover: {})",
            fds.len(),
            cover.len()
        )
        .expect("write to String");
        for f in cover.iter().take(30) {
            writeln!(out, "  {}", f.display(names)).expect("write to String");
        }
        out
    })
}

/// `render::run_fds` in approximate (g3) mode.
fn replay_approx(ctx: &AnalysisCtx) -> String {
    let approx = call("bench.fdmine.approx", || {
        dbmine::fdmine::mine_approximate_ctx(ctx, APPROX_EPS, Some(APPROX_MAX_LHS), THREADS)
    });
    call("bench.core.render", || {
        let names = ctx.attr_names();
        let mut out = String::new();
        writeln!(
            out,
            "approximate dependencies (g3 ≤ {APPROX_EPS}): {}",
            approx.len()
        )
        .expect("write to String");
        let mut sorted = approx;
        sorted.sort_by(|a, b| a.error.total_cmp(&b.error));
        for f in sorted.iter().take(30) {
            writeln!(out, "  {:<44} g3 = {:.4}", f.fd.display(names), f.error)
                .expect("write to String");
        }
        out
    })
}

/// `render::run_fds` in reliable (`score = rfi`) mode.
fn replay_rfi(ctx: &AnalysisCtx) -> String {
    let theta = DEFAULT_THETA;
    let mut reliable = call("bench.reliability.mine", || {
        mine_reliable_ctx(
            ctx,
            ReliableOptions {
                theta,
                max_lhs: Some(RFI_MAX_LHS),
                threads: THREADS,
                prune: true,
            },
        )
    });
    call("bench.core.render", || {
        let names = ctx.attr_names();
        let mut out = String::new();
        writeln!(
            out,
            "reliable dependencies (F̂ ≥ {theta}): {}",
            reliable.len()
        )
        .expect("write to String");
        reliable.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
        for f in reliable.iter().take(30) {
            writeln!(
                out,
                "  {:<44} F̂ = {:.4}  (plugin {:.4} − bias {:.4})  g3 = {:.4}",
                f.fd.display(names),
                f.score,
                f.plugin,
                f.bias,
                f.g3
            )
            .expect("write to String");
        }
        out
    })
}

/// `render::run_duplicates`.
fn replay_duplicates(ctx: &AnalysisCtx, tally: &mut Tally) -> String {
    let report = duplicate_tuples(ctx, PHI_DUPLICATES, tally);
    call("bench.core.render", || {
        let rel = ctx.relation();
        let mut out = String::new();
        writeln!(
            out,
            "φT = {PHI_DUPLICATES}: {} candidate groups (threshold τ = {:.3e})",
            report.groups.len(),
            report.threshold
        )
        .expect("write to String");
        for (i, g) in report.groups.iter().enumerate() {
            writeln!(out, "\ngroup {} ({} tuples):", i + 1, g.tuples.len())
                .expect("write to String");
            for (&t, &loss) in g.tuples.iter().zip(&g.losses).take(8) {
                let preview: Vec<&str> = (0..rel.n_attrs().min(6))
                    .map(|a| rel.value_str(t, a))
                    .collect();
                writeln!(out, "  t{t:<6} loss={loss:.4}  {}", preview.join(" | "))
                    .expect("write to String");
            }
        }
        out
    })
}

/// `render::run_partition` = `summaries::horizontal_partition_ctx` + text.
fn replay_partition(ctx: &AnalysisCtx, tally: &mut Tally) -> String {
    let params = limbo_params(PHI_PARTITION);
    let objects = call("bench.limbo.objects", || tuple_dcfs_ctx(ctx, THREADS));
    let mi = call("bench.context.views", || ctx.tuple_mutual_information());
    let model = call("bench.limbo.phase1", || phase1_auto(&objects, mi, params));
    let n_summaries = model.leaves.len();
    tally.phase1_leaves += n_summaries as u64;
    let full = call("bench.ib.phase2", || phase2_with(&model, 1, THREADS));
    let chosen_k = suggest_k(&full.stats, PARTITION_MAX_K).clamp(1, n_summaries.max(1));
    let clustering = call("bench.ib.phase2", || phase2_with(&model, chosen_k, THREADS));
    tally.phase3_objects += objects.len() as u64;
    let assignments = call("bench.ib.phase3", || {
        phase3_with(objects.iter(), &clustering, THREADS)
    });
    let mut partitions = vec![Vec::new(); clustering.clusters.len()];
    for (t, &(c, _)) in assignments.iter().enumerate() {
        partitions[c].push(t);
    }
    let mut merge_scratch = MergeScratch::new();
    let cluster_dcfs: Vec<Dcf> = partitions
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| {
            let mut it = p.iter();
            let mut dcf = objects[*it.next().expect("non-empty partition")].clone();
            for &t in it {
                dcf.merge_in_place(&objects[t], &mut merge_scratch);
            }
            dcf
        })
        .collect();
    let rows: Vec<_> = cluster_dcfs.iter().map(|c| (c.weight, &c.cond)).collect();
    let mi_clustered = dbmine::infotheory::mutual_information(rows.iter().copied());
    let relative_loss = if mi > 0.0 {
        (1.0 - mi_clustered / mi).max(0.0)
    } else {
        0.0
    };
    partitions.retain(|p| !p.is_empty());
    partitions.sort_by_key(|p| std::cmp::Reverse(p.len()));
    call("bench.core.render", || {
        let rel = ctx.relation();
        let mut out = String::new();
        writeln!(
            out,
            "k = {} ({} Phase 1 summaries); information retained by clusters: {:.1}%",
            chosen_k,
            n_summaries,
            100.0 * (1.0 - relative_loss)
        )
        .expect("write to String");
        for (i, tuples) in partitions.iter().enumerate() {
            writeln!(
                out,
                "\npartition {} — {} tuples; sample:",
                i + 1,
                tuples.len()
            )
            .expect("write to String");
            for &t in tuples.iter().take(3) {
                let preview: Vec<&str> = (0..rel.n_attrs().min(6))
                    .map(|a| rel.value_str(t, a))
                    .collect();
                writeln!(out, "  {}", preview.join(" | ")).expect("write to String");
            }
        }
        out
    })
}

/// `replay KIND INPUT OUT`: one traced CLI command. Writes the rendered
/// output to `OUT` and prints the layer metrics.
fn replay_command(kind: &str, input: &str, out: &str) -> String {
    let mut tally = Tally::default();
    telemetry::begin();
    let rendered = {
        let ctx = load(input);
        replay_kind(kind, &ctx, &mut tally)
    };
    let report = telemetry::finish();
    write_file(out, &rendered);
    let mut m = layer_metrics(&report, &tally, 1.0);
    m.insert("trace.wall_ms".into(), report.wall_ms);
    to_json(&m)
}

/// `replay-daemon REQUESTS OUT`: replays a daemon request log, one JSON
/// request per line in the order the daemon received them. Pass 1 sends
/// each line through an in-process [`Daemon::handle_line`] (timed per
/// request kind); pass 2 replays each request through its public layers
/// under one trace. `OUT` gets one JSON array `[handle_output,
/// replay_output]` per request.
fn replay_daemon(requests: &str, out: &str) -> String {
    let text = std::fs::read_to_string(requests)
        .unwrap_or_else(|e| die(format!("cannot read {requests}: {e}")));
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let parsed: Vec<(&str, String, bool)> = lines.iter().map(|l| request_kind(l)).collect();

    let daemon = Daemon::new(DEFAULT_CACHE_CAPACITY);
    let mut handle_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut handled = Vec::with_capacity(lines.len());
    for (line, (kind, _, profiled)) in lines.iter().zip(&parsed) {
        let t = Instant::now();
        let reply = daemon.handle_line(line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let key = if *profiled { "profiled" } else { kind };
        handle_ms.entry(key).or_default().push(ms);
        let v = parse(&reply.line).unwrap_or_else(|e| die(format!("bad reply: {e}")));
        if v.get("ok") != Some(&Json::Bool(true)) {
            die(format!("request failed in process: {}", reply.line));
        }
        let output = v.get("output").and_then(Json::as_str).unwrap_or_default();
        handled.push(output.to_string());
    }
    let pass1_ms: f64 = handle_ms.values().flatten().sum();

    let cache = CtxCache::new(DEFAULT_CACHE_CAPACITY);
    let mut tally = Tally::default();
    let mut pairs = String::new();
    telemetry::begin();
    for ((kind, path, _), handle_out) in parsed.iter().zip(&handled) {
        // `Request::load_relation` + `CtxCache::get_or_insert_relation`.
        let rel = call("bench.relation.csv_read", || {
            csv::read_relation_path(path).unwrap_or_else(|e| die(e))
        });
        let ctx = call("bench.context.views", || {
            std::hint::black_box(rel.content_hash());
            cache.get_or_insert_relation(rel).0
        });
        let rendered = replay_kind(kind, &ctx, &mut tally);
        writeln!(
            pairs,
            "[{},{}]",
            Json::Str(handle_out.clone()).to_string_compact(),
            Json::Str(rendered).to_string_compact()
        )
        .expect("write to String");
    }
    let report = telemetry::finish();
    write_file(out, &pairs);

    let n = parsed.len().max(1) as f64;
    let mut m = layer_metrics(&report, &tally, 1.0 / n);
    for kind in KINDS.iter().chain(&["profiled"]) {
        let p50 = handle_ms.get(kind).map_or(0.0, |v| median(v));
        m.insert(format!("server.handle_ms.{kind}"), p50);
    }
    m.insert(
        "trace.overhead_frac".into(),
        report.wall_ms / pass1_ms.max(1e-9) - 1.0,
    );
    to_json(&m)
}

/// `(kind, path, profiled)` of one request line of the daemon mix.
fn request_kind(line: &str) -> (&'static str, String, bool) {
    let v = parse(line).unwrap_or_else(|e| die(format!("bad request `{line}`: {e}")));
    let cmd = v.get("cmd").and_then(Json::as_str).unwrap_or_default();
    let path = v.get("path").and_then(Json::as_str).unwrap_or_default();
    let kind = match cmd {
        "fds" if v.get("approx").is_some() => "approx",
        "fds" if v.get("score").and_then(Json::as_str) == Some("rfi") => "rfi",
        other => other,
    };
    let kind = KINDS
        .into_iter()
        .find(|k| *k == kind)
        .unwrap_or_else(|| die(format!("request kind `{kind}` is not in the mix")));
    let profiled = v.get("profile") == Some(&Json::Bool(true));
    (kind, path.to_string(), profiled)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Time spent building views inside `node`: the outermost `ctx.*` spans
/// of its subtree.
fn view_build_ms(node: &ReportNode) -> f64 {
    node.children
        .iter()
        .map(|c| {
            if c.name.starts_with("ctx.") {
                c.total_ms
            } else {
                view_build_ms(c)
            }
        })
        .sum()
}

/// Summed `total_ms` of every node named `name` in the subtree.
fn named_ms(node: &ReportNode, name: &str) -> f64 {
    if node.name == name {
        return node.total_ms;
    }
    node.children.iter().map(|c| named_ms(c, name)).sum()
}

/// The per-layer metrics of one traced replay. Each `bench.<layer>` root
/// gives `<layer>_ms` less the view builds nested in it, which go to
/// `context.views_ms`; counts are counter deltas inside the layer's
/// spans. `scale` turns totals into per-request figures.
fn layer_metrics(report: &RunReport, tally: &Tally, scale: f64) -> BTreeMap<String, f64> {
    const LAYERS: [&str; 15] = [
        "relation.csv_read",
        "relation.store_open",
        "context.views",
        "limbo.objects",
        "limbo.phase1",
        "ib.phase3",
        "ib.phase2",
        "summaries.group_attributes",
        "fdmine.tane",
        "fdmine.cover",
        "fdmine.fdep",
        "fdmine.approx",
        "reliability.mine",
        "fdrank.rank",
        "core.render",
    ];
    let mut ms: BTreeMap<&str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    let mut counts: BTreeMap<(&str, Counter), u64> = BTreeMap::new();
    let mut covered = 0.0;
    let mut views_nested = 0.0;
    let mut aib_repair = 0.0;
    for root in &report.roots {
        let Some(layer) = root.name.strip_prefix("bench.") else {
            continue;
        };
        let layer = *LAYERS
            .iter()
            .find(|l| **l == layer)
            .unwrap_or_else(|| die(format!("unlisted layer {layer}")));
        covered += root.total_ms;
        let nested = if layer == "context.views" {
            0.0
        } else {
            view_build_ms(root)
        };
        views_nested += nested;
        *ms.get_mut(layer).expect("listed layer") += root.total_ms - nested;
        aib_repair += named_ms(root, "aib.repair");
        for c in telemetry::COUNTERS {
            *counts.entry((layer, c)).or_default() += root.counters.get(c);
        }
    }
    *ms.get_mut("context.views").expect("listed layer") += views_nested;
    let count = |layer: &str, c: Counter| counts.get(&(layer, c)).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m = BTreeMap::new();
    for (layer, v) in &ms {
        m.insert(format!("{layer}_ms"), v * scale);
    }
    let total = |c: Counter| report.counters.get(c) as f64;
    m.insert(
        "context.view_builds".into(),
        total(Counter::ViewBuilds) * scale,
    );
    m.insert(
        "context.materializations".into(),
        total(Counter::CtxMaterializations) * scale,
    );
    m.insert(
        "limbo.phase1_leaves".into(),
        tally.phase1_leaves as f64 * scale,
    );
    m.insert(
        "limbo.dcf_merges".into(),
        count("limbo.phase1", Counter::DcfMerges) * scale,
    );
    m.insert(
        "limbo.tree_splits".into(),
        count("limbo.phase1", Counter::TreeSplits) * scale,
    );
    let p3_js = count("ib.phase3", Counter::JsEvals);
    m.insert("ib.phase3_js_evals".into(), p3_js * scale);
    m.insert(
        "ib.phase3_js_per_object".into(),
        ratio(p3_js, tally.phase3_objects as f64),
    );
    m.insert(
        "ib.aib_js_evals".into(),
        count("ib.phase2", Counter::JsEvals) * scale,
    );
    let nn_hits = count("ib.phase2", Counter::NnCacheHits);
    m.insert(
        "ib.aib_nn_hit_frac".into(),
        ratio(
            nn_hits,
            nn_hits + count("ib.phase2", Counter::NnCacheMisses),
        ),
    );
    m.insert("ib.aib_repair_ms".into(), aib_repair * scale);
    let products = count("fdmine.tane", Counter::PartitionProducts);
    m.insert("fdmine.partition_products".into(), products * scale);
    m.insert(
        "fdmine.lattice_nodes".into(),
        count("fdmine.tane", Counter::TaneLatticeNodes) * scale,
    );
    m.insert(
        "fdmine.ms_per_product".into(),
        ratio(ms["fdmine.tane"], products),
    );
    m.insert(
        "reliability.rfi_evals".into(),
        count("reliability.mine", Counter::RfiEvals) * scale,
    );
    m.insert(
        "reliability.bnb_prune_frac".into(),
        ratio(
            count("reliability.mine", Counter::BnbPrunes),
            count("reliability.mine", Counter::BnbBounds),
        ),
    );
    m.insert("trace.coverage_frac".into(), ratio(covered, report.wall_ms));
    m
}

fn to_json(m: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\":{v}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}
