//! `dbmined` — the serving daemon behind the single-shot CLI.
//!
//! A [`Daemon`] answers a line-delimited JSON protocol: one request
//! object per line in, one response object per line out. Relations are
//! loaded per request (from a CSV `path` or inline `csv` text), keyed by
//! [`Relation::content_hash`], and resolved through a shared
//! [`CtxCache`] LRU of `Arc<AnalysisCtx>` — so repeated requests against
//! the same relation reuse every memoized view (tuple rows, value index,
//! partitions) and perform **zero** view rebuilds, which each response
//! proves by echoing the context's cumulative `view_stats`.
//!
//! ## Protocol
//!
//! Request fields (all except `cmd` optional):
//!
//! ```json
//! {"id": 1, "cmd": "analyze", "path": "data.csv",
//!  "phi_t": 0.1, "phi_v": 0.0, "psi": 0.5, "threads": 2, "shards": 4,
//!  "max_lhs": 3, "approx": 0.05, "k": 4, "steps": 3,
//!  "score": "g3", "theta": 0.2,
//!  "csv": "A,B\n1,2\n", "name": "inline", "profile": false}
//! ```
//!
//! `score` selects the FD quality measure (`"g3"`, the default, or
//! `"rfi"` — the bias-corrected reliable fraction of information):
//! `fds` with `"score":"rfi"` mines reliable dependencies at `F̂ ≥
//! theta` (default 0.2) instead of exact/approximate ones, and
//! `analyze`/`redesign` re-rank FD-RANK output by F̂. `approx` and
//! `"score":"rfi"` are mutually exclusive.
//!
//! Commands: `analyze`, `duplicates`, `fds`, `partition`, `redesign`
//! (relation commands — `output` is byte-identical to the CLI's stdout),
//! plus `ping`, `stats` and `shutdown`. Unknown fields, malformed JSON,
//! unreadable CSV, and out-of-range parameters all produce
//! `{"id":…,"ok":false,"error":"…"}` — the daemon never tears down on a
//! bad request, and a panic on the request path is caught and reported
//! as an error response (backstop; the handlers are panic-free by
//! construction).
//!
//! `"profile": true` wraps the request in a telemetry window and embeds
//! the [`RunReport`] (compact single-line layout, same schema as
//! `--profile`) in the response. Telemetry collection is process-global,
//! so profiled requests take a write lock on the daemon while normal
//! requests share a read lock: a profiled window never includes another
//! request's spans.

mod json;

pub use json::{parse, Json, ParseError};

use crate::render;
use crate::MinerConfig;
use dbmine_context::{AnalysisCtx, CtxCache, CtxCacheStats};
use dbmine_fdrank::ScoreKind;
use dbmine_relation::csv::{read_relation, read_relation_path};
use dbmine_relation::Relation;
use dbmine_telemetry as telemetry;
use dbmine_telemetry::RunReport;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// Default number of resident contexts.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

/// One handled request: the response line (no trailing newline) and
/// whether the request asked the daemon to shut down.
#[derive(Clone, Debug)]
pub struct Handled {
    pub line: String,
    pub shutdown: bool,
}

/// The daemon state shared by every connection: the context LRU and the
/// profiling gate.
pub struct Daemon {
    cache: CtxCache,
    /// Read = normal request, write = profiled request (telemetry
    /// begin/finish is process-global; see the module docs).
    profile_gate: RwLock<()>,
    shutdown: AtomicBool,
}

impl Daemon {
    /// A daemon holding at most `capacity` contexts.
    pub fn new(capacity: usize) -> Self {
        Daemon {
            cache: CtxCache::new(capacity),
            profile_gate: RwLock::new(()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The shared context cache (exposed for tests and stats).
    pub fn cache(&self) -> &CtxCache {
        &self.cache
    }

    /// True once a `shutdown` request has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request line, returning exactly one response line.
    /// Never panics: every failure mode is an `"ok":false` response.
    pub fn handle_line(&self, line: &str) -> Handled {
        let (id, result) = match parse(line) {
            Err(e) => (Json::Null, Err(e.to_string())),
            Ok(v) => {
                let id = v.get("id").cloned().unwrap_or(Json::Null);
                match Request::from_json(&v) {
                    Err(e) => (id, Err(e)),
                    Ok(req) => {
                        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(&req)));
                        let res = match outcome {
                            Ok(r) => r,
                            Err(payload) => Err(format!(
                                "internal error: request handler panicked: {}",
                                panic_message(&payload)
                            )),
                        };
                        (id, res)
                    }
                }
            }
        };
        match result {
            Ok(body) => {
                let shutdown = body.shutdown;
                if shutdown {
                    self.shutdown.store(true, Ordering::SeqCst);
                }
                Handled {
                    line: body.into_line(&id),
                    shutdown,
                }
            }
            Err(message) => Handled {
                line: format!(
                    "{{\"id\":{},\"ok\":false,\"error\":\"{}\"}}",
                    id.to_string_compact(),
                    json::escape(&message)
                ),
                shutdown: false,
            },
        }
    }

    /// Serves a whole connection: one request per line until EOF or a
    /// `shutdown` request. Blank lines are ignored.
    pub fn serve_lines(&self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            // One write per reply: a reply split across two writes (line,
            // then newline) leaves the newline stuck behind Nagle's
            // algorithm on a TCP stream until the client's delayed ACK.
            let mut handled = self.handle_line(&line);
            handled.line.push('\n');
            output.write_all(handled.line.as_bytes())?;
            output.flush()?;
            if handled.shutdown {
                break;
            }
        }
        Ok(())
    }

    fn dispatch(&self, req: &Request) -> Result<Body, String> {
        match req.cmd.as_str() {
            "ping" => Ok(Body::plain(&req.cmd, "pong")),
            "stats" => Ok(Body {
                ctx_cache: Some(self.cache.stats()),
                ..Body::plain(&req.cmd, "ok")
            }),
            "shutdown" => Ok(Body {
                shutdown: true,
                ..Body::plain(&req.cmd, "bye")
            }),
            "analyze" | "duplicates" | "fds" | "partition" | "redesign" => {
                if req.profile {
                    let _gate = self.profile_gate.write().unwrap_or_else(|e| e.into_inner());
                    telemetry::begin();
                    let result = self.run_relation_cmd(req);
                    let report = telemetry::finish();
                    result.map(|mut body| {
                        body.report = Some(report);
                        body
                    })
                } else {
                    let _gate = self.profile_gate.read().unwrap_or_else(|e| e.into_inner());
                    self.run_relation_cmd(req)
                }
            }
            other => Err(format!("unknown command `{other}`")),
        }
    }

    fn run_relation_cmd(&self, req: &Request) -> Result<Body, String> {
        let _span = span_for(&req.cmd);
        let (name, tuples, attrs, hash, ctx, cached) = if let Some(path) = req.store_path() {
            // Store-backed relation: the footer read is cheap metadata
            // validation, and the LRU key is the *stored* content hash —
            // a warm hit (including one warmed by a CSV request over the
            // same content) never decodes a single block. A cold miss
            // admits a *chunk-backed* context: views stream from the
            // store on demand and the relation is never materialized,
            // so admission itself decodes nothing either.
            let store = dbmine_relation::ShardedRelation::open_store(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            if store.n_attrs() == 0 {
                return Err("relation has no columns".to_string());
            }
            if store.n_tuples() == 0 {
                return Err("relation has no rows".to_string());
            }
            let hash = store.content_hash();
            let (name, tuples, attrs) =
                (store.name().to_string(), store.n_tuples(), store.n_attrs());
            let (ctx, cached) = self.cache.get_or_insert_with(hash, || {
                AnalysisCtx::from_chunks(store).map_err(|e| format!("cannot read {path}: {e}"))
            })?;
            (name, tuples, attrs, hash, ctx, cached)
        } else {
            let rel = req.load_relation()?;
            let hash = rel.content_hash();
            let (name, tuples, attrs) = (rel.name().to_string(), rel.n_tuples(), rel.n_attrs());
            let (ctx, cached) = self.cache.get_or_insert_relation(rel);
            (name, tuples, attrs, hash, ctx, cached)
        };
        let output = run_command(req, &ctx)?;
        Ok(Body {
            cmd: req.cmd.clone(),
            relation: Some(RelationInfo {
                name,
                tuples,
                attrs,
                content_hash: hash,
            }),
            cached: Some(cached),
            output,
            view_stats: Some(ctx.view_stats()),
            ctx_cache: Some(self.cache.stats()),
            report: None,
            shutdown: false,
        })
    }
}

/// The per-command telemetry root span. Names are static so the span
/// skeleton gate can pin the daemon's request shape.
fn span_for(cmd: &str) -> telemetry::Span {
    match cmd {
        "analyze" => telemetry::span("serve.analyze"),
        "duplicates" => telemetry::span("serve.duplicates"),
        "fds" => telemetry::span("serve.fds"),
        "partition" => telemetry::span("serve.partition"),
        "redesign" => telemetry::span("serve.redesign"),
        _ => telemetry::span("serve.other"),
    }
}

fn run_command(req: &Request, ctx: &AnalysisCtx) -> Result<String, String> {
    Ok(match req.cmd.as_str() {
        "analyze" => render::run_analyze(
            ctx,
            &render::analyze_config(
                req.phi_t,
                req.phi_v,
                req.psi,
                req.max_lhs,
                req.threads,
                req.shards,
                req.score,
            ),
        ),
        "duplicates" => {
            render::run_duplicates(ctx, req.phi_t.unwrap_or(0.1), req.threads, req.shards)
        }
        "fds" => render::run_fds(
            ctx,
            req.approx,
            req.max_lhs,
            req.threads,
            req.score,
            req.theta,
        ),
        "partition" => render::run_partition(
            ctx,
            req.phi_t.unwrap_or(0.5),
            req.k,
            req.threads,
            req.shards,
        ),
        "redesign" => {
            let config = MinerConfig {
                phi_tuples: req.phi_t.unwrap_or(0.0),
                phi_values: req.phi_v.unwrap_or(0.0),
                psi: req.psi.unwrap_or(0.5),
                threads: req.threads,
                shards: req.shards,
                score: req.score,
                ..MinerConfig::default()
            };
            render::run_redesign(ctx, req.steps, &config)
        }
        other => return Err(format!("unknown command `{other}`")),
    })
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// A parsed, validated request.
#[derive(Clone, Debug)]
struct Request {
    cmd: String,
    path: Option<String>,
    csv: Option<String>,
    name: Option<String>,
    phi_t: Option<f64>,
    phi_v: Option<f64>,
    psi: Option<f64>,
    threads: usize,
    shards: Option<usize>,
    max_lhs: Option<usize>,
    approx: Option<f64>,
    k: Option<usize>,
    steps: usize,
    score: ScoreKind,
    theta: Option<f64>,
    profile: bool,
}

const KNOWN_FIELDS: &[&str] = &[
    "id", "cmd", "path", "csv", "name", "phi_t", "phi_v", "psi", "threads", "shards", "max_lhs",
    "approx", "k", "steps", "score", "theta", "profile",
];

impl Request {
    fn from_json(v: &Json) -> Result<Request, String> {
        let Json::Obj(map) = v else {
            return Err("request must be a JSON object".to_string());
        };
        for key in map.keys() {
            if !KNOWN_FIELDS.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}`"));
            }
        }
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing required field `cmd` (string)")?
            .to_string();
        let str_field = |key: &str| -> Result<Option<String>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("field `{key}` must be a string")),
            }
        };
        let num_field = |key: &str| -> Result<Option<f64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => {
                    let n = j
                        .as_f64()
                        .ok_or_else(|| format!("field `{key}` must be a number"))?;
                    if !n.is_finite() {
                        return Err(format!("field `{key}` must be finite"));
                    }
                    Ok(Some(n))
                }
            }
        };
        let usize_field = |key: &str| -> Result<Option<usize>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
            }
        };

        let path = str_field("path")?;
        let csv = str_field("csv")?;
        let name = str_field("name")?;
        if name.is_some() && csv.is_none() {
            return Err("field `name` is only valid with inline `csv`".to_string());
        }
        let phi_t = num_field("phi_t")?;
        let phi_v = num_field("phi_v")?;
        for (key, value) in [("phi_t", phi_t), ("phi_v", phi_v)] {
            if let Some(p) = value {
                if p < 0.0 {
                    return Err(format!("field `{key}` must be ≥ 0"));
                }
            }
        }
        let psi = num_field("psi")?;
        if let Some(p) = psi {
            if !(0.0..=1.0).contains(&p) {
                return Err("field `psi` must be in [0, 1]".to_string());
            }
        }
        let approx = num_field("approx")?;
        if approx.is_some_and(|e| !(0.0..1.0).contains(&e)) {
            return Err("field `approx` must be ≥ 0 and < 1".to_string());
        }
        let score = match v.get("score") {
            None => ScoreKind::default(),
            Some(Json::Str(s)) => s
                .parse::<ScoreKind>()
                .map_err(|_| "field `score` must be `g3` or `rfi`".to_string())?,
            Some(_) => return Err("field `score` must be a string".to_string()),
        };
        if approx.is_some() && score == ScoreKind::Rfi {
            return Err(
                "field `approx` (g3 mining) cannot be combined with score `rfi`".to_string(),
            );
        }
        let theta = num_field("theta")?;
        if let Some(t) = theta {
            if !(0.0..=1.0).contains(&t) {
                return Err("field `theta` must be in [0, 1]".to_string());
            }
        }
        let k = usize_field("k")?;
        if k == Some(0) {
            return Err("field `k` must be at least 1".to_string());
        }
        let steps = usize_field("steps")?.unwrap_or(3);
        if steps == 0 {
            return Err("field `steps` must be at least 1".to_string());
        }
        let profile = match v.get("profile") {
            None => false,
            Some(j) => j.as_bool().ok_or("field `profile` must be a boolean")?,
        };
        Ok(Request {
            cmd,
            path,
            csv,
            name,
            phi_t,
            phi_v,
            psi,
            threads: usize_field("threads")?.unwrap_or(1),
            shards: usize_field("shards")?,
            max_lhs: usize_field("max_lhs")?,
            approx,
            k,
            steps,
            score,
            theta,
            profile,
        })
    }

    /// The request's `path`, when it names a binary shard store
    /// (`.dbss`) rather than a CSV file.
    fn store_path(&self) -> Option<&str> {
        self.path
            .as_deref()
            .filter(|p| self.csv.is_none() && p.ends_with(".dbss"))
    }

    fn load_relation(&self) -> Result<Relation, String> {
        let rel = match (&self.path, &self.csv) {
            (Some(path), None) => {
                read_relation_path(path).map_err(|e| format!("cannot read {path}: {e}"))?
            }
            (None, Some(csv)) => {
                let name = self.name.as_deref().unwrap_or("inline");
                read_relation(csv.as_bytes(), name)
                    .map_err(|e| format!("cannot parse inline csv: {e}"))?
            }
            _ => return Err("exactly one of `path` or `csv` must be given".to_string()),
        };
        if rel.n_attrs() == 0 {
            return Err("relation has no columns".to_string());
        }
        if rel.n_tuples() == 0 {
            return Err("relation has no rows".to_string());
        }
        Ok(rel)
    }
}

#[derive(Clone, Debug)]
struct RelationInfo {
    name: String,
    tuples: usize,
    attrs: usize,
    content_hash: u64,
}

/// An `"ok":true` response under construction.
#[derive(Debug)]
struct Body {
    cmd: String,
    relation: Option<RelationInfo>,
    cached: Option<bool>,
    output: String,
    view_stats: Option<dbmine_context::ViewStats>,
    ctx_cache: Option<CtxCacheStats>,
    report: Option<RunReport>,
    shutdown: bool,
}

impl Body {
    fn plain(cmd: &str, output: &str) -> Body {
        Body {
            cmd: cmd.to_string(),
            relation: None,
            cached: None,
            output: output.to_string(),
            view_stats: None,
            ctx_cache: None,
            report: None,
            shutdown: false,
        }
    }

    fn into_line(self, id: &Json) -> String {
        let mut out = String::with_capacity(256 + self.output.len());
        write!(
            out,
            "{{\"id\":{},\"ok\":true,\"cmd\":\"{}\"",
            id.to_string_compact(),
            json::escape(&self.cmd)
        )
        .unwrap();
        if let Some(r) = &self.relation {
            write!(
                out,
                ",\"relation\":{{\"name\":\"{}\",\"tuples\":{},\"attrs\":{},\"content_hash\":\"{:016x}\"}}",
                json::escape(&r.name),
                r.tuples,
                r.attrs,
                r.content_hash
            )
            .unwrap();
        }
        if let Some(cached) = self.cached {
            write!(out, ",\"cached\":{cached}").unwrap();
        }
        write!(out, ",\"output\":\"{}\"", json::escape(&self.output)).unwrap();
        if let Some(vs) = self.view_stats {
            write!(
                out,
                ",\"view_stats\":{{\"builds\":{},\"hits\":{},\"materializations\":{}}}",
                vs.builds, vs.hits, vs.materializations
            )
            .unwrap();
        }
        if let Some(s) = self.ctx_cache {
            write!(
                out,
                ",\"ctx_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"capacity\":{}}}",
                s.hits, s.misses, s.evictions, s.entries, s.capacity
            )
            .unwrap();
        }
        if let Some(report) = &self.report {
            write!(out, ",\"report\":{}", report_json_compact(report)).unwrap();
        }
        out.push('}');
        out
    }
}

/// The `--profile` RunReport JSON layout (same keys and schema version
/// as [`RunReport::to_json`]) on a single line, for embedding in
/// line-delimited responses.
pub fn report_json_compact(r: &RunReport) -> String {
    let mut out = String::with_capacity(512);
    write!(
        out,
        "{{\"schema_version\":{},\"telemetry_compiled\":{},\"wall_ms\":{:.3},\"counters\":{{",
        telemetry::SCHEMA_VERSION,
        r.compiled,
        r.wall_ms
    )
    .unwrap();
    for (i, c) in telemetry::COUNTERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{}\":{}", c.name(), r.counters.get(*c)).unwrap();
    }
    write!(
        out,
        "}},\"alloc\":{{\"installed\":{},\"events\":{},\"peak_bytes\":{}}},\"spans\":[",
        r.alloc_installed, r.alloc_events, r.alloc_peak_bytes
    )
    .unwrap();
    for (i, node) in r.roots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node_compact(&mut out, node);
    }
    out.push_str("]}");
    out
}

fn write_node_compact(out: &mut String, node: &telemetry::ReportNode) {
    write!(
        out,
        "{{\"name\":\"{}\",\"calls\":{},\"total_ms\":{:.3},\"self_ms\":{:.3},\"counters\":{{",
        json::escape(node.name),
        node.calls,
        node.total_ms,
        node.self_ms
    )
    .unwrap();
    for (i, (name, v)) in node.counters.nonzero().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{name}\":{v}").unwrap();
    }
    write!(
        out,
        "}},\"alloc_events\":{},\"children\":[",
        node.alloc_events
    )
    .unwrap();
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node_compact(out, c);
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4_csv() -> &'static str {
        "A,B,C\na,1,p\na,1,r\nw,2,x\ny,2,x\nz,2,x\n"
    }

    fn request(cmd: &str) -> String {
        format!(
            "{{\"id\":1,\"cmd\":\"{cmd}\",\"csv\":\"{}\"}}",
            figure4_csv().replace('\n', "\\n")
        )
    }

    #[test]
    fn analyze_roundtrip_is_valid_single_line_json() {
        let d = Daemon::new(4);
        let h = d.handle_line(&request("analyze"));
        assert!(!h.shutdown);
        assert!(!h.line.contains('\n'));
        let v = parse(&h.line).expect("response must be valid JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("cached"), Some(&Json::Bool(false)));
        assert!(v
            .get("output")
            .and_then(Json::as_str)
            .unwrap()
            .contains("# column profile"));
    }

    #[test]
    fn second_request_is_cached_with_zero_new_builds() {
        let d = Daemon::new(4);
        let r1 = parse(&d.handle_line(&request("analyze")).line).unwrap();
        let r2 = parse(&d.handle_line(&request("analyze")).line).unwrap();
        assert_eq!(r1.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(r2.get("cached"), Some(&Json::Bool(true)));
        // Cumulative per-context builds must not move between requests.
        let builds = |r: &Json| {
            r.get("view_stats")
                .and_then(|v| v.get("builds"))
                .and_then(Json::as_usize)
                .unwrap()
        };
        assert_eq!(builds(&r1), builds(&r2), "second request rebuilt views");
        let hash = |r: &Json| {
            r.get("relation")
                .and_then(|v| v.get("content_hash"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(hash(&r1), hash(&r2));
    }

    #[test]
    fn malformed_and_invalid_requests_error_and_daemon_survives() {
        let d = Daemon::new(4);
        for bad in [
            "not json",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"analyze\"}",
            "{\"cmd\":\"analyze\",\"path\":\"a\",\"csv\":\"b\"}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"wat\":1}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"psi\":2.0}",
            "{\"cmd\":\"partition\",\"csv\":\"A,B\\n1,2\\n\",\"k\":0}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"shards\":\"four\"}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"shards\":-1}",
            "{\"cmd\":\"analyze\",\"path\":\"/nonexistent/x.csv\"}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"score\":\"g4\"}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"score\":3}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"theta\":1.5}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"approx\":0.1,\"score\":\"rfi\"}",
        ] {
            let h = d.handle_line(bad);
            let v = parse(&h.line).expect("error responses are valid JSON");
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "for {bad}");
            assert!(v.get("error").and_then(Json::as_str).is_some());
        }
        // Still serving.
        let v = parse(&d.handle_line(&request("fds")).line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn sharded_request_output_is_byte_identical_to_classic() {
        let d = Daemon::new(4);
        let csv = figure4_csv().replace('\n', "\\n");
        for cmd in ["analyze", "duplicates", "partition"] {
            let classic = format!("{{\"cmd\":\"{cmd}\",\"csv\":\"{csv}\"}}");
            let sharded = format!("{{\"cmd\":\"{cmd}\",\"csv\":\"{csv}\",\"shards\":4}}");
            let out = |line: &str| {
                parse(&d.handle_line(line).line)
                    .unwrap()
                    .get("output")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            };
            assert_eq!(out(&classic), out(&sharded), "cmd {cmd}");
        }
    }

    #[test]
    fn store_backed_request_shares_cache_and_output_with_csv() {
        let dir = std::env::temp_dir().join("dbmine_daemon_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join(format!("fig4_{}.csv", std::process::id()));
        let store_path = dir.join(format!("fig4_{}.dbss", std::process::id()));
        std::fs::write(&csv_path, figure4_csv()).unwrap();
        let spilled =
            dbmine_relation::ShardedRelation::scan_csv_path_spill(&csv_path, 0, &store_path)
                .unwrap();

        let d = Daemon::new(4);
        let by_path =
            |p: &std::path::Path| format!("{{\"cmd\":\"analyze\",\"path\":\"{}\"}}", p.display());
        let cold = parse(&d.handle_line(&by_path(&csv_path)).line).unwrap();
        let store = parse(&d.handle_line(&by_path(&store_path)).line).unwrap();
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(store.get("ok"), Some(&Json::Bool(true)));
        // The store request is keyed by the *stored* content hash, so it
        // must warm-hit the entry the CSV request built — zero decodes —
        // and produce byte-identical output.
        assert_eq!(store.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(store.get("output"), cold.get("output"));
        assert_eq!(store.get("relation"), cold.get("relation"));
        let hash = store
            .get("relation")
            .and_then(|v| v.get("content_hash"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(hash, format!("{:016x}", spilled.content_hash()));

        // A corrupted store is a protocol error, not a panic, and the
        // daemon keeps serving afterwards.
        let mut bytes = std::fs::read(&store_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let bad_path = dir.join(format!("fig4_{}_bad.dbss", std::process::id()));
        std::fs::write(&bad_path, bytes).unwrap();
        let bad = parse(&d.handle_line(&by_path(&bad_path)).line).unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(bad.get("error").and_then(Json::as_str).is_some());
        let again = parse(&d.handle_line(&by_path(&store_path)).line).unwrap();
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));

        for p in [&csv_path, &store_path, &bad_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn rfi_fds_request_mines_reliable_dependencies() {
        let d = Daemon::new(4);
        let line = format!(
            "{{\"cmd\":\"fds\",\"csv\":\"{}\",\"score\":\"rfi\",\"theta\":0.1}}",
            figure4_csv().replace('\n', "\\n")
        );
        let v = parse(&d.handle_line(&line).line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let out = v.get("output").and_then(Json::as_str).unwrap();
        assert!(out.contains("reliable dependencies (F̂ ≥ 0.1)"), "{out}");
        // Omitting theta falls back to the default threshold — same
        // default the CLI resolves, byte-identical front ends.
        let default_line = format!(
            "{{\"cmd\":\"fds\",\"csv\":\"{}\",\"score\":\"rfi\"}}",
            figure4_csv().replace('\n', "\\n")
        );
        let dv = parse(&d.handle_line(&default_line).line).unwrap();
        let dout = dv.get("output").and_then(Json::as_str).unwrap();
        assert!(dout.contains("reliable dependencies (F̂ ≥ 0.2)"), "{dout}");
    }

    #[test]
    fn ping_stats_shutdown() {
        let d = Daemon::new(4);
        let v = parse(&d.handle_line("{\"id\":9,\"cmd\":\"ping\"}").line).unwrap();
        assert_eq!(v.get("output").and_then(Json::as_str), Some("pong"));
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(9));
        let v = parse(&d.handle_line("{\"cmd\":\"stats\"}").line).unwrap();
        assert!(v.get("ctx_cache").is_some());
        let h = d.handle_line("{\"cmd\":\"shutdown\"}");
        assert!(h.shutdown);
        assert!(d.shutdown_requested());
    }

    #[test]
    fn serve_lines_stops_at_shutdown() {
        let d = Daemon::new(4);
        let input = format!(
            "{}\n\n{{\"cmd\":\"shutdown\"}}\n{}\n",
            request("ping"),
            request("ping")
        );
        let mut out = Vec::new();
        d.serve_lines(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // ping, shutdown — the post-shutdown ping is never answered.
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn serve_lines_sends_each_reply_in_one_write() {
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let d = Daemon::new(4);
        let input = format!("{}\n{}\n", request("ping"), request("stats"));
        let mut out = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        d.serve_lines(input.as_bytes(), &mut out).unwrap();
        assert_eq!(out.writes, 2, "one write per reply");
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn profiled_request_embeds_compact_report() {
        let d = Daemon::new(4);
        let line = format!(
            "{{\"cmd\":\"fds\",\"csv\":\"{}\",\"profile\":true}}",
            figure4_csv().replace('\n', "\\n")
        );
        let h = d.handle_line(&line);
        assert!(!h.line.contains('\n'));
        let v = parse(&h.line).unwrap();
        let report = v.get("report").expect("profiled response embeds report");
        assert!(report.get("schema_version").is_some());
        assert!(report.get("counters").is_some());
        if telemetry::compiled() {
            let Json::Arr(spans) = report.get("spans").unwrap() else {
                panic!("spans must be an array");
            };
            assert!(!spans.is_empty(), "profiled run must record spans");
        }
    }
}
