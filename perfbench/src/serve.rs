//! The `serve_mixed` workload: an in-process nas-serve daemon on
//! `gnp(20 000, deg 8)` under mixed loopback HTTP load.
//!
//! * Set-up: `Server::start` (bind, generate, first CONGEST build, oracle
//!   warm-up), repeated; `setup_s` is the median.
//! * Connection A, open loop: `GET /distance?mode=spanner` at a fixed rate;
//!   each latency runs from the request's due time, so a stall also
//!   charges the requests queued behind it.
//! * Connection B, closed loop with a 40 ms think time: `POST /batch` of 64
//!   spanner pairs, each followed by one request of the served audit, with
//!   `POST /rebuild`s of the same spec spread through the window; `build_s`
//!   is the median rebuild as the client sees it.
//! * Audit: `POST /batch` with `mode=both` over every target of one of 16
//!   sources per request, exact answers checked against a local BFS of
//!   `BuildSpec::build_graph`. A pass over the 16 sources is one audit, and
//!   `audit_s` is the median pass; the passes run between batches over the
//!   whole window, not in one block after it.
//! * A local `Session::run` of the served spec checks the paper's
//!   guarantees and must match the daemon's `/stats`; with `--trace 1` the
//!   traced build of that spec gives the per-layer numbers.

use crate::builds::{
    check_build, oracle_queries, phase_wall_s, phase_walls, within_envelope, AUDIT_REPEATS,
    AUDIT_SOURCES, BATCH_PAIRS, SETUPS,
};
use crate::trace::traced_build;
use crate::util::{median, percentile, secs, sorted_edges};
use crate::{Config, Ledger, Outcome};
use nas_core::{Backend, Params, Session};
use nas_graph::dist::DistanceBatch;
use nas_graph::rng::SplitMix64;
use nas_graph::{DistanceMap, Graph};
use nas_serve::json::Json;
use nas_serve::{BuildSpec, Client, ClientResponse, ServeConfig, Server, Workload};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Connection workers of the daemon.
const WORKERS: usize = 2;
/// Think time of the batch client between a response and its next
/// request. Without it the batch client keeps the snapshot's query mutex
/// (held for a whole batch fill) nearly always taken, and point reads
/// queue behind it for seconds.
const THINK: Duration = Duration::from_millis(40);
/// Every `SAMPLE_EVERY`-th read (and batch) keeps its answer for the
/// post-run check against a BFS of `G`.
const SAMPLE_EVERY: usize = 16;
/// One live rebuild per this many seconds of the load window (at least
/// two): a rebuild takes about 2.4 s on a 2-vCPU host, so reads also run
/// between rebuilds.
const REBUILD_EVERY_S: f64 = 4.0;

/// The workload's parameters.
struct Mix {
    spec: BuildSpec,
    /// Open-loop read rate, requests per second. It stays far below the
    /// read capacity left while a rebuild holds both cores: nearer that
    /// capacity the backlog of a slow stretch of the host outlives the
    /// rebuild and the read tail jumps tenfold.
    rate: f64,
    /// Live rebuilds per window.
    rebuilds: usize,
    /// See `BuildWorkload::min_ruling_phases`.
    min_ruling_phases: usize,
}

impl Mix {
    fn new(cfg: &Config) -> Self {
        Mix {
            spec: BuildSpec {
                workload: Workload::Gnp,
                n: if cfg.smoke { 2_000 } else { 20_000 },
                deg: 8,
                seed: 1,
                params: Params::practical(0.5, 4, 0.45),
                weights: None,
                backend: Backend::Congest,
                path: None,
            },
            rate: if cfg.smoke { 300.0 } else { 250.0 },
            rebuilds: ((cfg.seconds / REBUILD_EVERY_S) as usize).max(2),
            min_ruling_phases: if cfg.smoke { 1 } else { 2 },
        }
    }
}

/// A spanner answer kept for the post-run check: `(u, v, d_H)`.
type Sample = (usize, usize, Option<u32>);

/// What connection A measured.
#[derive(Default)]
struct Reads {
    /// Latency from due time, µs.
    lat_us: Vec<f64>,
    /// Due time as an offset into the window, s.
    due_s: Vec<f64>,
    max_lag_s: f64,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

/// What connection B measured.
#[derive(Default)]
struct Writes {
    batch_us: Vec<f64>,
    rebuild_s: Vec<f64>,
    /// Rebuild intervals as offsets into the window, s.
    rebuild_windows: Vec<(f64, f64)>,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

/// The served stretch audit, one source per request. A request is timed
/// from sending to the full response; a pass over every source is one
/// audit, and summing its requests evens out their spread.
struct Audit<'a> {
    g: &'a Graph,
    sources: Vec<usize>,
    /// Request bodies, one per source: every target with `mode=both`.
    bodies: Vec<String>,
    /// BFS rows of `G` from the sources.
    local: DistanceBatch,
    eps: f64,
    envelope: (f64, f64),
    /// Index into `sources` of the next request.
    next: usize,
    /// Wall and largest additive excess `d_H − (1 + ε)·d_G` of the pass in
    /// progress.
    wall: f64,
    worst: f64,
    /// Complete passes: `(wall_s, effective_beta)`.
    passes: Vec<(f64, f64)>,
}

impl<'a> Audit<'a> {
    fn new(g: &'a Graph, eps: f64, envelope: (f64, f64)) -> Self {
        let n = g.num_vertices();
        let samples = AUDIT_SOURCES.min(n);
        let sources: Vec<usize> = (0..samples).map(|i| i * n / samples).collect();
        let bodies = sources
            .iter()
            .map(|&s| {
                let mut body = String::with_capacity(16 * n);
                body.push_str("{\"mode\":\"both\",\"pairs\":[");
                for t in 0..n {
                    if t > 0 {
                        body.push(',');
                    }
                    body.push_str(&format!("[{s},{t}]"));
                }
                body.push_str("]}");
                body
            })
            .collect();
        Audit {
            g,
            local: DistanceBatch::from_sources(g, &sources, nas_par::global()),
            sources,
            bodies,
            eps,
            envelope,
            next: 0,
            wall: 0.0,
            worst: 0.0,
            passes: Vec::new(),
        }
    }

    /// The next source's request. A transport error, a non-200 status or a
    /// wrong answer is an `Err`; the pass goes on either way.
    fn step(&mut self, client: &mut Client, addr: SocketAddr) -> Result<(), String> {
        let row = self.next;
        let s = self.sources[row];
        let start = Instant::now();
        let resp = request(client, addr, Some(&self.bodies[row]), "/batch");
        self.wall += secs(start);
        self.next = (row + 1) % self.sources.len();
        let checked = resp.and_then(|r| self.check(row, &r.body));
        if self.next == 0 {
            self.passes.push((self.wall, self.worst));
            self.wall = 0.0;
            self.worst = 0.0;
        }
        checked.map_err(|e| format!("audit source {s}: {e}"))
    }

    /// Checks one source's answers; results come in request order, so
    /// target `t` is the `t`-th answer.
    fn check(&mut self, row: usize, body: &str) -> Result<(), String> {
        let n = self.g.num_vertices();
        let (alpha, beta) = self.envelope;
        let mut answered = 0usize;
        let mut bad = 0usize;
        for (t, result) in body.split("\"exact\":").skip(1).enumerate() {
            answered += 1;
            if t >= n {
                bad += 1;
                continue;
            }
            let exact = distance_value(Some(result));
            let spanner = distance_value(after_key(result, "spanner"));
            let (Ok(exact), Ok(spanner)) = (exact, spanner) else {
                bad += 1;
                continue;
            };
            if exact != self.local.get(row, t) || !within_envelope(exact, spanner, alpha, beta) {
                bad += 1;
            }
            if let (Some(dg), Some(dh)) = (exact, spanner) {
                if dg > 0 {
                    self.worst = self
                        .worst
                        .max(f64::from(dh) - (1.0 + self.eps) * f64::from(dg));
                }
            }
        }
        if answered == n && bad == 0 {
            Ok(())
        } else {
            Err(format!("{bad} wrong answers, {answered} of {n} answered"))
        }
    }
}

/// The distance value at the start of `text` (up to the next `,` or `}`):
/// `Ok(None)` for `null`.
///
/// Responses are scanned field by field rather than through
/// `nas_serve::json::Json::parse`, whose string decoding re-validates the
/// rest of the document per character and so takes time quadratic in the
/// size of a large `/batch` response.
fn distance_value(text: Option<&str>) -> Result<Option<u32>, String> {
    let text = text.ok_or("missing distance")?;
    let end = text.find([',', '}']).unwrap_or(text.len());
    match text[..end].trim() {
        "null" => Ok(None),
        v => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad distance {v:?}")),
    }
}

/// The text after the first `"key":` in `body`.
fn after_key<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    body.find(&needle).map(|i| &body[i + needle.len()..])
}

/// One request on `client`; a transport error or a non-200 status is an
/// `Err`, and a broken connection is reopened.
fn request(
    client: &mut Client,
    addr: SocketAddr,
    post: Option<&str>,
    path: &str,
) -> Result<ClientResponse, String> {
    let resp = match post {
        Some(body) => client.post(path, body),
        None => client.get(path),
    };
    match resp {
        Ok(r) if r.status == 200 => Ok(r),
        Ok(r) => Err(format!("{path}: status {} {}", r.status, r.body)),
        Err(e) => {
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
            Err(format!("{path}: {e}"))
        }
    }
}

fn open_loop(
    addr: SocketAddr,
    t0: Instant,
    window: Duration,
    rate: f64,
    n: usize,
    seed: u64,
) -> Reads {
    let mut out = Reads::default();
    let Ok(mut client) = Client::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let mut rng = SplitMix64::new(seed ^ 0xa11c_e5ed);
    for i in 0u64.. {
        let due_s = i as f64 / rate;
        if due_s >= window.as_secs_f64() {
            break;
        }
        let due = t0 + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.max_lag_s = out
            .max_lag_s
            .max(Instant::now().saturating_duration_since(due).as_secs_f64());
        let (u, v) = (rng.next_index(n), rng.next_index(n));
        let resp = request(
            &mut client,
            addr,
            None,
            &format!("/distance?src={u}&dst={v}&mode=spanner"),
        );
        out.lat_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        out.due_s.push(due_s);
        out.attempted += 1;
        match resp.and_then(|r| distance_value(r.field("spanner"))) {
            Ok(d) if (i as usize).is_multiple_of(SAMPLE_EVERY) => out.samples.push((u, v, d)),
            Ok(_) => {}
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: FAILED read: {e}");
            }
        }
    }
    out
}

fn closed_loop(
    addr: SocketAddr,
    t0: Instant,
    window: Duration,
    rebuilds: usize,
    seed: u64,
    audit: &mut Audit,
) -> Writes {
    let n = audit.g.num_vertices();
    let mut out = Writes::default();
    let Ok(mut client) = Client::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let mut rng = SplitMix64::new(seed ^ 0x0ba7_c4e5);
    let end = t0 + window;
    // Rebuild k is due at (k + 1/2) / (R + 1) of the window, so the last
    // snapshot still serves the final stretch of reads: the oracle
    // counters in /stats belong to the current snapshot only.
    let rebuild_at = |k: usize| t0 + window.mul_f64((k as f64 + 0.5) / (rebuilds + 1) as f64);
    let mut next_rebuild = 0;
    let mut batches = 0usize;
    let mut body = String::new();
    while Instant::now() < end {
        if next_rebuild < rebuilds && Instant::now() >= rebuild_at(next_rebuild) {
            next_rebuild += 1;
            let start = Instant::now();
            let resp = request(&mut client, addr, Some(""), "/rebuild");
            let wall = secs(start);
            out.attempted += 1;
            let from = start.saturating_duration_since(t0).as_secs_f64();
            out.rebuild_windows.push((from, from + wall));
            match resp {
                Ok(_) => out.rebuild_s.push(wall),
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: FAILED rebuild: {e}");
                }
            }
            continue;
        }
        std::thread::sleep(THINK);
        let pairs: Vec<(usize, usize)> = (0..BATCH_PAIRS)
            .map(|_| (rng.next_index(n), rng.next_index(n)))
            .collect();
        body.clear();
        body.push_str("{\"mode\":\"spanner\",\"pairs\":[");
        for (i, (u, v)) in pairs.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{u},{v}]"));
        }
        body.push_str("]}");
        let start = Instant::now();
        let resp = request(&mut client, addr, Some(&body), "/batch");
        out.batch_us.push(start.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        let first = resp.and_then(|r| {
            let answered = r.body.matches("\"spanner\":").count();
            if answered != BATCH_PAIRS {
                return Err(format!("batch answered {answered} of {BATCH_PAIRS} pairs"));
            }
            distance_value(after_key(&r.body, "spanner"))
        });
        match first {
            Ok(d) if batches.is_multiple_of(SAMPLE_EVERY) => {
                out.samples.push((pairs[0].0, pairs[0].1, d))
            }
            Ok(_) => {}
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: FAILED batch: {e}");
            }
        }
        batches += 1;
        out.attempted += 1;
        if let Err(e) = audit.step(&mut client, addr) {
            out.failed += 1;
            eprintln!("perfbench: FAILED {e}");
        }
    }
    out
}

/// `GET /stats`, parsed.
fn stats(client: &mut Client, addr: SocketAddr) -> Result<Json, String> {
    let r = request(client, addr, None, "/stats")?;
    Json::parse(&r.body).map_err(|e| format!("/stats: {e}"))
}

/// A numeric `/stats` field by path; NaN (which fails every check and is
/// refused as a metric) when absent.
fn stat(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Runs `serve_mixed`.
///
/// # Errors
///
/// The daemon failed to start or the local build was rejected.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mix = Mix::new(cfg);
    let mut ledger = Ledger::default();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    let t = Instant::now();
    let g = mix.spec.build_graph().map_err(|e| e.to_string())?;
    v.insert("graph.generate_s", secs(t));
    let n = g.num_vertices();

    // Set-up: start the daemon several times, keep the last one.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            s.handle().shutdown();
            s.join();
        }
        let t = Instant::now();
        let s = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            spec: mix.spec.clone(),
        })
        .map_err(|e| format!("server start: {e}"))?;
        setup.push(secs(t));
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.local_addr();
    v.insert("setup_s", median(&setup));
    // Each daemon worker serves one keep-alive connection at a time, so the
    // admin connection must be closed while the two load connections run.
    let connect = || Client::connect(addr).map_err(|e| e.to_string());
    let before = stats(&mut connect()?, addr)?;
    let epoch0 = stat(&before, &["epoch"]);
    let envelope = (
        stat(&before, &["stretch", "alpha_envelope"]),
        stat(&before, &["stretch", "beta_envelope"]),
    );
    let eps = mix.spec.params.eps;
    let mut audit = Audit::new(&g, eps, envelope);

    // The load window.
    let window = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now() + Duration::from_millis(20);
    let (reads, writes) = std::thread::scope(|s| {
        let a = s.spawn(|| open_loop(addr, t0, window, mix.rate, n, cfg.seed));
        let b = s.spawn(|| closed_loop(addr, t0, window, mix.rebuilds, cfg.seed, &mut audit));
        (
            a.join().expect("reader thread panicked"),
            b.join().expect("writer thread panicked"),
        )
    });
    ledger.attempted += reads.attempted + writes.attempted;
    ledger.failed += reads.failed + writes.failed;
    let mut admin = connect()?;
    let after = stats(&mut admin, addr)?;
    let rebuilt = writes.rebuild_s.len() as f64;
    ledger.check(stat(&after, &["epoch"]) == epoch0 + rebuilt, || {
        format!(
            "epoch {} after {rebuilt} rebuilds from {epoch0}",
            stat(&after, &["epoch"])
        )
    });
    ledger.check(writes.rebuild_windows.len() == mix.rebuilds, || {
        format!(
            "{} of {} rebuilds ran in the window",
            writes.rebuild_windows.len(),
            mix.rebuilds
        )
    });
    ledger.check(stat(&after, &["server", "errors"]) == 0.0, || {
        "the daemon counted request errors".to_string()
    });
    // A short window (the self-test's) leaves too few passes: finish them
    // on the admin connection.
    while audit.passes.len() < AUDIT_REPEATS {
        let step = audit.step(&mut admin, addr);
        ledger.check(step.is_ok(), || step.err().unwrap_or_default());
    }
    let audits = audit.passes;
    let audit_s = median(&audits.iter().map(|a| a.0).collect::<Vec<_>>());
    let effective_beta = audits[0].1;
    ledger.check(audits.iter().all(|a| a.1 == effective_beta), || {
        "repeated served audits disagree".to_string()
    });
    drop(admin);
    server.handle().shutdown();
    server.join();
    // The daemon's footprint: the local check builds below come after it.
    v.insert("peak_rss_mib", crate::util::peak_rss_mib());

    let during: Vec<f64> = reads
        .lat_us
        .iter()
        .zip(&reads.due_s)
        .filter(|(_, &d)| writes.rebuild_windows.iter().any(|&(a, b)| a <= d && d < b))
        .map(|(&l, _)| l)
        .collect();
    v.insert("serve.query_p50_us", median(&reads.lat_us));
    v.insert("serve.query_p99_us", percentile(&reads.lat_us, 99.0));
    v.insert(
        "serve.query_p99_us.during_rebuild",
        percentile(&during, 99.0),
    );
    v.insert("loadgen.max_lag_ms", reads.max_lag_s * 1e3);
    v.insert(
        "serve.batch_pairs_per_s",
        BATCH_PAIRS as f64 * 1e6 / median(&writes.batch_us),
    );
    v.insert("serve.batch_p50_us", median(&writes.batch_us));
    v.insert("build_s", median(&writes.rebuild_s));
    v.insert("audit_s", audit_s);
    v.insert("effective_beta", effective_beta);
    for key in ["rounds", "messages", "spanner_edges"] {
        v.insert(key, stat(&after, &[key]));
    }
    let queries = stat(&after, &["oracles", "spanner", "point_queries"]);
    let hits = stat(&after, &["oracles", "spanner", "cache_hits"]);
    v.insert(
        "serve.oracle.hit_ratio",
        if queries > 0.0 { hits / queries } else { 0.0 },
    );
    v.insert(
        "serve.oracle.traversals",
        stat(&after, &["oracles", "spanner", "traversals"]),
    );

    // Served answers kept during the load, against BFS rows of G.
    let (alpha, beta) = envelope;
    for &(a, b, dh) in reads.samples.iter().chain(&writes.samples) {
        let dg = DistanceMap::from_source(&g, a).get(b);
        ledger.check(within_envelope(dg, dh, alpha, beta), || {
            format!("served ({a}, {b}): d_H {dh:?} vs d_G {dg:?}")
        });
    }

    // The served spec built locally: guarantees, and equality with /stats.
    let t = Instant::now();
    let local = Session::on(&g)
        .params(mix.spec.params)
        .backend(Backend::Congest)
        .run()
        .map_err(|e| format!("local build: {e}"))?;
    let local_s = secs(t);
    let regime = check_build(&mut ledger, &g, &local, mix.min_ruling_phases);
    v.extend(phase_walls(&[phase_wall_s(&local)]));
    ledger.check(
        local.rounds() as f64 == v["rounds"]
            && local.messages() as f64 == v["messages"]
            && local.num_edges() as f64 == v["spanner_edges"],
        || "the daemon's build record differs from a local build of its spec".to_string(),
    );

    if cfg.trace {
        let global = nas_par::global_arc();
        let pool = (global.threads() > 1).then_some(global);
        let (built, trace) = traced_build(&g, mix.spec.params, pool.as_ref())
            .map_err(|e| format!("traced build: {e}"))?;
        ledger.check(
            sorted_edges(&built.spanner) == sorted_edges(&local.spanner)
                && built.stats == local.stats
                && built.settled == local.settled
                && built.phases == local.phases,
            || "traced build differs from the untraced Session run".to_string(),
        );
        v.extend(trace.summary());
        v.insert(
            "trace.overhead_pct",
            (trace.wall.as_secs_f64() - local_s) / local_s * 100.0,
        );
        let t = Instant::now();
        let audit = nas_metrics::stretch_audit_sampled(&g, &local.to_graph(), eps, AUDIT_SOURCES);
        let local_audit_s = secs(t);
        ledger.check(audit.effective_beta == effective_beta, || {
            format!(
                "local audit beta {} != served audit beta {effective_beta}",
                audit.effective_beta
            )
        });
        v.insert(
            "metrics.audit_mvert_per_s",
            (2 * AUDIT_SOURCES.min(n) * n) as f64 / local_audit_s / 1e6,
        );
        // The daemon's query layer without HTTP: the same oracle in-process
        // on the locally built spanner.
        v.extend(oracle_queries(
            &mut ledger,
            &g,
            local.to_graph(),
            envelope,
            cfg.seed,
            if cfg.smoke { 64 } else { 300 },
            if cfg.smoke { 2 } else { 8 },
            !cfg.smoke,
        ));
    }

    let detail = format!(
        "{{\"lanes\":{},\"store\":\"flat\",\"graph_seed\":{},\"n\":{n},\"m\":{},\"workers\":{WORKERS},\"rate\":{},\"reads\":{},\"batches\":{},\"rebuilds\":{},\"audits\":{},\"phases\":{regime}}}",
        nas_par::global().threads(),
        mix.spec.seed,
        g.num_edges(),
        mix.rate,
        reads.lat_us.len(),
        writes.batch_us.len(),
        writes.rebuild_s.len(),
        audits.len(),
    );
    Ok(Outcome {
        ledger,
        values: v,
        detail,
    })
}
