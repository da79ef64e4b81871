//! Message-plane scaling bench: million-node CONGEST runs.
//!
//! Exercises the arena/active-set simulator on the [`nas_bench::large_scale`]
//! workload suite (path, grid, G(n,p), preferential attachment) and records
//! rounds, messages, wall-clock time, per-round throughput, and peak RSS.
//! Two protocols are measured:
//!
//! * **flood** — multi-source BFS flood at the full size `n` (default
//!   10^6). The four families cover the two extremes the active-set
//!   scheduler must handle: ~n rounds with an O(1) frontier (path) and
//!   O(log n) rounds with an Ω(n) frontier (G(n,p)).
//! * **spanner** — the full distributed Elkin–Matar construction at the
//!   **full** size `n` (the historical `n / 10` cap is gone: the flat
//!   distance plane made the audit leg affordable at 10^6, and the
//!   construction itself was never the blocker — override with
//!   `--spanner-n N` if you want a smaller leg).
//! * **audit** — a sampled stretch audit of each spanner against its base
//!   graph (`--audit-samples K` sources, default 64, spread evenly over
//!   the vertex range), on the flat distance plane: per-lane reused
//!   scratch, zero steady-state allocation. Reports audit throughput in
//!   Mvert/s (`2 · K · n` row entries scanned across both graphs, per
//!   second) and peak RSS. Each audit runs **twice**: once over hop
//!   distances (BFS, `"weighted":false` in the record) and once over
//!   weighted distances (delta-stepping SSSP on a seeded weight
//!   assignment — `--weights`, default `range:1:100` — with the spanner
//!   inheriting the base graph's weights; `"weighted":true` plus the
//!   `delta` bucket width in the record).
//!
//! Usage: `sim_scaling [--n N] [--threads T] [--compare-threads A,B,..]
//!                     [--smoke] [--spanner-n N] [--audit-samples K]
//!                     [--skip-spanner] [--workloads A,B,..]
//!                     [--weights unit|uniform:C|range:LO:HI]
//!                     [--store flat|compact] [--huge-n N]`
//!
//! `--store compact` routes the flood and spanner legs through the
//! delta/varint [`CompactGraph`] plane: transcripts and spanners are
//! bit-identical to the flat store (pinned by the golden-transcript and
//! session tests), only the adjacency bytes shrink — each record then
//! carries the measured `bytes_per_edge`. `--huge-n N` appends an
//! order-of-magnitude leg at `N` (say `10^7`): a grid flood that builds
//! the compact store, **drops the flat graph**, and floods entirely from
//! compressed adjacency (the `leg_rss_mib` acceptance gate for 10^7-node
//! runs), plus a grid spanner construction at the same `N` on the
//! compact store.
//!
//! `--threads` sets the worker-pool lane count (default: `NAS_THREADS` env,
//! else available parallelism); `--threads 1` runs every round on one lane
//! with no pool attached. `--compare-threads 1,4` runs the flood suite once
//! per listed lane count — transcripts are bit-identical across counts, so
//! the runs differ only in wall clock. `--workloads pref_attach,gnp`
//! restricts every leg (flood, spanner, audit) to the workloads whose
//! generator-slug name starts with one of the listed prefixes; the default
//! runs all of them. Every run appends a machine-readable record to
//! `BENCH_sim.json` (written at exit), the start of the perf trajectory the
//! harness tracks. Spanner records carry a `phases` array (name, rounds,
//! wall_ms per protocol phase), the fast-forward scheduler's
//! `skipped_rounds`, and the per-node knowledge-table high-water mark
//! (`knowledge_peak_bytes`); audit records report `null` for the
//! round/message fields that do not apply to a centralized audit. Every
//! record samples its own end-of-leg RSS (`leg_rss_mib`, VmRSS) next to
//! the process-lifetime high-water mark (`peak_rss_process_mib`, VmHWM) —
//! only the former is a per-leg footprint.
//!
//! Every spanner leg asserts the paper's guarantees — `H ⊆ G`, at most
//! `schedule.total_round_bound()` rounds, and a settled partition of `V` —
//! and every hop-distance audit leg asserts the schedule's `(1+ε, β)`
//! stretch envelope on its sampled pairs, so a broken guarantee fails the
//! run instead of only showing up in its output.
//!
//! `--smoke` is the CI configuration: `n = 10^5`, spanner + audit at
//! `10^4`, asserting the same invariants at a size that finishes in
//! seconds.

use nas_bench::BenchCli;
use nas_congest::programs::Flood;
use nas_congest::Simulator;
use nas_core::{Backend, Report, Session, Store};
use nas_graph::{CompactGraph, Graph, WeightDist, WeightedGraph};
use nas_metrics::{stretch_audit_sampled, stretch_audit_weighted_sampled};
use nas_par::WorkerPool;
use std::sync::Arc;
use std::time::Instant;

/// A `VmXXX:` line of `/proc/self/status`, in MiB (Linux).
fn proc_status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size in MiB (VmHWM) — a **process-lifetime**
/// high-water mark, monotone over the run.
fn peak_rss_mib() -> Option<f64> {
    proc_status_mib("VmHWM:")
}

/// Current resident set size in MiB (VmRSS) — sampled at the end of each
/// leg, so unlike the high-water mark it *can* go down when a leg's
/// working set is smaller than its predecessor's.
fn rss_now_mib() -> Option<f64> {
    proc_status_mib("VmRSS:")
}

/// One benchmark data point, serialized into `BENCH_sim.json`.
struct Record {
    protocol: &'static str,
    workload: String,
    n: usize,
    m: usize,
    threads: usize,
    backend: &'static str,
    /// `None` for legs where CONGEST accounting does not apply (the audit
    /// is a centralized distance scan) — serialized as JSON `null` rather
    /// than a fake `0`.
    rounds: Option<u64>,
    messages: Option<u64>,
    busiest_round_messages: Option<u64>,
    /// Rounds the fast-forward scheduler bulk-skipped as provably
    /// eventless (included in `rounds` — the clock advance is identical
    /// with skipping off). `None` where CONGEST accounting does not apply.
    skipped_rounds: Option<u64>,
    wall_ms: f64,
    mmsg_per_s: Option<f64>,
    /// Process-lifetime RSS high-water mark (VmHWM) *at record time* — the
    /// kernel counter never decreases, so this is an upper bound inherited
    /// from the largest workload run so far in the process, not a
    /// per-workload footprint. `None` when /proc/self/status is
    /// unavailable (non-Linux).
    peak_rss_process_mib: Option<f64>,
    /// Current RSS (VmRSS) sampled at the end of this leg — per-leg, not
    /// monotone, so audit legs no longer inherit the spanner leg's peak.
    /// `None` when /proc/self/status is unavailable (non-Linux).
    leg_rss_mib: Option<f64>,
    /// Peak bytes held in any single node's Algorithm-1 knowledge table
    /// during this leg (spanner legs only; `None` elsewhere) — the
    /// flat-table memory story `nas_core::algo1::take_knowledge_peak_bytes`
    /// measures.
    knowledge_peak_bytes: Option<u64>,
    /// Whether the leg measured weighted distances (delta-stepping SSSP)
    /// rather than hop distances (BFS).
    weighted: bool,
    /// Bucket width of the delta-stepping engine on the base graph
    /// (weighted audit legs only) — serialized as `null` elsewhere.
    delta: Option<u32>,
    /// Audit-leg extras (`protocol == "audit"` records only).
    audit: Option<AuditInfo>,
    /// Per-phase breakdown (`protocol == "spanner"` records only):
    /// `(name, CONGEST rounds, wall ms)` per protocol phase.
    phases: Vec<(String, u64, f64)>,
    /// Which adjacency store the leg read — `"flat"` (u32 CSR) or
    /// `"compact"` (delta/varint). Audit legs always run the flat
    /// distance plane.
    store: &'static str,
    /// Measured compression of the compact store in bytes per undirected
    /// edge (both directions' encodings plus the sampled offset index,
    /// divided by `m`) — `None` (JSON `null`) on flat-store legs.
    bytes_per_edge: Option<f64>,
}

/// Extra fields of an audit record.
struct AuditInfo {
    /// BFS sample sources audited.
    samples: usize,
    /// Vertex pairs the sampled audit covered.
    pairs: u64,
    /// Audit throughput: `2 · samples · n` distance-row entries scanned
    /// (one row in `G` plus one in `H` per sample) per second, in
    /// millions.
    mvert_per_s: f64,
    /// Worst multiplicative stretch observed.
    max_stretch: f64,
    /// Measured effective additive error at the construction's ε.
    effective_beta: f64,
}

fn json_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

impl Record {
    fn to_json(&self) -> String {
        let rss = match self.peak_rss_process_mib {
            Some(v) if v.is_finite() => format!("{v:.1}"),
            _ => "null".to_string(),
        };
        let leg_rss = match self.leg_rss_mib {
            Some(v) if v.is_finite() => format!("{v:.1}"),
            _ => "null".to_string(),
        };
        let mmsg = match self.mmsg_per_s {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        };
        let audit = match &self.audit {
            Some(a) => format!(
                ",\"samples\":{},\"audit_pairs\":{},\"mvert_per_s\":{:.3},\
                 \"max_stretch\":{:.4},\"effective_beta\":{:.4}",
                a.samples, a.pairs, a.mvert_per_s, a.max_stretch, a.effective_beta,
            ),
            None => String::new(),
        };
        let phases = if self.phases.is_empty() {
            String::new()
        } else {
            let body: Vec<String> = self
                .phases
                .iter()
                .map(|(name, rounds, wall_ms)| {
                    format!("{{\"name\":\"{name}\",\"rounds\":{rounds},\"wall_ms\":{wall_ms:.3}}}")
                })
                .collect();
            format!(",\"phases\":[{}]", body.join(","))
        };
        let bpe = match self.bytes_per_edge {
            Some(v) if v.is_finite() => format!("{v:.3}"),
            _ => "null".to_string(),
        };
        // The workload names are generator slugs (alphanumerics, '(', ')',
        // ',', '.', '-') — no JSON escaping needed beyond quoting.
        format!(
            "{{\"protocol\":\"{}\",\"workload\":\"{}\",\"n\":{},\"m\":{},\"threads\":{},\
             \"backend\":\"{}\",\"store\":\"{}\",\"bytes_per_edge\":{bpe},\
             \"weighted\":{},\"delta\":{},\
             \"rounds\":{},\"messages\":{},\"busiest_round_messages\":{},\
             \"skipped_rounds\":{},\"knowledge_peak_bytes\":{},\
             \"wall_ms\":{:.3},\"mmsg_per_s\":{mmsg},\"peak_rss_process_mib\":{rss},\
             \"leg_rss_mib\":{leg_rss}{audit}{phases}}}",
            self.protocol,
            self.workload,
            self.n,
            self.m,
            self.threads,
            self.backend,
            self.store,
            self.weighted,
            json_u64(self.delta.map(u64::from)),
            json_u64(self.rounds),
            json_u64(self.messages),
            json_u64(self.busiest_round_messages),
            json_u64(self.skipped_rounds),
            json_u64(self.knowledge_peak_bytes),
            self.wall_ms,
        )
    }
}

fn write_bench_json(records: &[Record]) {
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    let json = format!("[\n{}\n]\n", body.join(",\n"));
    match std::fs::write("BENCH_sim.json", &json) {
        Ok(()) => println!("wrote BENCH_sim.json ({} records)", records.len()),
        Err(e) => eprintln!("warning: could not write BENCH_sim.json: {e}"),
    }
}

/// The adjacency a flood leg reads from: a borrowed flat graph, or an
/// owned compact store — the latter lets the 10^7 leg drop the flat graph
/// before the run so `leg_rss_mib` measures the compressed plane alone.
enum FloodStore<'g> {
    Flat(&'g Graph),
    Compact(Arc<CompactGraph>),
}

impl FloodStore<'_> {
    fn n(&self) -> usize {
        match self {
            FloodStore::Flat(g) => g.num_vertices(),
            FloodStore::Compact(c) => c.num_vertices(),
        }
    }

    fn m(&self) -> usize {
        match self {
            FloodStore::Flat(g) => g.num_edges(),
            FloodStore::Compact(c) => c.num_edges(),
        }
    }
}

fn run_flood(name: &str, input: FloodStore<'_>, pool: Option<&Arc<WorkerPool>>) -> Record {
    let n = input.n();
    let m = input.m();
    let threads = pool.map(|p| p.threads()).unwrap_or(1);
    let programs = Flood::network(n, &[0]);
    let (store, bytes_per_edge, mut sim) = match input {
        FloodStore::Flat(g) => ("flat", None, Simulator::new(g, programs)),
        FloodStore::Compact(c) => (
            "compact",
            Some(c.bytes_per_edge()),
            Simulator::new_compact(c, programs),
        ),
    };
    if let Some(pool) = pool {
        sim.set_pool(Arc::clone(pool));
    }
    let t = Instant::now();
    let outcome = sim.run_until_quiet(4 * n as u64 + 16);
    let wall = t.elapsed();
    assert!(outcome.quiescent, "{name}: flood did not go quiet");
    let s = sim.stats();
    let reached = sim.programs().iter().filter(|p| p.dist.is_some()).count();
    println!(
        "flood    | {name:<28} | n={n:>8} m={m:>8} | threads={threads} store={store} | rounds={:>7} msgs={:>9} busiest={:>8} | reached={reached:>8} | {:>9.3?} ({:.2} Mmsg/s) | leg_rss={:.0} MiB",
        s.rounds,
        s.messages,
        s.busiest_round_messages,
        wall,
        s.messages as f64 / wall.as_secs_f64() / 1e6,
        rss_now_mib().unwrap_or(f64::NAN),
    );
    Record {
        protocol: "flood",
        workload: name.to_string(),
        n,
        m,
        threads,
        backend: if threads > 1 {
            "congest-arena-par"
        } else {
            "congest-arena"
        },
        rounds: Some(s.rounds),
        messages: Some(s.messages),
        busiest_round_messages: Some(s.busiest_round_messages),
        skipped_rounds: Some(s.skipped_rounds),
        wall_ms: wall.as_secs_f64() * 1e3,
        mmsg_per_s: Some(s.messages as f64 / wall.as_secs_f64() / 1e6),
        peak_rss_process_mib: peak_rss_mib(),
        leg_rss_mib: rss_now_mib(),
        knowledge_peak_bytes: None,
        weighted: false,
        delta: None,
        audit: None,
        phases: Vec::new(),
        store,
        bytes_per_edge,
    }
}

fn run_spanner(name: &str, g: &Graph, threads: usize, store: Store) -> (Record, Report) {
    let n = g.num_vertices();
    let params = nas_core::Params::practical(0.5, 4, 0.45);
    // The construction encodes its own store inside the Session; this
    // second encode only prices the compression for the record.
    let bytes_per_edge =
        (store == Store::Compact).then(|| CompactGraph::from_graph(g).bytes_per_edge());
    let t = Instant::now();
    // No .threads() here: init_pool() already sized the process-wide pool
    // to --threads, and an unset knob inherits it — a dedicated per-run
    // pool would just double the lane count for nothing.
    let r = Session::on(g)
        .params(params)
        .backend(Backend::Congest)
        .store(store)
        .run()
        .expect("valid parameters");
    let wall = t.elapsed();
    // The paper's guarantees, checked rather than printed: H ⊆ G, the
    // schedule's round bound, and every vertex settling exactly once
    // (Corollary 2.5).
    let sub = r.spanner.verify_subgraph_of(g);
    assert!(sub.is_ok(), "{name}: spanner edge {sub:?} not in G");
    let bound = r.schedule.total_round_bound();
    assert!(
        r.stats.rounds <= bound,
        "{name}: {} rounds exceed the schedule bound {bound}",
        r.stats.rounds
    );
    if let Err(e) = nas_core::cluster::verify_settled_partition(n, &r.settled) {
        panic!("{name}: settled partition broken: {e}");
    }
    println!(
        "spanner  | {name:<28} | n={n:>8} m={:>8} | threads={threads} | rounds={:>7} skipped={:>7} msgs={:>9} busiest={:>8} | edges={:>9} | {:>9.3?} ({:.2} Mmsg/s) | peak_rss={:.0} MiB",
        g.num_edges(),
        r.stats.rounds,
        r.stats.skipped_rounds,
        r.stats.messages,
        r.stats.busiest_round_messages,
        r.num_edges(),
        wall,
        r.stats.messages as f64 / wall.as_secs_f64() / 1e6,
        peak_rss_mib().unwrap_or(f64::NAN),
    );
    // Per-phase breakdown: Report.phases and Report.phase_wall are parallel
    // (one entry per protocol phase, in execution order).
    let phases: Vec<(String, u64, f64)> = r
        .phases
        .iter()
        .zip(&r.phase_wall)
        .map(|(p, w)| (format!("phase{}", p.phase), p.rounds, w.as_secs_f64() * 1e3))
        .collect();
    let record = Record {
        protocol: "spanner",
        workload: name.to_string(),
        n,
        m: g.num_edges(),
        threads,
        backend: "congest-engine",
        rounds: Some(r.stats.rounds),
        messages: Some(r.stats.messages),
        busiest_round_messages: Some(r.stats.busiest_round_messages),
        skipped_rounds: Some(r.stats.skipped_rounds),
        wall_ms: wall.as_secs_f64() * 1e3,
        mmsg_per_s: Some(r.stats.messages as f64 / wall.as_secs_f64() / 1e6),
        peak_rss_process_mib: peak_rss_mib(),
        leg_rss_mib: rss_now_mib(),
        knowledge_peak_bytes: Some(nas_core::algo1::take_knowledge_peak_bytes()),
        weighted: false,
        delta: None,
        audit: None,
        phases,
        store: store.name(),
        bytes_per_edge,
    };
    (record, r)
}

/// The audit leg: a sampled stretch audit of `report`'s spanner against
/// its base graph on the process-wide pool (flat distance plane, per-lane
/// reused scratch). This is the leg PR 2 had to cap at `n / 10`; the flat
/// plane runs it at the full `n`.
fn run_audit(name: &str, g: &Graph, report: &Report, threads: usize, samples: usize) -> Record {
    let n = g.num_vertices();
    // Mirror stretch_audit_sampled's clamp so the recorded sample count
    // (and the throughput derived from it) reflects what actually ran.
    let samples = samples.min(n).max(1);
    let h = report.to_graph();
    let t = Instant::now();
    let audit = stretch_audit_sampled(g, &h, report.params.eps, samples);
    let wall = t.elapsed();
    assert_eq!(
        audit.disconnected_pairs, 0,
        "{name}: spanner lost connectivity"
    );
    let (alpha_env, beta_env) = report.schedule.stretch_envelope();
    assert!(
        audit.satisfies(alpha_env - 1.0, beta_env),
        "{name}: a sampled pair breaks the ({alpha_env}, {beta_env}) stretch envelope"
    );
    let mvert_per_s = (2 * samples * n) as f64 / wall.as_secs_f64() / 1e6;
    println!(
        "audit    | {name:<28} | n={n:>8} m={:>8} | threads={threads} | samples={samples:>4} pairs={:>9} | stretch={:.2} beta={:.1} | {:>9.3?} ({mvert_per_s:.2} Mvert/s) | peak_rss={:.0} MiB",
        g.num_edges(),
        audit.pairs,
        audit.max_stretch,
        audit.effective_beta,
        wall,
        peak_rss_mib().unwrap_or(f64::NAN),
    );
    Record {
        protocol: "audit",
        workload: name.to_string(),
        n,
        m: g.num_edges(),
        threads,
        backend: "flat-distance-plane",
        // The audit is a centralized distance scan: CONGEST rounds and
        // message counts do not apply, and `null` says so honestly.
        rounds: None,
        messages: None,
        busiest_round_messages: None,
        skipped_rounds: None,
        wall_ms: wall.as_secs_f64() * 1e3,
        mmsg_per_s: None,
        peak_rss_process_mib: peak_rss_mib(),
        leg_rss_mib: rss_now_mib(),
        knowledge_peak_bytes: None,
        weighted: false,
        delta: None,
        audit: Some(AuditInfo {
            samples,
            pairs: audit.pairs,
            mvert_per_s,
            max_stretch: audit.max_stretch,
            effective_beta: audit.effective_beta,
        }),
        phases: Vec::new(),
        store: "flat",
        bytes_per_edge: None,
    }
}

/// The weighted twin of [`run_audit`]: the same spanner, audited over
/// weighted distances on the delta-stepping plane. Edge weights are drawn
/// from `dist` (seeded — the assignment is reproducible) onto the base
/// graph, the spanner inherits them edge for edge, and the sampled audit
/// runs with the automatic bucket width of each graph.
fn run_weighted_audit(
    name: &str,
    g: &Graph,
    report: &Report,
    threads: usize,
    samples: usize,
    dist: WeightDist,
    seed: u64,
) -> Record {
    let n = g.num_vertices();
    // Mirror the sampled audit's clamp, as in `run_audit`.
    let samples = samples.min(n).max(1);
    let wg = WeightedGraph::from_graph(g.clone(), dist, seed);
    let wh = report.to_weighted_graph(&wg);
    let t = Instant::now();
    let audit = stretch_audit_weighted_sampled(&wg, &wh, report.params.eps, samples);
    let wall = t.elapsed();
    assert_eq!(
        audit.disconnected_pairs, 0,
        "{name}: spanner lost weighted connectivity"
    );
    let mvert_per_s = (2 * samples * n) as f64 / wall.as_secs_f64() / 1e6;
    println!(
        "audit-w  | {name:<28} | n={n:>8} m={:>8} | threads={threads} | samples={samples:>4} pairs={:>9} | stretch={:.2} beta={:.1} delta={} | {:>9.3?} ({mvert_per_s:.2} Mvert/s) | peak_rss={:.0} MiB",
        g.num_edges(),
        audit.pairs,
        audit.max_stretch,
        audit.effective_beta,
        audit.delta_g,
        wall,
        peak_rss_mib().unwrap_or(f64::NAN),
    );
    Record {
        protocol: "audit",
        workload: name.to_string(),
        n,
        m: g.num_edges(),
        threads,
        backend: "weighted-distance-plane",
        rounds: None,
        messages: None,
        busiest_round_messages: None,
        skipped_rounds: None,
        wall_ms: wall.as_secs_f64() * 1e3,
        mmsg_per_s: None,
        peak_rss_process_mib: peak_rss_mib(),
        leg_rss_mib: rss_now_mib(),
        knowledge_peak_bytes: None,
        weighted: true,
        delta: Some(audit.delta_g),
        audit: Some(AuditInfo {
            samples,
            pairs: audit.pairs,
            mvert_per_s,
            max_stretch: audit.max_stretch,
            effective_beta: audit.effective_beta,
        }),
        phases: Vec::new(),
        store: "flat",
        bytes_per_edge: None,
    }
}

fn main() {
    let cli = BenchCli::parse();
    let smoke = cli.smoke();
    let n = cli.n(if smoke { 100_000 } else { 1_000_000 });
    // The spanner + audit leg runs at the full n by default (the PR-2-era
    // n/10 cap is lifted); --smoke keeps the CI-sized reduction.
    let spanner_n = cli
        .opt_usize("--spanner-n")
        .unwrap_or(if smoke { n / 10 } else { n });
    let audit_samples = cli.opt_usize("--audit-samples").unwrap_or(64);
    // One pool for everything: init_pool() sizes the process-wide pool to
    // --threads, and both legs (flood comparisons aside, which build their
    // own per-count pools) inherit it — see run_spanner.
    let threads = cli.init_pool();
    let flood_thread_counts: Vec<usize> = match cli.opt_str("--compare-threads") {
        Some(list) => list
            .split(',')
            .map(|t| t.trim().parse::<usize>().expect("numeric thread count"))
            .collect(),
        None => vec![threads],
    };
    let seed = cli.seed(42);
    // --store compact runs the flood/spanner legs off the delta/varint
    // plane (bit-identical transcripts, bytes_per_edge recorded).
    let store = cli.store();
    // --huge-n N appends the order-of-magnitude grid legs at N.
    let huge_n = cli.opt_usize("--huge-n");
    // The weighted audit leg runs unconditionally; --weights only changes
    // the distribution the seeded assignment draws from.
    let weight_dist = cli
        .weight_dist()
        .unwrap_or(WeightDist::Uniform { lo: 1, hi: 100 });
    // `--workloads pref_attach,gnp` keeps the workloads whose name starts
    // with one of the listed prefixes; the default keeps everything.
    let workload_filter: Option<Vec<String>> = cli.opt_str("--workloads").map(|list| {
        list.split(',')
            .map(|w| w.trim().to_string())
            .filter(|w| !w.is_empty())
            .collect()
    });
    let keep = |name: &str| -> bool {
        workload_filter
            .as_ref()
            .is_none_or(|f| f.iter().any(|w| name.starts_with(w.as_str())))
    };

    println!(
        "== sim_scaling: flood at n={n} (threads {flood_thread_counts:?}), spanner at n={spanner_n} (threads {threads}) =="
    );
    let t_total = Instant::now();
    let mut records: Vec<Record> = Vec::new();

    // Generate the graphs once; at n = 10^6 the four generators are the
    // dominant non-measured cost of a multi-thread-count comparison.
    let flood_suite: Vec<(String, Graph)> = nas_bench::large_scale(n, 8, seed)
        .into_iter()
        .filter(|(name, _)| keep(name))
        .collect();
    for &t in &flood_thread_counts {
        let pool = (t > 1).then(|| Arc::new(WorkerPool::new(t)));
        for (name, g) in &flood_suite {
            let input = match store {
                Store::Flat => FloodStore::Flat(g),
                Store::Compact => FloodStore::Compact(Arc::new(CompactGraph::from_graph(g))),
            };
            records.push(run_flood(name, input, pool.as_ref()));
        }
    }

    // Report per-workload speedups when more than one lane count ran.
    if flood_thread_counts.len() > 1 {
        let base_t = flood_thread_counts[0];
        for r in records.iter().filter(|r| r.threads != base_t) {
            if let Some(base) = records
                .iter()
                .find(|b| b.threads == base_t && b.workload == r.workload)
            {
                println!(
                    "speedup  | {:<28} | {} threads vs {}: {:.2}x ({:.1} ms -> {:.1} ms)",
                    r.workload,
                    r.threads,
                    base.threads,
                    base.wall_ms / r.wall_ms,
                    base.wall_ms,
                    r.wall_ms
                );
            }
        }
    }

    if cli.flag("--skip-spanner") {
        println!("spanner  | (skipped)");
    } else {
        for (name, g) in nas_bench::large_scale(spanner_n, 8, seed)
            .into_iter()
            .filter(|(name, _)| keep(name))
        {
            // The spanner needs a connected input to be meaningful; the
            // G(n,p) family at deg≈8 has a small disconnected remainder, so
            // swap in the connected variant at the same density.
            let g = if name.starts_with("gnp") {
                nas_graph::generators::connected_gnp(spanner_n, 8.0 / spanner_n as f64, seed)
            } else {
                g
            };
            let (record, report) = run_spanner(&name, &g, threads, store);
            records.push(record);
            records.push(run_audit(&name, &g, &report, threads, audit_samples));
            records.push(run_weighted_audit(
                &name,
                &g,
                &report,
                threads,
                audit_samples,
                weight_dist,
                seed,
            ));
        }
    }

    // The order-of-magnitude legs: a grid flood run entirely from the
    // compact store (the flat graph is dropped before the simulation
    // starts, so leg_rss_mib prices the compressed plane, not the u32
    // CSR it was encoded from) and a grid spanner construction at the
    // same size. Always compact — the whole point of --huge-n is the
    // size the flat store cannot reach comfortably.
    if let Some(huge_n) = huge_n {
        let side = (huge_n as f64).sqrt().round().max(2.0) as usize;
        let name = format!("grid({side}x{side})");
        let compact = {
            let g = nas_graph::generators::grid2d(side, side);
            Arc::new(CompactGraph::from_graph(&g))
            // flat grid dropped here
        };
        let pool = (threads > 1).then(|| Arc::new(WorkerPool::new(threads)));
        records.push(run_flood(
            &name,
            FloodStore::Compact(compact),
            pool.as_ref(),
        ));

        let g = nas_graph::generators::grid2d(side, side);
        let (record, _report) = run_spanner(&name, &g, threads, Store::Compact);
        records.push(record);
    }

    write_bench_json(&records);
    println!(
        "== total wall time {:?}, final peak_rss {:.0} MiB ==",
        t_total.elapsed(),
        peak_rss_mib().unwrap_or(f64::NAN)
    );
}
