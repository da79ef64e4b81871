//! `serve_bench`: a load generator for the `serve` daemon.
//!
//! Runs four legs — `single`/`batch` transport × `exact`/`spanner` query
//! plane — each with a fixed number of keep-alive connections hammering
//! the daemon for a fixed duration, and records per-request latency
//! percentiles (p50/p95/p99) and throughput (requests/s and pairs/s) into
//! `BENCH_serve.json` in the working directory (a failed write exits
//! non-zero).
//!
//! Usage: `serve_bench [--addr HOST:PORT] [--connections C]
//!                     [--duration-secs D] [--batch-size B]
//!                     [--n N] [--deg D] [--seed S] [--threads T]
//!                     [--weights SPEC] [--smoke]`
//!
//! Without `--addr` the bench spawns an **in-process** server (same
//! binary, same process, loopback TCP) built from the `--n`/`--deg`/
//! `--seed`/`--weights` spec, so a single command produces a
//! self-contained measurement; with `--addr` it drives an external
//! daemon and the spec flags are ignored. `--smoke` is the CI
//! configuration: a small graph, 2 connections, 1 second per leg —
//! enough to exercise every leg end to end in a few seconds.
//!
//! The single legs measure `GET /distance` round-trips (one pair per
//! request); the batch legs measure `POST /batch` with `--batch-size`
//! pairs per request, so their `pairs_per_sec` shows the amortization the
//! pooled batch path buys over per-pair HTTP round-trips.

use nas_bench::BenchCli;
use nas_serve::{BuildSpec, Client, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct LegSpec {
    transport: &'static str, // "single" | "batch"
    mode: &'static str,      // "exact" | "spanner"
}

const LEGS: [LegSpec; 4] = [
    LegSpec {
        transport: "single",
        mode: "exact",
    },
    LegSpec {
        transport: "single",
        mode: "spanner",
    },
    LegSpec {
        transport: "batch",
        mode: "exact",
    },
    LegSpec {
        transport: "batch",
        mode: "spanner",
    },
];

struct LegResult {
    transport: &'static str,
    mode: &'static str,
    connections: usize,
    batch_size: usize,
    duration_secs: f64,
    requests: usize,
    pairs: usize,
    qps: f64,
    pairs_per_sec: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

impl LegResult {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"transport\":\"{}\",\"mode\":\"{}\",\"connections\":{},",
                "\"batch_size\":{},\"duration_secs\":{:.3},\"requests\":{},",
                "\"pairs\":{},\"qps\":{:.1},\"pairs_per_sec\":{:.1},",
                "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}"
            ),
            self.transport,
            self.mode,
            self.connections,
            self.batch_size,
            self.duration_secs,
            self.requests,
            self.pairs,
            self.qps,
            self.pairs_per_sec,
            self.p50_us,
            self.p95_us,
            self.p99_us,
        )
    }
}

/// splitmix64 — the workspace's stock seeded generator shape, so pair
/// streams are deterministic per (seed, connection).
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_leg(
    addr: SocketAddr,
    leg: &LegSpec,
    n: usize,
    connections: usize,
    duration: Duration,
    batch_size: usize,
    seed: u64,
) -> LegResult {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let mode = leg.mode;
            let transport = leg.transport;
            std::thread::spawn(move || -> (Vec<u64>, usize) {
                let mut client = Client::connect(addr).expect("connect to daemon");
                let mut rng = seed ^ ((c as u64 + 1) << 32);
                let mut latencies = Vec::new();
                let mut pairs_done = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let resp = if transport == "single" {
                        let (u, v) = (
                            next_u64(&mut rng) as usize % n,
                            next_u64(&mut rng) as usize % n,
                        );
                        pairs_done += 1;
                        client.get(&format!("/distance?src={u}&dst={v}&mode={mode}"))
                    } else {
                        let mut body = String::with_capacity(16 + 12 * batch_size);
                        body.push_str(&format!("{{\"mode\":\"{mode}\",\"pairs\":["));
                        for i in 0..batch_size {
                            if i > 0 {
                                body.push(',');
                            }
                            body.push_str(&format!(
                                "[{},{}]",
                                next_u64(&mut rng) as usize % n,
                                next_u64(&mut rng) as usize % n
                            ));
                        }
                        body.push_str("]}");
                        pairs_done += batch_size;
                        client.post("/batch", &body)
                    };
                    let resp = resp.expect("request failed mid-leg");
                    assert_eq!(resp.status, 200, "daemon answered {}", resp.body);
                    latencies.push(t0.elapsed().as_micros() as u64);
                }
                (latencies, pairs_done)
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut latencies = Vec::new();
    let mut pairs = 0usize;
    for h in handles {
        let (lat, p) = h.join().expect("bench connection panicked");
        latencies.extend(lat);
        pairs += p;
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len();
    LegResult {
        transport: leg.transport,
        mode: leg.mode,
        connections,
        batch_size: if leg.transport == "batch" {
            batch_size
        } else {
            1
        },
        duration_secs: elapsed,
        requests,
        pairs,
        qps: requests as f64 / elapsed,
        pairs_per_sec: pairs as f64 / elapsed,
        p50_us: percentile(&latencies, 50.0),
        p95_us: percentile(&latencies, 95.0),
        p99_us: percentile(&latencies, 99.0),
    }
}

fn main() {
    let cli = BenchCli::parse();
    cli.init_pool();
    let smoke = cli.smoke();

    let connections = cli
        .opt_usize("--connections")
        .unwrap_or(if smoke { 2 } else { 4 });
    let duration =
        Duration::from_secs(
            cli.opt_u64("--duration-secs")
                .unwrap_or(if smoke { 1 } else { 5 }),
        );
    let batch_size = cli
        .opt_usize("--batch-size")
        .unwrap_or(if smoke { 32 } else { 64 });

    // Either drive an external daemon or spawn one in-process.
    let (addr, server) = match cli.opt_str("--addr") {
        Some(addr) => {
            let addr = addr
                .parse()
                .unwrap_or_else(|_| panic!("--addr expects HOST:PORT, got {addr:?}"));
            (addr, None)
        }
        None => {
            let mut spec = BuildSpec::default();
            spec.n = cli.n(if smoke { 500 } else { spec.n });
            spec.deg = cli.opt_usize("--deg").unwrap_or(spec.deg);
            spec.seed = cli.seed(spec.seed);
            spec.weights = cli.weight_dist();
            let server = Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: connections.max(2),
                spec,
            })
            .expect("in-process server failed to start");
            (server.local_addr(), Some(server))
        }
    };

    // Read the vertex count back from the daemon so `--addr` mode needs no
    // duplicated spec.
    let mut probe = Client::connect(addr).expect("connect to daemon");
    let stats = probe.get("/stats").expect("GET /stats failed");
    assert_eq!(stats.status, 200, "daemon answered {}", stats.body);
    let n: usize = stats
        .field("n")
        .and_then(|v| v.parse().ok())
        .expect("/stats reported no n");
    drop(probe);

    println!(
        "serve_bench: {addr}, n = {n}, {connections} connections, \
         {}s per leg, batch size {batch_size}",
        duration.as_secs()
    );

    let seed = cli.seed(0xbe7c);
    let mut results = Vec::new();
    for leg in &LEGS {
        let r = run_leg(addr, leg, n, connections, duration, batch_size, seed);
        println!(
            "  {}/{}: {} req ({} pairs) in {:.2}s — {:.0} req/s, {:.0} pairs/s, \
             p50 {}us p95 {}us p99 {}us",
            r.transport,
            r.mode,
            r.requests,
            r.pairs,
            r.duration_secs,
            r.qps,
            r.pairs_per_sec,
            r.p50_us,
            r.p95_us,
            r.p99_us
        );
        results.push(r);
    }

    if let Some(server) = server {
        server.handle().shutdown();
        server.join();
    }

    let body: Vec<String> = results
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    let json = format!("[\n{}\n]\n", body.join(",\n"));
    if let Err(e) = std::fs::write("BENCH_serve.json", &json) {
        eprintln!("serve_bench: could not write BENCH_serve.json: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_serve.json ({} records)", results.len());
}
