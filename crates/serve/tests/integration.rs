//! End-to-end daemon tests: a real [`Server`] on an ephemeral loopback
//! port, driven through the real [`Client`], covering every endpoint
//! round-trip plus the PR's consistency contract — a `/rebuild` swap is
//! atomic, bumps the epoch, and never makes an in-flight reader mix
//! pre- and post-swap state.

use nas_serve::{BuildSpec, Client, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Starts a daemon on an ephemeral port with a small deterministic graph.
fn start_server() -> Server {
    let spec = BuildSpec {
        n: 300,
        deg: 6,
        seed: 11,
        ..BuildSpec::default()
    };
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        spec,
    })
    .expect("server start")
}

fn stop(server: Server) {
    server.handle().shutdown();
    server.join();
}

#[test]
fn health_distance_batch_round_trips() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Liveness + epoch 1.
    let health = client.get("/health").expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.field("status"), Some("\"ok\""));
    assert_eq!(health.field("epoch"), Some("1"));

    // One pair, both planes; spanner never beats exact.
    let resp = client.get("/distance?src=0&dst=250").expect("distance");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.field("epoch"), Some("1"));
    let exact: Option<u32> = resp.field("exact").and_then(|v| v.parse().ok());
    let spanner: Option<u32> = resp.field("spanner").and_then(|v| v.parse().ok());
    match (exact, spanner) {
        (Some(e), Some(s)) => assert!(s >= e, "spanner {s} < exact {e}"),
        _ => {
            assert_eq!(resp.field("exact"), Some("null"));
            assert_eq!(resp.field("spanner"), Some("null"));
        }
    }

    // Mode restriction: the excluded plane reports null.
    let resp = client
        .get("/distance?src=0&dst=250&mode=exact")
        .expect("distance exact");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.field("spanner"), Some("null"));

    // Batch answers agree with single-pair answers, in request order.
    let batch = client
        .post("/batch", r#"{"pairs":[[0,250],[5,7],[0,0]]}"#)
        .expect("batch");
    assert_eq!(batch.status, 200, "body: {}", batch.body);
    assert_eq!(batch.field("count"), Some("3"));
    // The self-pair is always 0 in both planes.
    assert!(
        batch
            .body
            .contains("{\"src\":0,\"dst\":0,\"exact\":0,\"spanner\":0,\"stretch\":1"),
        "body: {}",
        batch.body
    );
    for (u, v) in [(0usize, 250usize), (5, 7)] {
        let single = client
            .get(&format!("/distance?src={u}&dst={v}"))
            .expect("single");
        let single_pair = format!(
            "{{\"src\":{u},\"dst\":{v},{}",
            &single.body[single.body.find("\"exact\"").expect("exact field")..]
                .trim_end_matches('}')
        );
        assert!(
            batch.body.contains(&single_pair),
            "batch {} missing {single_pair}",
            batch.body
        );
    }

    // /stats reflects the traffic just generated.
    let stats = client.get("/stats").expect("stats");
    assert_eq!(stats.status, 200);
    assert_eq!(stats.field("epoch"), Some("1"));
    assert_eq!(stats.field("n"), Some("300"));
    let distance_count: u64 = stats
        .body
        .split("\"distance\":")
        .nth(1)
        .and_then(|r| r.split(',').next())
        .and_then(|v| v.parse().ok())
        .expect("distance counter");
    assert!(
        distance_count >= 3,
        "saw {distance_count} distance requests"
    );

    stop(server);
}

#[test]
fn errors_are_structured_not_fatal() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // 404, 405, missing params, out-of-range vertex, bad JSON, unknown
    // rebuild field, a κ past u32, graphs too small for their generator,
    // a valid κ whose schedule overflows, sizes past the vertex limit —
    // all structured, all leave the daemon serving.
    assert_eq!(client.get("/nope").expect("404").status, 404);
    assert_eq!(client.post("/distance", "{}").expect("405").status, 405);
    assert_eq!(client.get("/distance?src=0").expect("400").status, 400);
    assert_eq!(
        client
            .get("/distance?src=0&dst=999999")
            .expect("range")
            .status,
        400
    );
    assert_eq!(
        client.post("/batch", "not json").expect("bad json").status,
        400
    );
    assert_eq!(
        client
            .post("/rebuild", r#"{"volume":11}"#)
            .expect("unknown field")
            .status,
        400
    );
    let resp = client
        .post("/rebuild", r#"{"kappa":4294967300}"#)
        .expect("kappa past u32");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("kappa"), "body: {}", resp.body);
    for body in [
        r#"{"workload":"torus","n":4}"#,
        r#"{"workload":"pref_attach","n":10,"deg":40}"#,
        r#"{"kappa":4000000000,"rho":3e-10}"#,
    ] {
        let resp = client.post("/rebuild", body).expect("rejected spec");
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
    }
    let limit = nas_graph::io::MAX_TEXT_VERTICES.to_string();
    for body in [
        r#"{"workload":"path","n":4000000000}"#,
        r#"{"workload":"gnp","n":200000,"deg":400000}"#,
        r#"{"workload":"pref_attach","n":100000000,"deg":100}"#,
    ] {
        let resp = client.post("/rebuild", body).expect("past the limit");
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        assert!(resp.body.contains(&limit), "{body}: {}", resp.body);
    }
    // A failed rebuild must not bump the epoch.
    let health = client.get("/health").expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.field("epoch"), Some("1"));

    stop(server);
}

#[test]
fn rebuild_bumps_epoch_and_switches_planes() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Rebuild onto the weighted plane with a different workload.
    let resp = client
        .post(
            "/rebuild",
            r#"{"workload":"grid","n":256,"weights":"range:1:9","seed":3}"#,
        )
        .expect("rebuild");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.field("epoch"), Some("2"));
    assert_eq!(resp.field("workload"), Some("\"grid\""));
    assert_eq!(resp.field("weighted"), Some("true"));

    // New snapshot serves immediately; the grid is connected, so a
    // cross-corner pair has finite distances in both planes.
    let resp = client.get("/distance?src=0&dst=255").expect("distance");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.field("epoch"), Some("2"));
    let exact: u32 = resp
        .field("exact")
        .and_then(|v| v.parse().ok())
        .expect("finite exact distance on a grid");
    let spanner: u32 = resp
        .field("spanner")
        .and_then(|v| v.parse().ok())
        .expect("finite spanner distance on a grid");
    assert!(spanner >= exact);

    // Rebuild with an empty body repeats the current spec: epoch 3.
    let resp = client.post("/rebuild", "").expect("rebuild verbatim");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.field("epoch"), Some("3"));

    stop(server);
}

/// The PR's headline consistency contract: while a rebuild is running,
/// concurrent readers keep getting pre-swap answers — same epoch, same
/// distances — and only ever observe the old or the new snapshot whole,
/// never a mix.
#[test]
fn inflight_reads_during_rebuild_stay_consistent() {
    let server = start_server();
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).expect("connect");

    // Pin the epoch-1 answer for a fixed pair.
    let before = setup.get("/distance?src=1&dst=200").expect("baseline");
    assert_eq!(before.status, 200);
    assert_eq!(before.field("epoch"), Some("1"));
    let baseline = before.field("exact").map(str::to_string);

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let done = Arc::clone(&done);
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                let mut saw = (0u32, 0u32); // (epoch-1 answers, epoch-2 answers)
                while !done.load(Ordering::Relaxed) {
                    let resp = client.get("/distance?src=1&dst=200").expect("read");
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    match resp.field("epoch") {
                        Some("1") => {
                            // Pre-swap: byte-identical to the baseline.
                            assert_eq!(
                                resp.field("exact").map(str::to_string),
                                baseline,
                                "epoch-1 answer changed mid-rebuild"
                            );
                            saw.0 += 1;
                        }
                        Some("2") => saw.1 += 1,
                        other => panic!("unexpected epoch {other:?}"),
                    }
                }
                saw
            })
        })
        .collect();

    // A rebuild heavy enough to overlap the readers (larger n).
    let resp = setup
        .post("/rebuild", r#"{"n":4000,"deg":8,"seed":77}"#)
        .expect("rebuild");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.field("epoch"), Some("2"));
    // Let the readers observe the post-swap world too, then stop them.
    std::thread::sleep(std::time::Duration::from_millis(100));
    done.store(true, Ordering::Relaxed);

    let mut old_reads = 0;
    let mut new_reads = 0;
    for r in readers {
        let (o, n) = r.join().expect("reader panicked");
        old_reads += o;
        new_reads += n;
    }
    // Readers ran across the swap: both worlds were observed, each one
    // internally consistent (the per-read assertions above).
    assert!(old_reads > 0, "no reads overlapped the rebuild");
    assert!(new_reads > 0, "no reads observed the new snapshot");

    stop(server);
}

/// `POST /reload` streams a graph off disk — text edge list and compact
/// binary, sniffed by leading bytes — swaps epochs like a rebuild, and
/// rejects bad paths without touching the serving snapshot.
#[test]
fn reload_streams_graphs_from_disk() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A path on 64 vertices as whitespace edge-list text: end-to-end
    // distance is forced to 63, so the answer proves the file was served.
    let dir = std::env::temp_dir();
    let text_path = dir.join(format!(
        "nas_serve_reload_{}_text.graph",
        std::process::id()
    ));
    let mut text = String::from("p 64\n");
    for v in 0..63 {
        text.push_str(&format!("{v} {}\n", v + 1));
    }
    std::fs::write(&text_path, text).expect("write text graph");

    let body = format!("{{\"path\":{:?}}}", text_path.to_str().unwrap());
    let resp = client.post("/reload", &body).expect("reload text");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.field("epoch"), Some("2"));
    assert_eq!(resp.field("workload"), Some("\"file\""));
    assert_eq!(resp.field("n"), Some("64"));
    assert_eq!(resp.field("graph_edges"), Some("63"));
    let resp = client.get("/distance?src=0&dst=63").expect("distance");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.field("exact"), Some("63"));

    // The same graph through the NASC compact binary format.
    let compact = nas_graph::CompactGraph::from_graph(&nas_graph::generators::path(64));
    let mut bytes = Vec::new();
    nas_graph::io::write_compact(&compact, &mut bytes).expect("encode");
    let bin_path = dir.join(format!("nas_serve_reload_{}_bin.graph", std::process::id()));
    std::fs::write(&bin_path, bytes).expect("write binary graph");
    let body = format!("{{\"path\":{:?}}}", bin_path.to_str().unwrap());
    let resp = client.post("/reload", &body).expect("reload binary");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.field("epoch"), Some("3"));
    assert_eq!(resp.field("n"), Some("64"));

    // /stats reflects the file source and counts the reloads.
    let stats = client.get("/stats").expect("stats");
    assert_eq!(stats.field("workload"), Some("\"file\""));
    assert!(stats.body.contains("\"reloads\":2"), "body: {}", stats.body);

    // An empty body re-reads the most recent path — the "file changed on
    // disk, pick it up" case — and bumps the epoch again.
    let resp = client.post("/reload", "{}").expect("re-read");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.field("epoch"), Some("4"));

    // Failures are structured and never bump the epoch: an explicitly
    // cleared path, a nonexistent file, and corrupt bytes behind a valid
    // magic.
    assert_eq!(
        client
            .post("/reload", "{\"path\":null}")
            .expect("no path")
            .status,
        400
    );
    assert_eq!(
        client
            .post("/reload", "{\"path\":\"/nonexistent/nope.graph\"}")
            .expect("bad file")
            .status,
        400
    );
    let corrupt_path = dir.join(format!(
        "nas_serve_reload_{}_corrupt.graph",
        std::process::id()
    ));
    std::fs::write(&corrupt_path, b"NASC\x01broken").expect("write corrupt graph");
    let body = format!("{{\"path\":{:?}}}", corrupt_path.to_str().unwrap());
    assert_eq!(client.post("/reload", &body).expect("corrupt").status, 400);
    let health = client.get("/health").expect("health");
    assert_eq!(health.field("epoch"), Some("4"));

    for p in [&text_path, &bin_path, &corrupt_path] {
        let _ = std::fs::remove_file(p);
    }
    stop(server);
}

#[test]
fn shutdown_endpoint_stops_the_daemon() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client.post("/shutdown", "").expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(server.shutting_down());
    // join() returning proves the acceptor and all workers exited.
    server.join();
}
