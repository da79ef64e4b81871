//! `GET /health`, `GET /stats`, `POST /rebuild`, `POST /reload`,
//! `POST /shutdown` — the operational surface.

use super::{Ctx, Metrics};
use crate::http::{Request, Response};
use crate::json::{escape, num, Json};
use crate::store::{BuildSpec, Workload};
use nas_core::Backend;
use nas_graph::WeightDist;
use nas_metrics::OracleStats;
use std::sync::atomic::Ordering;

/// `GET /health` — liveness plus the current epoch.
pub fn health(ctx: &Ctx<'_>) -> Response {
    Response::json(format!(
        "{{\"status\":\"ok\",\"epoch\":{}}}",
        ctx.store.epoch()
    ))
}

/// `GET /stats` — the current snapshot's build record, both oracles'
/// [`OracleStats`], and the server's request counters.
pub fn stats(ctx: &Ctx<'_>) -> Response {
    let snap = ctx.store.snapshot();
    let (exact, spanner) = snap.oracle_stats();
    let m = ctx.metrics;
    Response::json(format!(
        concat!(
            "{{\"epoch\":{},\"workload\":{},\"path\":{},\"n\":{},\"deg\":{},\"seed\":{},",
            "\"weighted\":{},\"weights\":{},\"backend\":{},",
            "\"graph_edges\":{},\"spanner_edges\":{},\"build_wall_ms\":{},",
            "\"rounds\":{},\"messages\":{},",
            "\"stretch\":{{\"alpha_nominal\":{},\"beta_nominal\":{},",
            "\"alpha_envelope\":{},\"beta_envelope\":{}}},",
            "\"threads\":{},",
            "\"oracles\":{{\"exact\":{},\"spanner\":{}}},",
            "\"server\":{{\"requests\":{},\"distance\":{},\"batch\":{},",
            "\"batch_pairs\":{},\"rebuilds\":{},\"reloads\":{},\"errors\":{}}}}}"
        ),
        snap.epoch,
        escape(snap.spec.workload.name()),
        snap.spec
            .path
            .as_deref()
            .map_or_else(|| "null".to_string(), escape),
        snap.n,
        snap.spec.deg,
        snap.spec.seed,
        snap.weighted(),
        snap.spec
            .weights
            .map_or_else(|| "null".to_string(), |w| escape(&w.to_string())),
        escape(snap.spec.backend.name()),
        snap.graph_edges,
        snap.spanner_edges,
        num(snap.build_wall_ms),
        snap.rounds,
        snap.messages,
        num(snap.stretch.alpha_nominal),
        num(snap.stretch.beta_nominal),
        num(snap.stretch.alpha_envelope),
        num(snap.stretch.beta_envelope),
        ctx.store.pool().threads(),
        oracle_json(&exact),
        oracle_json(&spanner),
        Metrics::get(&m.requests),
        Metrics::get(&m.distance),
        Metrics::get(&m.batch),
        Metrics::get(&m.batch_pairs),
        Metrics::get(&m.rebuilds),
        Metrics::get(&m.reloads),
        Metrics::get(&m.errors),
    ))
}

fn oracle_json(s: &OracleStats) -> String {
    format!(
        "{{\"point_queries\":{},\"cache_hits\":{},\"traversals\":{},\"cached_rows\":{}}}",
        s.point_queries, s.cache_hits, s.traversals, s.cached_rows
    )
}

/// `POST /rebuild` — build a new snapshot and swap it in.
///
/// Body: a JSON object overriding any subset of the current spec —
/// `"workload"`, `"n"`, `"deg"`, `"seed"`, `"eps"`, `"kappa"`, `"rho"`,
/// `"weights"` (a `--weights`-style spec string, or `null` to return to
/// hop distances), `"backend"`. An empty body rebuilds the current spec
/// verbatim. The build runs on this connection's thread; concurrent reads
/// keep answering from the pre-swap snapshot throughout.
pub fn rebuild(req: &Request, ctx: &Ctx<'_>) -> Response {
    let current = ctx.store.snapshot();
    let spec = match parse_spec_overrides(&req.body, current.spec.clone()) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    match ctx.store.rebuild(spec) {
        Ok(snap) => {
            Metrics::bump(&ctx.metrics.rebuilds);
            Response::json(format!(
                concat!(
                    "{{\"epoch\":{},\"workload\":{},\"n\":{},\"seed\":{},\"weighted\":{},",
                    "\"spanner_edges\":{},\"build_wall_ms\":{}}}"
                ),
                snap.epoch,
                escape(snap.spec.workload.name()),
                snap.n,
                snap.spec.seed,
                snap.weighted(),
                snap.spanner_edges,
                num(snap.build_wall_ms),
            ))
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// `POST /reload` — stream a graph from a file on the server's disk and
/// swap it in as a new epoch.
///
/// Body: a JSON object with a required `"path"` plus any `/rebuild`
/// override (`"eps"`, `"weights"`, `"backend"`, …; `"path"` alone keeps
/// the rest of the current spec). The file's leading bytes pick the
/// format — the `NASC` magic selects the compact delta/varint binary,
/// anything else parses as whitespace edge-list text — and both loaders
/// stream, never buffering the file. The load, the spanner construction,
/// and the oracle warm-up all run outside any lock; in-flight readers
/// keep answering from the pre-swap snapshot and a failed reload leaves
/// the epoch untouched.
pub fn reload(req: &Request, ctx: &Ctx<'_>) -> Response {
    let current = ctx.store.snapshot();
    let mut spec = match parse_spec_overrides(&req.body, current.spec.clone()) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    spec.workload = Workload::File;
    let Some(path) = spec.path.clone() else {
        return Response::error(400, "reload needs a \"path\" to a graph file");
    };
    match ctx.store.rebuild(spec) {
        Ok(snap) => {
            Metrics::bump(&ctx.metrics.reloads);
            Response::json(format!(
                concat!(
                    "{{\"epoch\":{},\"workload\":{},\"path\":{},\"n\":{},",
                    "\"graph_edges\":{},\"weighted\":{},\"spanner_edges\":{},",
                    "\"build_wall_ms\":{}}}"
                ),
                snap.epoch,
                escape(snap.spec.workload.name()),
                escape(&path),
                snap.n,
                snap.graph_edges,
                snap.weighted(),
                snap.spanner_edges,
                num(snap.build_wall_ms),
            ))
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// `POST /shutdown` — acknowledge, then stop accepting and drain.
pub fn shutdown(ctx: &Ctx<'_>) -> Response {
    ctx.shutdown.store(true, Ordering::SeqCst);
    Response::json("{\"status\":\"shutting down\"}".to_string())
}

/// Applies a `/rebuild` body's overrides to `base`.
fn parse_spec_overrides(body: &[u8], mut base: BuildSpec) -> Result<BuildSpec, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| Response::error(400, "body must be UTF-8 JSON"))?;
    if text.trim().is_empty() {
        return Ok(base);
    }
    let doc = Json::parse(text).map_err(|e| Response::error(400, &e.to_string()))?;
    let fields = match &doc {
        Json::Obj(fields) => fields,
        _ => return Err(Response::error(400, "body must be a JSON object")),
    };
    for (key, value) in fields {
        match key.as_str() {
            "workload" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| Response::error(400, "workload must be a string"))?;
                base.workload = Workload::parse(name).ok_or_else(|| {
                    Response::error(
                        400,
                        &format!(
                            "unknown workload {name:?} (gnp, grid, path, pref_attach, torus, file)"
                        ),
                    )
                })?;
            }
            "path" => {
                base.path = match value {
                    Json::Null => None,
                    Json::Str(p) => Some(p.clone()),
                    _ => return Err(Response::error(400, "path must be a string or null")),
                };
            }
            "n" => base.n = parse_usize(value, "n")?,
            "deg" => base.deg = parse_usize(value, "deg")?,
            "seed" => {
                base.seed = value
                    .as_u64()
                    .ok_or_else(|| Response::error(400, "seed must be a non-negative integer"))?
            }
            "eps" => base.params.eps = parse_f64(value, "eps")?,
            "rho" => base.params.rho = parse_f64(value, "rho")?,
            "kappa" => {
                base.params.kappa = u32::try_from(parse_usize(value, "kappa")?).map_err(|_| {
                    Response::error(400, &format!("kappa must be at most {}", u32::MAX))
                })?
            }
            "weights" => {
                base.weights = match value {
                    Json::Null => None,
                    Json::Str(spec) => Some(WeightDist::parse(spec).ok_or_else(|| {
                        Response::error(
                            400,
                            &format!(
                                "weights must be unit, uniform:C, or range:LO:HI, got {spec:?}"
                            ),
                        )
                    })?),
                    _ => return Err(Response::error(400, "weights must be a string or null")),
                };
            }
            "backend" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| Response::error(400, "backend must be a string"))?;
                base.backend = parse_backend(name).ok_or_else(|| {
                    Response::error(
                        400,
                        &format!("unknown backend {name:?} (centralized, congest, local, full)"),
                    )
                })?;
            }
            other => {
                return Err(Response::error(
                    400,
                    &format!("unknown rebuild field {other:?}"),
                ))
            }
        }
    }
    Ok(base)
}

/// Parses a backend name (inverse of [`Backend::name`]).
pub fn parse_backend(name: &str) -> Option<Backend> {
    match name {
        "centralized" => Some(Backend::Centralized),
        "congest" => Some(Backend::Congest),
        "local" => Some(Backend::Local),
        "full" => Some(Backend::Full),
        _ => None,
    }
}

fn parse_usize(value: &Json, name: &str) -> Result<usize, Response> {
    value
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| Response::error(400, &format!("{name} must be a non-negative integer")))
}

fn parse_f64(value: &Json, name: &str) -> Result<f64, Response> {
    value
        .as_f64()
        .ok_or_else(|| Response::error(400, &format!("{name} must be a number")))
}
