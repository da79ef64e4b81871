//! The daemon's state plane: build specs, immutable query snapshots, and
//! the epoch-versioned [`Store`] that swaps them atomically.
//!
//! The architecture is the classic handler/store split (the ROADMAP's
//! named exemplar): `handlers/` hold **no** state and only translate HTTP
//! to calls on this module. A [`Snapshot`] is everything one build
//! produced — base graph, spanner, and warm oracles — frozen behind an
//! `Arc`. The [`Store`] keeps the current `Arc<Snapshot>` behind an
//! `RwLock` used only as a pointer cell: readers clone the `Arc` (a
//! refcount bump, never blocked by a build) and then query their private
//! snapshot for as long as they like; [`Store::rebuild`] constructs the
//! next snapshot **outside** any lock and swaps the pointer at the end.
//! In-flight requests that cloned the old `Arc` keep answering from the
//! pre-swap state — the consistency contract the integration tests pin —
//! and the old snapshot is freed when its last reader drops it.
//!
//! Each snapshot owns a [`SpannerOracle`] pair, hop or weighted as the
//! spec's weight setting picks: one over the base graph `G` for exact
//! distances, one over the spanner `H`. Both keep their single-row caches
//! and pooled batch scratch warm behind one mutex, so the zero-alloc
//! steady state of the flat distance plane carries over to a long-lived
//! server: repeated `/batch` requests of the same shape allocate nothing
//! new.

use nas_core::{Backend, Params, Session, SessionError, StretchSummary};
use nas_graph::dist::DistanceBatch;
use nas_graph::{generators, Graph, WeightDist, WeightedGraph};
use nas_metrics::{OracleStats, SpannerOracle};
use nas_par::WorkerPool;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Largest number of pairs one `/batch` request may carry.
pub const MAX_BATCH_PAIRS: usize = 65_536;

/// The graph sources the daemon can build and rebuild from: the synthetic
/// families, plus graphs streamed off disk (`POST /reload`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `G(n, p)` with `p = deg / n`.
    Gnp,
    /// A `√n × √n` grid.
    Grid,
    /// A path on `n` vertices.
    Path,
    /// Preferential attachment with `deg / 2` edges per new vertex.
    PrefAttach,
    /// A `√n × √n` torus.
    Torus,
    /// A graph loaded from [`BuildSpec::path`] — compact binary (`NASC`
    /// magic) or whitespace edge-list text, sniffed from the leading
    /// bytes and streamed, never buffering the file.
    File,
}

impl Workload {
    /// The stable name used in CLI flags, JSON bodies, and `/stats`.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Gnp => "gnp",
            Workload::Grid => "grid",
            Workload::Path => "path",
            Workload::PrefAttach => "pref_attach",
            Workload::Torus => "torus",
            Workload::File => "file",
        }
    }

    /// Parses a workload name; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "gnp" => Some(Workload::Gnp),
            "grid" => Some(Workload::Grid),
            "path" => Some(Workload::Path),
            "pref_attach" => Some(Workload::PrefAttach),
            "torus" => Some(Workload::Torus),
            "file" => Some(Workload::File),
            _ => None,
        }
    }
}

/// Everything that determines one build — the daemon's startup
/// configuration and the payload of `POST /rebuild`.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSpec {
    /// Graph family.
    pub workload: Workload,
    /// Vertices.
    pub n: usize,
    /// Average-degree knob for the random families (ignored by
    /// grid/path/torus).
    pub deg: usize,
    /// Generator seed.
    pub seed: u64,
    /// Spanner construction parameters `(ε, κ, ρ)`.
    pub params: Params,
    /// `None` builds the hop-distance plane (BFS oracles); `Some` assigns
    /// seeded edge weights and builds the weighted plane (delta-stepping
    /// oracles).
    pub weights: Option<WeightDist>,
    /// Execution backend for the construction (centralized by default;
    /// the CONGEST backend additionally reports measured rounds in
    /// `/stats`).
    pub backend: Backend,
    /// Graph file for the [`Workload::File`] source (ignored — and kept —
    /// by the synthetic families, so a later `{"workload":"file"}` rebuild
    /// can reuse it).
    pub path: Option<String>,
}

impl Default for BuildSpec {
    fn default() -> Self {
        BuildSpec {
            workload: Workload::Gnp,
            n: 2_000,
            deg: 8,
            seed: 1,
            params: Params::practical(0.5, 4, 0.45),
            weights: None,
            backend: Backend::Centralized,
            path: None,
        }
    }
}

impl BuildSpec {
    /// Materializes the base graph this spec describes: generated for the
    /// synthetic families, streamed off disk for [`Workload::File`]. A
    /// size the generator cannot build (a torus side below 3, or no more
    /// vertices than preferential-attachment edges per vertex) is an
    /// [`BuildError::InvalidSpec`], not a panic, and so is a size above
    /// the limit text files have ([`nas_graph::io::MAX_TEXT_VERTICES`]):
    /// `n` for every synthetic family, and for `gnp` and `pref_attach`
    /// also the expected edge count `n·deg/2` their edge buffers are
    /// sized from. Both are checked before anything is generated.
    pub fn build_graph(&self) -> Result<Graph, BuildError> {
        let limit = nas_graph::io::MAX_TEXT_VERTICES;
        if self.workload != Workload::File && self.n > limit {
            return Err(BuildError::InvalidSpec(format!(
                "n = {} exceeds the limit of {limit} vertices",
                self.n
            )));
        }
        let edges = self.n.saturating_mul(self.deg) / 2;
        if matches!(self.workload, Workload::Gnp | Workload::PrefAttach) && edges > limit {
            return Err(BuildError::InvalidSpec(format!(
                "{} with n = {} and deg = {} expects {edges} edges, above the limit of {limit}",
                self.workload.name(),
                self.n,
                self.deg
            )));
        }
        let side = (self.n as f64).sqrt().round().max(2.0) as usize;
        let attach = (self.deg / 2).max(1);
        let too_small = |need: String| {
            Err(BuildError::InvalidSpec(format!(
                "{} needs {need}, got n = {}",
                self.workload.name(),
                self.n
            )))
        };
        Ok(match self.workload {
            Workload::Gnp => generators::gnp(self.n, self.deg as f64 / self.n as f64, self.seed),
            Workload::Grid => generators::grid2d(side, side),
            Workload::Path => generators::path(self.n),
            Workload::PrefAttach if self.n <= attach => {
                return too_small(format!("n > max(deg / 2, 1) = {attach}"));
            }
            Workload::PrefAttach => generators::preferential_attachment(self.n, attach, self.seed),
            Workload::Torus if side < 3 => {
                return too_small("n >= 7 (a side of at least 3)".into())
            }
            Workload::Torus => generators::torus2d(side, side),
            Workload::File => {
                let path = self.path.as_deref().ok_or_else(|| {
                    BuildError::InvalidSpec("the file workload needs a path".to_string())
                })?;
                return load_graph(path);
            }
        })
    }
}

/// Streams a graph from disk. The leading bytes pick the format — the
/// `NASC` magic selects the compact delta/varint binary, anything else
/// parses as whitespace edge-list text — and both loaders in
/// [`nas_graph::io`] read through a [`BufReader`](std::io::BufReader)
/// without ever materializing the file in memory.
fn load_graph(path: &str) -> Result<Graph, BuildError> {
    use std::io::BufRead;
    let file = std::fs::File::open(path)
        .map_err(|e| BuildError::InvalidSpec(format!("cannot open {path:?}: {e}")))?;
    let mut reader = std::io::BufReader::new(file);
    let head = reader
        .fill_buf()
        .map_err(|e| BuildError::InvalidSpec(format!("cannot read {path:?}: {e}")))?;
    let result = if head.starts_with(nas_graph::io::COMPACT_MAGIC) {
        nas_graph::io::read_compact(reader).map(|c| c.to_graph())
    } else {
        nas_graph::io::read_edge_list(reader)
    };
    result.map_err(|e| BuildError::InvalidSpec(format!("{path:?}: {e}")))
}

/// Why a build (initial or rebuild) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The spec is unusable before the construction even starts.
    InvalidSpec(String),
    /// The construction itself rejected the parameters.
    Session(SessionError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidSpec(msg) => write!(f, "invalid build spec: {msg}"),
            BuildError::Session(e) => write!(f, "construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SessionError> for BuildError {
    fn from(e: SessionError) -> Self {
        BuildError::Session(e)
    }
}

/// Which distance plane(s) a query touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Exact distances on the base graph only.
    Exact,
    /// Spanner distances only — the cheap leg a spanner exists for.
    Spanner,
    /// Both, plus the per-pair stretch (the default).
    #[default]
    Both,
}

impl QueryMode {
    /// Parses `exact` / `spanner` / `both`.
    pub fn parse(s: &str) -> Option<QueryMode> {
        match s {
            "exact" => Some(QueryMode::Exact),
            "spanner" => Some(QueryMode::Spanner),
            "both" => Some(QueryMode::Both),
            _ => None,
        }
    }

    fn wants_exact(&self) -> bool {
        matches!(self, QueryMode::Exact | QueryMode::Both)
    }

    fn wants_spanner(&self) -> bool {
        matches!(self, QueryMode::Spanner | QueryMode::Both)
    }
}

/// One pair's answer. The outer `Option` distinguishes "not requested by
/// the [`QueryMode`]" from the inner "unreachable in that graph".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairAnswer {
    /// Exact distance in `G` (`None` = not requested; `Some(None)` =
    /// disconnected pair).
    pub exact: Option<Option<u32>>,
    /// Distance in the spanner `H`.
    pub spanner: Option<Option<u32>>,
}

impl PairAnswer {
    /// `d_H / d_G` when both legs were computed and reachable, with the
    /// `d_G = 0` diagonal reporting stretch 1.
    pub fn stretch(&self) -> Option<f64> {
        let exact = self.exact.flatten()?;
        let spanner = self.spanner.flatten()?;
        Some(if exact == 0 {
            1.0
        } else {
            spanner as f64 / exact as f64
        })
    }
}

/// A query-time failure (HTTP 400, never a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A vertex index is not in `0..n`.
    OutOfRange {
        /// The offending index.
        v: usize,
        /// The snapshot's vertex count.
        n: usize,
    },
    /// A `/batch` request exceeded [`MAX_BATCH_PAIRS`].
    TooManyPairs {
        /// Pairs in the request.
        got: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::OutOfRange { v, n } => {
                write!(f, "vertex {v} out of range (n = {n})")
            }
            QueryError::TooManyPairs { got } => {
                write!(
                    f,
                    "batch of {got} pairs exceeds the cap of {MAX_BATCH_PAIRS}"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The warm, mutable query machinery of one snapshot: the oracle pair and
/// the pooled batch buffers, reused across requests so the steady state
/// allocates nothing new.
struct QueryState {
    /// Exact distances: the oracle over the base graph `G`.
    exact: SpannerOracle,
    /// Spanner distances: the oracle over `H`.
    spanner: SpannerOracle,
    /// Deduplicated batch sources (reused).
    sources: Vec<usize>,
    /// source vertex → row index in the batch fills (reused; cleared per
    /// request, capacity retained).
    source_slot: HashMap<usize, usize>,
    exact_batch: DistanceBatch,
    spanner_batch: DistanceBatch,
}

/// One immutable build result plus its warm query machinery — what every
/// request clones an `Arc` of. See the module docs for the swap protocol.
pub struct Snapshot {
    /// Monotone version, bumped by every successful rebuild.
    pub epoch: u64,
    /// The spec this snapshot was built from.
    pub spec: BuildSpec,
    /// Vertices.
    pub n: usize,
    /// Edges in the base graph `G`.
    pub graph_edges: usize,
    /// Edges in the spanner `H`.
    pub spanner_edges: usize,
    /// Construction wall time in milliseconds.
    pub build_wall_ms: f64,
    /// Simulated CONGEST rounds of the construction (0 on the centralized
    /// backend).
    pub rounds: u64,
    /// Messages of the construction (0 on the centralized backend).
    pub messages: u64,
    /// The schedule's stretch guarantees.
    pub stretch: StretchSummary,
    state: Mutex<QueryState>,
}

impl Snapshot {
    /// Builds a snapshot from a spec: generate the graph, run the
    /// construction, and warm up the oracle pair.
    pub fn build(spec: BuildSpec, epoch: u64) -> Result<Snapshot, BuildError> {
        if spec.workload != Workload::File && spec.n < 2 {
            return Err(BuildError::InvalidSpec(format!(
                "n = {} is too small to serve distances",
                spec.n
            )));
        }
        let start = Instant::now();
        let graph = spec.build_graph()?;
        if graph.num_vertices() < 2 {
            return Err(BuildError::InvalidSpec(format!(
                "n = {} is too small to serve distances",
                graph.num_vertices()
            )));
        }
        let report = Session::on(&graph)
            .params(spec.params)
            .backend(spec.backend)
            .run()?;
        let n = graph.num_vertices();
        let graph_edges = graph.num_edges();
        let spanner_edges = report.num_edges();
        let (exact, spanner) = match spec.weights {
            None => (
                SpannerOracle::new(graph),
                SpannerOracle::new(report.to_graph()),
            ),
            Some(dist) => {
                let weighted = WeightedGraph::from_graph(graph, dist, spec.seed);
                let spanner = SpannerOracle::weighted(report.to_weighted_graph(&weighted));
                (SpannerOracle::weighted(weighted), spanner)
            }
        };
        Ok(Snapshot {
            epoch,
            n,
            graph_edges,
            spanner_edges,
            build_wall_ms: start.elapsed().as_secs_f64() * 1e3,
            rounds: report.rounds(),
            messages: report.messages(),
            stretch: report.stretch,
            spec,
            state: Mutex::new(QueryState {
                exact,
                spanner,
                sources: Vec::new(),
                source_slot: HashMap::new(),
                exact_batch: DistanceBatch::new(),
                spanner_batch: DistanceBatch::new(),
            }),
        })
    }

    /// Whether this snapshot serves weighted distances.
    pub fn weighted(&self) -> bool {
        self.spec.weights.is_some()
    }

    fn check(&self, v: usize) -> Result<(), QueryError> {
        if v < self.n {
            Ok(())
        } else {
            Err(QueryError::OutOfRange { v, n: self.n })
        }
    }

    /// One pair's distances under `mode`, from the warm single-row caches.
    pub fn distance(&self, u: usize, v: usize, mode: QueryMode) -> Result<PairAnswer, QueryError> {
        self.check(u)?;
        self.check(v)?;
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Ok(PairAnswer {
            exact: mode.wants_exact().then(|| st.exact.distance(u, v)),
            spanner: mode.wants_spanner().then(|| st.spanner.distance(u, v)),
        })
    }

    /// Many pairs at once: sources are deduplicated, each distinct source
    /// costs one pooled BFS/SSSP row fill per requested plane, and the
    /// batch buffers are reused across requests (zero allocation in the
    /// steady state for same-shape batches).
    pub fn batch(
        &self,
        pairs: &[(usize, usize)],
        mode: QueryMode,
        pool: &WorkerPool,
    ) -> Result<Vec<PairAnswer>, QueryError> {
        if pairs.len() > MAX_BATCH_PAIRS {
            return Err(QueryError::TooManyPairs { got: pairs.len() });
        }
        for &(u, v) in pairs {
            self.check(u)?;
            self.check(v)?;
        }
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let QueryState {
            exact,
            spanner,
            sources,
            source_slot,
            exact_batch,
            spanner_batch,
        } = &mut *guard;
        sources.clear();
        source_slot.clear();
        for &(u, _) in pairs {
            let next = sources.len();
            source_slot.entry(u).or_insert_with(|| {
                sources.push(u);
                next
            });
        }
        if sources.is_empty() {
            return Ok(Vec::new());
        }
        if mode.wants_exact() {
            exact.distances_batch_into(sources, exact_batch, pool);
        }
        if mode.wants_spanner() {
            spanner.distances_batch_into(sources, spanner_batch, pool);
        }
        Ok(pairs
            .iter()
            .map(|&(u, v)| {
                let row = source_slot[&u];
                PairAnswer {
                    exact: mode.wants_exact().then(|| exact_batch.get(row, v)),
                    spanner: mode.wants_spanner().then(|| spanner_batch.get(row, v)),
                }
            })
            .collect())
    }

    /// The counter snapshots of the `(exact, spanner)` oracles.
    pub fn oracle_stats(&self) -> (OracleStats, OracleStats) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (st.exact.stats(), st.spanner.stats())
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("n", &self.n)
            .field("spanner_edges", &self.spanner_edges)
            .field("weighted", &self.weighted())
            .finish_non_exhaustive()
    }
}

/// The epoch-versioned snapshot cell (see the module docs for the swap
/// protocol and consistency contract).
pub struct Store {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes rebuilds; never held while answering queries.
    rebuild_gate: Mutex<()>,
    pool: Arc<WorkerPool>,
}

impl Store {
    /// Builds the initial snapshot (epoch 1) and opens the store over the
    /// process-wide worker pool.
    pub fn open(spec: BuildSpec) -> Result<Store, BuildError> {
        Store::open_with_pool(spec, nas_par::global_arc())
    }

    /// [`Store::open`] with an explicit worker pool (tests).
    pub fn open_with_pool(spec: BuildSpec, pool: Arc<WorkerPool>) -> Result<Store, BuildError> {
        let snapshot = Snapshot::build(spec, 1)?;
        Ok(Store {
            current: RwLock::new(Arc::new(snapshot)),
            rebuild_gate: Mutex::new(()),
            pool,
        })
    }

    /// The current snapshot — a refcount bump; the returned `Arc` stays
    /// valid (and consistent) across any number of concurrent rebuilds.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// The worker pool batch fills shard over. `nas-par` serializes
    /// concurrent broadcasts internally, so connection threads may share
    /// it freely.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Builds a new snapshot from `spec` and swaps it in atomically.
    ///
    /// The build runs on the calling thread with **no lock held** that any
    /// reader needs: queries proceed against the old snapshot for the
    /// whole build and only the final pointer swap takes the write lock
    /// (for the duration of one `Arc` clone). Concurrent rebuilds are
    /// serialized; each gets `previous epoch + 1`. On error the store is
    /// untouched.
    pub fn rebuild(&self, spec: BuildSpec) -> Result<Arc<Snapshot>, BuildError> {
        let _gate = self.rebuild_gate.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = self.epoch() + 1;
        let next = Arc::new(Snapshot::build(spec, epoch)?);
        let swapped = Arc::clone(&next);
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = next;
        Ok(swapped)
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> BuildSpec {
        BuildSpec {
            n: 300,
            ..BuildSpec::default()
        }
    }

    #[test]
    fn build_and_query_point_and_batch() {
        let store = Store::open_with_pool(small_spec(), Arc::new(WorkerPool::new(2))).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.epoch, 1);
        assert!(!snap.weighted());
        let a = snap.distance(0, 5, QueryMode::Both).unwrap();
        // Spanner distances never undercut exact ones.
        if let (Some(Some(e)), Some(Some(s))) = (a.exact, a.spanner) {
            assert!(s >= e);
            assert!(a.stretch().unwrap() >= 1.0);
        }
        // Batch answers match point answers pair for pair.
        let pairs: Vec<(usize, usize)> = (0..20).map(|i| (i % 7, (i * 13) % 300)).collect();
        let batch = snap.batch(&pairs, QueryMode::Both, store.pool()).unwrap();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let point = snap.distance(u, v, QueryMode::Both).unwrap();
            assert_eq!(batch[i], point, "pair ({u}, {v})");
        }
        // Mode restriction leaves the other leg uncomputed.
        let only = snap.distance(1, 2, QueryMode::Spanner).unwrap();
        assert_eq!(only.exact, None);
        assert!(only.spanner.is_some());
        assert_eq!(only.stretch(), None);
    }

    #[test]
    fn weighted_snapshots_serve_weighted_distances() {
        let spec = BuildSpec {
            weights: Some(WeightDist::Uniform { lo: 1, hi: 9 }),
            ..small_spec()
        };
        let store = Store::open_with_pool(spec, Arc::new(WorkerPool::new(1))).unwrap();
        let snap = store.snapshot();
        assert!(snap.weighted());
        let a = snap.distance(0, 250, QueryMode::Both).unwrap();
        if let (Some(Some(e)), Some(Some(s))) = (a.exact, a.spanner) {
            assert!(s >= e);
        }
        let (exact_stats, spanner_stats) = snap.oracle_stats();
        assert!(exact_stats.traversals >= 1);
        assert!(spanner_stats.traversals >= 1);
    }

    #[test]
    fn rebuild_bumps_epoch_and_old_snapshots_stay_consistent() {
        let store = Store::open_with_pool(small_spec(), Arc::new(WorkerPool::new(1))).unwrap();
        let old = store.snapshot();
        let before = old.distance(0, 7, QueryMode::Both).unwrap();
        let rebuilt = store
            .rebuild(BuildSpec {
                seed: 2,
                ..small_spec()
            })
            .unwrap();
        assert_eq!(rebuilt.epoch, 2);
        assert_eq!(store.epoch(), 2);
        // The retained pre-swap Arc still answers — identically.
        assert_eq!(old.epoch, 1);
        assert_eq!(old.distance(0, 7, QueryMode::Both).unwrap(), before);
        // Failed rebuilds leave the store untouched: a graph too small to
        // serve, and sizes past the limit whose edge buffers alone would
        // take 32 GB (path), 160 GB (`gnp` with `deg ≥ n` is `complete`)
        // and 40 GB (pref_attach).
        let limit = nas_graph::io::MAX_TEXT_VERTICES.to_string();
        for (workload, n, deg, names_limit) in [
            (Workload::Gnp, 1, 8, false),
            (Workload::Path, 4_000_000_000, 8, true),
            (Workload::Gnp, 200_000, 400_000, true),
            (Workload::PrefAttach, 100_000_000, 100, true),
        ] {
            let err = store
                .rebuild(BuildSpec {
                    workload,
                    n,
                    deg,
                    ..small_spec()
                })
                .unwrap_err();
            assert!(
                matches!(err, BuildError::InvalidSpec(ref m) if m.contains(&limit) == names_limit),
                "{workload:?} n = {n} deg = {deg}: {err}"
            );
            assert_eq!(store.epoch(), 2);
        }
    }

    #[test]
    fn query_errors_are_typed() {
        let store = Store::open_with_pool(small_spec(), Arc::new(WorkerPool::new(1))).unwrap();
        let snap = store.snapshot();
        assert_eq!(
            snap.distance(0, 300, QueryMode::Both).unwrap_err(),
            QueryError::OutOfRange { v: 300, n: 300 }
        );
        let too_many = vec![(0usize, 1usize); MAX_BATCH_PAIRS + 1];
        assert_eq!(
            snap.batch(&too_many, QueryMode::Both, store.pool())
                .unwrap_err(),
            QueryError::TooManyPairs {
                got: MAX_BATCH_PAIRS + 1
            }
        );
        assert!(snap
            .batch(&[], QueryMode::Both, store.pool())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in [
            Workload::Gnp,
            Workload::Grid,
            Workload::Path,
            Workload::PrefAttach,
            Workload::Torus,
        ] {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                BuildSpec {
                    workload: w,
                    n: 100,
                    ..BuildSpec::default()
                }
                .build_graph()
                .unwrap()
                .num_vertices()
                    >= 99
            );
        }
        assert_eq!(Workload::parse(Workload::File.name()), Some(Workload::File));
        assert_eq!(Workload::parse("mesh"), None);
        assert_eq!(QueryMode::parse("exact"), Some(QueryMode::Exact));
        assert_eq!(QueryMode::parse("nope"), None);
    }

    /// A scratch file under the system temp dir, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(tag: &str, bytes: &[u8]) -> TempFile {
            let path = std::env::temp_dir().join(format!(
                "nas_serve_store_{}_{tag}.graph",
                std::process::id()
            ));
            std::fs::write(&path, bytes).expect("write temp graph");
            TempFile(path)
        }

        fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 temp path")
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn file_workload_streams_text_and_compact_binary() {
        // Text edge list: a path on 40 vertices with an explicit header.
        let mut text = String::from("p 40\n");
        for v in 0..39 {
            text.push_str(&format!("{v} {}\n", v + 1));
        }
        let text_file = TempFile::new("text", text.as_bytes());

        // Compact binary: the same path graph through the NASC format.
        let compact = nas_graph::CompactGraph::from_graph(&generators::path(40));
        let mut bytes = Vec::new();
        nas_graph::io::write_compact(&compact, &mut bytes).unwrap();
        let bin_file = TempFile::new("bin", &bytes);

        let spec = |path: &TempFile| BuildSpec {
            workload: Workload::File,
            path: Some(path.as_str().to_string()),
            ..BuildSpec::default()
        };
        let store = Store::open_with_pool(spec(&text_file), Arc::new(WorkerPool::new(1))).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.n, 40);
        assert_eq!(snap.graph_edges, 39);
        // On a path the exact end-to-end distance is forced.
        let a = snap.distance(0, 39, QueryMode::Both).unwrap();
        assert_eq!(a.exact, Some(Some(39)));

        // Reloading the binary twin swaps epochs and serves identically.
        let rebuilt = store.rebuild(spec(&bin_file)).unwrap();
        assert_eq!(rebuilt.epoch, 2);
        assert_eq!(rebuilt.n, 40);
        assert_eq!(rebuilt.graph_edges, 39);
        assert_eq!(
            rebuilt.distance(0, 39, QueryMode::Both).unwrap().exact,
            Some(Some(39))
        );
    }

    #[test]
    fn file_workload_failures_are_typed_and_leave_the_store_intact() {
        // No path at all.
        let err = Snapshot::build(
            BuildSpec {
                workload: Workload::File,
                ..BuildSpec::default()
            },
            1,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidSpec(ref m) if m.contains("path")));

        // Missing file, corrupt binary, out-of-range text edge, a header
        // past the u32 id range, a 13-byte edge list whose one id implies
        // 4·10^9 vertices, a NASC header claiming a 120 GiB payload it does
        // not carry: each is a clean InvalidSpec naming the file, and a
        // failed reload never bumps the epoch.
        let store = Store::open_with_pool(small_spec(), Arc::new(WorkerPool::new(1))).unwrap();
        let corrupt = TempFile::new("corrupt", b"NASC\x01garbage");
        let bad_edge = TempFile::new("bad_edge", b"p 4\n0 9\n");
        let huge_n = TempFile::new("huge_n", b"p 5000000000\n");
        let huge_id = TempFile::new("huge_id", b"0 4000000000\n");
        let mut claim = b"NASC\x01".to_vec();
        for x in [1u64 << 32, 1 << 32, 0] {
            claim.extend(x.to_le_bytes());
        }
        claim.extend((1u32 << 31).to_le_bytes());
        claim.extend((120u64 << 30).to_le_bytes());
        claim.extend(2u64.to_le_bytes());
        let huge_claim = TempFile::new("huge_claim", &claim);
        for path in [
            "/nonexistent/no_such_graph.bin".to_string(),
            corrupt.as_str().to_string(),
            bad_edge.as_str().to_string(),
            huge_n.as_str().to_string(),
            huge_id.as_str().to_string(),
            huge_claim.as_str().to_string(),
        ] {
            let err = store
                .rebuild(BuildSpec {
                    workload: Workload::File,
                    path: Some(path.clone()),
                    ..BuildSpec::default()
                })
                .unwrap_err();
            assert!(
                matches!(err, BuildError::InvalidSpec(ref m) if m.contains(path.rsplit('/').next().unwrap())),
                "error for {path:?} should name the file: {err}"
            );
            assert_eq!(store.epoch(), 1);
        }
    }
}
