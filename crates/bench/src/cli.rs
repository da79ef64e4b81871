//! Shared command-line parsing for the bench and serve binaries.
//!
//! [`BenchCli`] is one dialect — space-separated `--flag [value]` pairs, no
//! external dependencies — so every binary accepts the same switches with
//! the same semantics:
//!
//! * `--threads T` — size of the process-wide `nas-par` worker pool
//!   ([`BenchCli::init_pool`]); defaults to `NAS_THREADS`, else available
//!   parallelism.
//! * `--seed S` — workload-generator seed ([`BenchCli::seed`]).
//! * `--smoke` — reduced-size CI configuration ([`BenchCli::smoke`]).
//! * `--n N` — primary size override ([`BenchCli::n`]).
//!
//! * `--weights SPEC` — edge-weight distribution for the weighted legs
//!   ([`BenchCli::weight_dist`]): `unit`, `uniform:C` (every edge weight
//!   `C`), or `range:LO:HI` (seeded uniform integers in `[LO, HI]`).
//! * `--store flat|compact` — adjacency store for the simulated legs
//!   ([`BenchCli::store`]): the flat u32 CSR, or the delta/varint
//!   compressed plane (bit-identical transcripts, smaller resident set).
//!
//! Binaries with extra switches (e.g. `sim_scaling`'s
//! `--compare-threads`, `experiments`' `--preset`) read them through the
//! generic accessors ([`BenchCli::flag`], [`BenchCli::opt_str`],
//! [`BenchCli::opt_usize`]).

use nas_graph::WeightDist;

/// Parsed command-line arguments, shared by all bench binaries.
#[derive(Debug, Clone)]
pub struct BenchCli {
    args: Vec<String>,
}

impl BenchCli {
    /// Parses the process arguments (everything after the binary name).
    pub fn parse() -> Self {
        BenchCli {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// A `BenchCli` over explicit arguments (for tests).
    pub fn from_args<I: IntoIterator<Item = S>, S: Into<String>>(args: I) -> Self {
        BenchCli {
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether the boolean switch `name` (e.g. `"--smoke"`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The string value following the switch `name`, if present.
    pub fn opt_str(&self, name: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .cloned()
    }

    /// The numeric value following the switch `name`, if present.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value is not numeric —
    /// these are operator-facing binaries, not a library surface.
    pub fn opt_usize(&self, name: &str) -> Option<usize> {
        self.opt_str(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} expects a numeric value, got {v:?}"))
        })
    }

    /// The `--store flat|compact` switch as a [`nas_core::Store`]
    /// (default: flat).
    ///
    /// # Panics
    ///
    /// Panics with a readable message on an unknown store name.
    pub fn store(&self) -> nas_core::Store {
        match self.opt_str("--store").as_deref() {
            None | Some("flat") => nas_core::Store::Flat,
            Some("compact") => nas_core::Store::Compact,
            Some(other) => panic!("--store expects flat or compact, got {other:?}"),
        }
    }

    /// Like [`BenchCli::opt_usize`] for `u64` values.
    pub fn opt_u64(&self, name: &str) -> Option<u64> {
        self.opt_str(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} expects a numeric value, got {v:?}"))
        })
    }

    /// `--smoke`: the reduced-size CI configuration.
    pub fn smoke(&self) -> bool {
        self.flag("--smoke")
    }

    /// `--seed S`, falling back to `default`.
    pub fn seed(&self, default: u64) -> u64 {
        self.opt_u64("--seed").unwrap_or(default)
    }

    /// `--n N`, falling back to `default`.
    pub fn n(&self, default: usize) -> usize {
        self.opt_usize("--n").unwrap_or(default)
    }

    /// `--threads T`, falling back to `NAS_THREADS`, else available
    /// parallelism.
    pub fn threads(&self) -> usize {
        self.opt_usize("--threads")
            .unwrap_or_else(nas_par::default_threads)
    }

    /// `--weights SPEC`: the edge-weight distribution for weighted legs
    /// (`unit`, `uniform:C` or `range:LO:HI`, see [`WeightDist::parse`]),
    /// or `None` when the switch is absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message on a malformed spec — these are
    /// operator-facing binaries, not a library surface.
    pub fn weight_dist(&self) -> Option<WeightDist> {
        self.opt_str("--weights").map(|spec| {
            WeightDist::parse(&spec).unwrap_or_else(|| {
                panic!("--weights expects unit, uniform:C, or range:LO:HI, got {spec:?}")
            })
        })
    }

    /// Sizes the process-wide worker pool to [`BenchCli::threads`] — call
    /// once, before anything touches the global pool — and returns the lane
    /// count the pool has (`--threads 0` gets one lane). Warns (without
    /// failing) when the pool was already frozen at a different size.
    pub fn init_pool(&self) -> usize {
        let threads = self.threads();
        if let Err(frozen) = nas_par::init_global(threads) {
            if frozen != threads.max(1) {
                eprintln!(
                    "warning: global pool already sized to {frozen} lanes; --threads {threads} ignored"
                );
            }
        }
        nas_par::global().threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_weight_specs() {
        let dist = |spec: &str| BenchCli::from_args(["--weights", spec]).weight_dist();
        assert_eq!(dist("unit"), Some(WeightDist::Constant(1)));
        assert_eq!(dist("uniform:7"), Some(WeightDist::Constant(7)));
        assert_eq!(
            dist("range:1:100"),
            Some(WeightDist::Uniform { lo: 1, hi: 100 })
        );
        assert_eq!(BenchCli::from_args(["--smoke"]).weight_dist(), None);
    }

    #[test]
    #[should_panic(expected = "--weights expects unit, uniform:C, or range:LO:HI")]
    fn malformed_weight_specs_panic_readably() {
        BenchCli::from_args(["--weights", "range:9:1"]).weight_dist();
    }

    #[test]
    fn parses_the_shared_dialect() {
        let cli = BenchCli::from_args(["--smoke", "--seed", "7", "--n", "500", "--threads", "3"]);
        assert!(cli.smoke());
        assert_eq!(cli.seed(42), 7);
        assert_eq!(cli.n(1000), 500);
        assert_eq!(cli.threads(), 3);
        assert!(!cli.flag("--full-spanner"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let cli = BenchCli::from_args(Vec::<String>::new());
        assert!(!cli.smoke());
        assert_eq!(cli.seed(42), 42);
        assert_eq!(cli.n(1000), 1000);
        assert_eq!(cli.opt_str("--compare-threads"), None);
    }

    #[test]
    #[should_panic(expected = "--n expects a numeric value")]
    fn non_numeric_values_panic_readably() {
        BenchCli::from_args(["--n", "lots"]).n(10);
    }
}
