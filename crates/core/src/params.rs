//! Parameters and the per-phase schedule (eqs. (1)–(3) and §2.4.4).
//!
//! The paper's algorithm is controlled by three user parameters: `ε` (the
//! multiplicative stretch slack), `κ` (the size exponent: the spanner has
//! `O(β·n^{1+1/κ})` edges) and `ρ` (the time exponent: the algorithm runs in
//! `O(β·n^ρ·ρ⁻¹)` rounds). From these, a [`Schedule`] is derived:
//!
//! * the number of phases `ℓ = ⌊log₂ κρ⌋ + ⌈(κ+1)/(κρ)⌉ − 1`,
//! * the last exponential-growth phase `i₀ = ⌊log₂ κρ⌋`,
//! * per-phase degree thresholds `deg_i = n^{2^i/κ}` (exponential-growth
//!   stage, `i ≤ i₀`) and `deg_i = n^ρ` (fixed-growth stage, `i > i₀`),
//! * per-phase distance thresholds `δ_i = ε⁻ⁱ + 2·R_i` (eq. (3)) where `R_i`
//!   bounds the radius of phase-`i` clusters (eq. (2)).
//!
//! # Paper vs. practical constants
//!
//! The paper's analysis rescales `ε` by `30ℓ/ρ` (§2.4.4) and assumes
//! `ε·ρ ≥ 10` *in internal units* — worst-case constants that make `δ_i`
//! astronomically large for any graph that fits in memory. We therefore
//! support two modes:
//!
//! * [`Mode::Paper`] — the user-facing `ε` is rescaled exactly as in §2.4.4;
//!   use for analytic tables and (tiny) worst-case-faithful tests.
//! * [`Mode::Practical`] — the given `ε` is used directly as the internal
//!   `ε` of eqs. (2)–(3). All *structural* invariants (separation,
//!   popularity thresholds, partition, radius bounds) are preserved; only
//!   the worst-case stretch constants differ. This is the mode the
//!   measurable experiments run in.
//!
//! In both modes the cluster-radius bound `R_i` used by the implementation
//! is the *exact integer recurrence* `R_{i+1} = depth_i + R_i` with
//! `depth_i = 2·c·δ_i` (the superclustering BFS depth, where `c = ⌈ρ⁻¹⌉` is
//! the ruling-set iteration count). This never exceeds the paper's
//! closed-form bound `R_{i+1} = (2/ρ_eff)ε⁻ⁱ + (5/ρ_eff)R_i` evaluated at
//! the effective `ρ_eff = 1/c ≤ ρ` (asserted in tests), so every lemma that
//! relies on `R_i` holds verbatim with `ρ_eff` in place of `ρ`.

use nas_ruling::RulingParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which constant regime to derive the schedule in. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Exact §2.4.4 constants: `ε_internal = ε·ρ/(30ℓ)`.
    Paper,
    /// `ε_internal = ε`; runnable thresholds, identical structure.
    Practical,
}

/// Errors from parameter validation and schedule derivation.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// `ε` must lie in `(0, 1]`.
    EpsilonOutOfRange(f64),
    /// `κ` must be at least 2.
    KappaTooSmall(u32),
    /// `ρ` must satisfy `1/κ ≤ ρ < 1/2`.
    RhoOutOfRange {
        /// The offending value.
        rho: f64,
        /// The lower bound `1/κ`.
        lo: f64,
    },
    /// The derived `δ_i` exceeded [`Schedule::MAX_DELTA`]; the schedule is
    /// not runnable at this scale (use larger `ε`/`ρ` or `Mode::Practical`).
    ScheduleOverflow {
        /// The phase whose threshold overflowed.
        phase: usize,
        /// The overflowing value.
        delta: u64,
    },
    /// The graph must have at least 2 vertices.
    GraphTooSmall(usize),
}

impl ParamError {
    /// The name of the parameter (or derived quantity) the error is about —
    /// stable identifiers for programmatic handling and error tables.
    pub fn field(&self) -> &'static str {
        match self {
            ParamError::EpsilonOutOfRange(_) => "epsilon",
            ParamError::KappaTooSmall(_) => "kappa",
            ParamError::RhoOutOfRange { .. } => "rho",
            ParamError::ScheduleOverflow { .. } => "delta",
            ParamError::GraphTooSmall(_) => "n",
        }
    }

    /// The offending value, rendered. Together with [`ParamError::field`]
    /// this gives `(field, value)` without string-parsing the display form.
    pub fn offending(&self) -> String {
        match self {
            ParamError::EpsilonOutOfRange(e) => e.to_string(),
            ParamError::KappaTooSmall(k) => k.to_string(),
            ParamError::RhoOutOfRange { rho, .. } => rho.to_string(),
            ParamError::ScheduleOverflow { delta, .. } => delta.to_string(),
            ParamError::GraphTooSmall(n) => n.to_string(),
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::EpsilonOutOfRange(e) => write!(f, "epsilon {e} not in (0, 1]"),
            ParamError::KappaTooSmall(k) => write!(f, "kappa {k} must be at least 2"),
            ParamError::RhoOutOfRange { rho, lo } => {
                write!(f, "rho {rho} not in [{lo}, 0.5)")
            }
            ParamError::ScheduleOverflow { phase, delta } => {
                write!(f, "distance threshold overflow at phase {phase}: {delta}")
            }
            ParamError::GraphTooSmall(n) => write!(f, "graph with {n} vertices is too small"),
        }
    }
}

impl std::error::Error for ParamError {}

/// User-facing parameters `(ε, κ, ρ)` plus the constant [`Mode`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Multiplicative stretch slack; the spanner is a `(1+ε, β)`-spanner.
    pub eps: f64,
    /// Size exponent: `O(β·n^{1+1/κ})` edges.
    pub kappa: u32,
    /// Time exponent: `O(β·n^ρ·ρ⁻¹)` rounds. Must satisfy `1/κ ≤ ρ < 1/2`.
    pub rho: f64,
    /// Constant regime.
    pub mode: Mode,
}

impl Params {
    /// Convenience constructor for [`Mode::Practical`] parameters.
    pub fn practical(eps: f64, kappa: u32, rho: f64) -> Self {
        Params {
            eps,
            kappa,
            rho,
            mode: Mode::Practical,
        }
    }

    /// Convenience constructor for [`Mode::Paper`] parameters.
    pub fn paper(eps: f64, kappa: u32, rho: f64) -> Self {
        Params {
            eps,
            kappa,
            rho,
            mode: Mode::Paper,
        }
    }

    /// Validates the parameters (independent of `n`).
    ///
    /// # Errors
    ///
    /// See [`ParamError`].
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(self.eps > 0.0 && self.eps <= 1.0) {
            return Err(ParamError::EpsilonOutOfRange(self.eps));
        }
        if self.kappa < 2 {
            return Err(ParamError::KappaTooSmall(self.kappa));
        }
        let lo = 1.0 / self.kappa as f64;
        if !(self.rho >= lo && self.rho < 0.5) {
            return Err(ParamError::RhoOutOfRange { rho: self.rho, lo });
        }
        Ok(())
    }

    /// Number of phases `ℓ = ⌊log₂ κρ⌋ + ⌈(κ+1)/(κρ)⌉ − 1` (§2.1).
    pub fn ell(&self) -> usize {
        let kr = self.kappa as f64 * self.rho;
        let i0 = kr.log2().floor() as i64; // κρ ≥ 1 ⟹ i0 ≥ 0
        let i0 = i0.max(0) as usize;
        let fixed = ((self.kappa as f64 + 1.0) / kr).ceil() as usize;
        i0 + fixed - 1
    }

    /// Last phase of the exponential-growth stage, `i₀ = ⌊log₂ κρ⌋`.
    pub fn i0(&self) -> usize {
        let kr = self.kappa as f64 * self.rho;
        kr.log2().floor().max(0.0) as usize
    }

    /// The internal `ε` the recurrences run with (mode-dependent).
    pub fn eps_internal(&self) -> f64 {
        match self.mode {
            Mode::Practical => self.eps,
            Mode::Paper => {
                let ell = self.ell().max(1) as f64;
                self.eps * self.rho / (30.0 * ell)
            }
        }
    }

    /// The ruling-set iteration count `c = ⌈ρ⁻¹⌉` (Theorem 2.2 is invoked
    /// with `c = ρ⁻¹`; we round up to an integer).
    pub fn ruling_c(&self) -> u32 {
        (1.0 / self.rho).ceil() as u32
    }

    /// Derives the full per-phase schedule for an `n`-vertex graph.
    ///
    /// # Errors
    ///
    /// Returns an error if parameters are invalid, `n < 2`, or a distance
    /// threshold overflows [`Schedule::MAX_DELTA`].
    pub fn schedule(&self, n: usize) -> Result<Schedule, ParamError> {
        self.validate()?;
        if n < 2 {
            return Err(ParamError::GraphTooSmall(n));
        }
        let ell = self.ell();
        let i0 = self.i0();
        let eps = self.eps_internal();
        let c = self.ruling_c();
        let nf = n as f64;

        // No capacity from `ell`: it grows linearly in κ when ρ is near
        // 1/κ, while δ passes `MAX_DELTA` within a few phases for any κ.
        let mut delta = Vec::new();
        let mut r_bound = vec![0u64];
        let mut deg = Vec::new();
        for i in 0..=ell {
            let eps_pow = (1.0 / eps).powi(i as i32);
            let d = eps_pow.ceil() as u64 + 2 * r_bound[i];
            if d > Schedule::MAX_DELTA {
                return Err(ParamError::ScheduleOverflow { phase: i, delta: d });
            }
            delta.push(d);
            // Superclustering BFS depth = ruling-set domination radius
            // = c · q with q = 2δ_i.
            let depth = 2 * c as u64 * d;
            r_bound.push(depth + r_bound[i]);

            let exponent = if i <= i0 {
                (1u32 << i) as f64 / self.kappa as f64
            } else {
                self.rho
            };
            let dg = nf.powf(exponent).ceil() as u64;
            deg.push(dg.max(1));
        }
        r_bound.truncate(ell + 1);

        Ok(Schedule {
            params: *self,
            n,
            ell,
            i0,
            eps_internal: eps,
            ruling_c: c,
            delta,
            deg,
            r_bound,
        })
    }
}

/// The fully derived per-phase schedule for a given `n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The parameters the schedule was derived from.
    pub params: Params,
    /// The vertex count it was derived for.
    pub n: usize,
    /// Number of the last phase (phases are `0..=ell`).
    pub ell: usize,
    /// Last exponential-growth phase.
    pub i0: usize,
    /// Internal `ε` of the recurrences.
    pub eps_internal: f64,
    /// Ruling-set iteration count `c = ⌈ρ⁻¹⌉`.
    pub ruling_c: u32,
    /// `δ_i` per phase (eq. (3), integerized).
    pub delta: Vec<u64>,
    /// `deg_i` per phase.
    pub deg: Vec<u64>,
    /// Exact integer cluster-radius bounds `R_i` (see module docs).
    pub r_bound: Vec<u64>,
}

impl Schedule {
    /// Largest `δ_i` we consider runnable (also keeps `2δ_i` within `u32`
    /// for the ruling-set interface).
    pub const MAX_DELTA: u64 = 1 << 30;

    /// Superclustering BFS depth for phase `i` (`2·c·δ_i` — the ruling-set
    /// domination radius, guaranteeing all popular centers are covered).
    pub fn sc_depth(&self, i: usize) -> u64 {
        2 * self.ruling_c as u64 * self.delta[i]
    }

    /// Algorithm 1's degree threshold in phase `i`: `deg_i` as a `usize`,
    /// capped at `n + 1` — a bound no knowledge table can reach, so the cap
    /// only keeps the value in range.
    pub(crate) fn stage_deg(&self, i: usize) -> usize {
        usize::try_from(self.deg[i])
            .unwrap_or(usize::MAX)
            .min(self.n + 1)
    }

    /// The ruling-set parameters of phase `i`: `q = max(2δ_i, 1)` and
    /// `c = ⌈ρ⁻¹⌉`, for a `(q + 1, cq)`-ruling set over `W_i`.
    pub(crate) fn ruling_params(&self, i: usize) -> RulingParams {
        let q = u32::try_from(2 * self.delta[i]).expect("2δ fits u32 by MAX_DELTA");
        RulingParams::new(q.max(1), self.ruling_c)
    }

    /// The paper's closed-form radius bound
    /// `R_i ≤ Σ_j (2/ρ_eff)·ε⁻ʲ·(5/ρ_eff)^{i−1−j}` (Lemma 2.7), evaluated
    /// with the *effective* `ρ_eff = 1/⌈ρ⁻¹⌉` the implementation actually
    /// uses (the ruling-set iteration count must be an integer). The exact
    /// integer recurrence [`Schedule::r_bound`] never exceeds this
    /// (asserted in tests).
    pub fn r_paper(&self, i: usize) -> f64 {
        let rho_eff = 1.0 / self.ruling_c as f64;
        let eps = self.eps_internal;
        (0..i)
            .map(|j| {
                2.0 / rho_eff
                    * (1.0 / eps).powi(j as i32)
                    * (5.0 / rho_eff).powi((i - 1 - j) as i32)
            })
            .sum()
    }

    /// Nominal multiplicative stretch `1 + 30·ε_int·ℓ/ρ` (Corollary 2.17).
    pub fn alpha_nominal(&self) -> f64 {
        1.0 + 30.0 * self.eps_internal * self.ell as f64 / self.params.rho
    }

    /// Nominal additive stretch `30/(ρ·ε_int^{ℓ−1})` (Corollary 2.17).
    pub fn beta_nominal(&self) -> f64 {
        30.0 / (self.params.rho * self.eps_internal.powi(self.ell as i32 - 1))
    }

    /// The paper's headline `β` for these `(ε, κ, ρ)` (eq. (1) after the
    /// §2.4.4 rescaling): `β = (30ℓ/(ρ·ε))^ℓ`, with the *user-facing* `ε`.
    pub fn beta_paper(&self) -> f64 {
        let ell = self.ell as f64;
        (30.0 * ell / (self.params.rho * self.params.eps)).powf(ell)
    }

    /// A **provable** `(α, β)` stretch envelope for this exact schedule, via
    /// the Lemma 2.15/2.16 recursion evaluated with the integer radii
    /// [`Schedule::r_bound`] — valid in both constant modes, with no
    /// `ρ ≥ 10ε` assumption:
    ///
    /// * `β = 6·Σ_{j=1..ℓ} R_j·2^{ℓ−j}` (the per-segment detour sum), and
    /// * `α = 1 + Σ_{i=1..ℓ} ε^i·β_i` where `β_i` is the same sum up to `i`
    ///   (each length-`ε⁻ⁱ` segment pays `β_i` additively).
    ///
    /// In `Mode::Paper` this reduces to the paper's `(1+ε, β)` with the
    /// eq. (1) constants; in `Mode::Practical` (large internal `ε`) the
    /// multiplicative term is deliberately loose — the measured stretch sits
    /// far below it (see the `stretch_audit` preset of the `experiments`
    /// binary).
    pub fn stretch_envelope(&self) -> (f64, f64) {
        let eps = self.eps_internal;
        let seg_beta = |i: usize| -> f64 {
            6.0 * (1..=i)
                .map(|j| self.r_bound[j] as f64 * 2f64.powi((i - j) as i32))
                .sum::<f64>()
        };
        let beta = seg_beta(self.ell);
        let alpha = 1.0
            + (1..=self.ell)
                .map(|i| eps.powi(i as i32) * seg_beta(i))
                .sum::<f64>();
        (alpha, beta)
    }

    /// Upper bound on the rounds of phase `i`
    /// (Lemma 2.8: `O(ρ⁻¹·δ_i·n^ρ)`), evaluated with our exact constants:
    /// Algorithm 1 (`(δ_i−1)·(deg_i+1) + 2`), ruling set (`c·m·(2δ_i+1)`),
    /// superclustering BFS (`2cδ_i` + confirm `2cδ_i`), interconnection
    /// (`≤ δ_i·(deg_i+1) + δ_i + 4`).
    pub fn phase_round_bound(&self, i: usize) -> u64 {
        let d = self.delta[i];
        let dg = self.deg[i];
        let c = self.ruling_c as u64;
        let m = (self.n as f64).powf(1.0 / c as f64).ceil() as u64;
        let algo1 = d.saturating_sub(1) * (dg + 1) + 2;
        let ruling = c * m * (2 * d + 2);
        let sc = 2 * self.sc_depth(i) + 2;
        let inter = d * (dg + 1) + d + 4;
        algo1 + ruling + sc + inter
    }

    /// Sum of [`Schedule::phase_round_bound`] over all phases — the
    /// schedule-level analogue of Corollary 2.9.
    pub fn total_round_bound(&self) -> u64 {
        (0..=self.ell).map(|i| self.phase_round_bound(i)).sum()
    }
}

/// Analytic `β` formulas of the prior constructions the paper compares
/// against (Tables 1 and 2). All take the *user-facing* parameters.
pub mod betas {
    /// `β_EP` of Elkin–Peleg '01 (existential):
    /// `(log κ / ε)^{log κ − 1}`.
    pub fn elkin_peleg(eps: f64, kappa: u32) -> f64 {
        let lk = (kappa as f64).log2();
        (lk / eps).powf(lk - 1.0)
    }

    /// `β_EN` of Elkin–Neiman '17 (randomized CONGEST):
    /// `O((log κρ + ρ⁻¹)/ε)^{log κρ + ρ⁻¹}`, constant taken as 1.
    pub fn elkin_neiman(eps: f64, kappa: u32, rho: f64) -> f64 {
        let e = (kappa as f64 * rho).log2().max(0.0) + 1.0 / rho;
        ((e) / eps).powf(e)
    }

    /// `β_E` of Elkin '05 (deterministic CONGEST, superlinear time):
    /// `(κ/ε)^{log κ} · ρ^{−ρ⁻¹}` — Table 1, first row.
    pub fn elkin05(eps: f64, kappa: u32, rho: f64) -> f64 {
        let lk = (kappa as f64).log2();
        (kappa as f64 / eps).powf(lk) * rho.powf(-1.0 / rho)
    }

    /// `β` of this paper (eq. (1)), constant in the exponent taken as 1:
    /// `((log κρ + ρ⁻¹)/(ρ·ε))^{log κρ + ρ⁻¹ + 1}`.
    pub fn this_paper(eps: f64, kappa: u32, rho: f64) -> f64 {
        let e = (kappa as f64 * rho).log2().max(0.0) + 1.0 / rho;
        (e / (rho * eps)).powf(e + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(Params::practical(0.0, 4, 0.4).validate().is_err());
        assert!(Params::practical(1.5, 4, 0.4).validate().is_err());
        assert!(Params::practical(0.5, 1, 0.4).validate().is_err());
        assert!(Params::practical(0.5, 4, 0.5).validate().is_err());
        assert!(Params::practical(0.5, 4, 0.2).validate().is_err()); // < 1/κ
        assert!(Params::practical(0.5, 4, 0.3).validate().is_ok());
    }

    #[test]
    fn ell_matches_paper_examples() {
        // κ = 4, ρ = 0.45: κρ = 1.8 ⟹ i0 = 0, ℓ = ⌈5/1.8⌉ − 1 = 2.
        let p = Params::practical(0.5, 4, 0.45);
        assert_eq!(p.i0(), 0);
        assert_eq!(p.ell(), 2);
        // κ = 8, ρ = 0.25: κρ = 2 ⟹ i0 = 1, ℓ = 1 + ⌈9/2⌉ − 1 = 5.
        let p = Params::practical(0.5, 8, 0.25);
        assert_eq!(p.i0(), 1);
        assert_eq!(p.ell(), 5);
    }

    #[test]
    fn schedule_shapes() {
        let p = Params::practical(0.5, 4, 0.45);
        let s = p.schedule(256).unwrap();
        assert_eq!(s.delta.len(), s.ell + 1);
        assert_eq!(s.deg.len(), s.ell + 1);
        assert_eq!(s.r_bound.len(), s.ell + 1);
        // δ_0 = 1, R_0 = 0 always.
        assert_eq!(s.delta[0], 1);
        assert_eq!(s.r_bound[0], 0);
        // δ increases.
        for i in 1..=s.ell {
            assert!(s.delta[i] > s.delta[i - 1]);
        }
        // deg capped at n^ρ in the fixed stage.
        let nrho = (256f64).powf(0.45).ceil() as u64;
        for i in (s.i0 + 1)..=s.ell {
            assert_eq!(s.deg[i], nrho);
        }
    }

    #[test]
    fn exponential_stage_degrees() {
        // κ = 8, ρ = 0.25, n = 256: deg_0 = 256^{1/8} = 2, deg_1 = 256^{2/8} = 4.
        let p = Params::practical(0.5, 8, 0.25);
        let s = p.schedule(256).unwrap();
        assert_eq!(s.deg[0], 2);
        assert_eq!(s.deg[1], 4);
        assert_eq!(s.deg[2], 4); // fixed stage: 256^{0.25} = 4
    }

    #[test]
    fn integer_radius_below_paper_bound() {
        for params in [
            Params::paper(1.0, 4, 0.45),
            Params::practical(0.25, 8, 0.3),
            Params::practical(0.5, 4, 0.45),
        ] {
            let s = params.schedule(256).unwrap();
            for i in 1..=s.ell {
                let paper = s.r_paper(i);
                // Small additive slack covers the integer ceilings in δ_i.
                assert!(
                    (s.r_bound[i] as f64) <= paper * 1.000001 + 3.0 * paper.max(1.0).log2() + 3.0,
                    "phase {i}: exact {} vs paper-form {paper}",
                    s.r_bound[i]
                );
            }
        }
    }

    #[test]
    fn paper_mode_rescales_eps() {
        let p = Params::paper(1.0, 4, 0.45);
        let e = p.eps_internal();
        assert!((e - 0.45 / 60.0).abs() < 1e-12);
        let q = Params::practical(1.0, 4, 0.45);
        assert_eq!(q.eps_internal(), 1.0);
    }

    #[test]
    fn beta_formulas_are_ordered_sensibly() {
        // For a representative point (large κ, moderate ρ — the regime the
        // paper's Table 1 is about), Elkin '05's β dominates ours and EN17's,
        // and the existential EP bound is smallest.
        let (eps, kappa, rho) = (0.5, 64, 0.45);
        let ep = betas::elkin_peleg(eps, kappa);
        let en = betas::elkin_neiman(eps, kappa, rho);
        let ours = betas::this_paper(eps, kappa, rho);
        let e05 = betas::elkin05(eps, kappa, rho);
        assert!(ep < en, "existential should be smallest: {ep} vs {en}");
        assert!(en < ours, "randomized beats deterministic: {en} vs {ours}");
        assert!(ours < e05, "we must beat Elkin '05: {ours} vs {e05}");
    }

    #[test]
    fn overflow_detected() {
        // Tiny ε with several phases overflows the integer thresholds.
        let p = Params::practical(1e-9, 16, 0.26);
        match p.schedule(1024) {
            Err(ParamError::ScheduleOverflow { .. }) => {}
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn absurd_kappa_overflows_without_sizing_by_ell() {
        // A valid point (ρ ≥ 1/κ) with ℓ above 3·10^9 phases: the
        // schedule must fail at phase 1 rather than reserve ℓ slots.
        let p = Params::practical(1.0, 4_000_000_000, 3e-10);
        assert!(p.validate().is_ok());
        assert!(p.ell() > 3_000_000_000);
        assert_eq!(
            p.schedule(100),
            Err(ParamError::ScheduleOverflow {
                phase: 1,
                delta: 13_333_333_337
            })
        );
    }

    #[test]
    fn round_bounds_are_finite_and_monotone_in_n() {
        let p = Params::practical(0.5, 4, 0.45);
        let a = p.schedule(128).unwrap().total_round_bound();
        let b = p.schedule(512).unwrap().total_round_bound();
        assert!(a > 0);
        assert!(b > a, "round bound must grow with n: {a} vs {b}");
    }

    #[test]
    fn stretch_envelope_is_finite_and_ordered() {
        let s = Params::practical(0.5, 4, 0.45).schedule(256).unwrap();
        let (alpha, beta) = s.stretch_envelope();
        assert!(alpha >= 1.0);
        assert!(beta > 0.0);
        // β dominates the single-segment detour of the last phase.
        assert!(beta >= 6.0 * s.r_bound[s.ell] as f64);
        // Paper mode: tiny internal ε ⟹ α close to 1.
        let sp = Params::paper(1.0, 4, 0.45).schedule(256).unwrap();
        let (alpha_p, _) = sp.stretch_envelope();
        assert!(
            alpha_p < alpha,
            "paper-mode α {alpha_p} should be smaller than practical {alpha}"
        );
    }

    #[test]
    fn error_display() {
        let e = Params::practical(0.5, 1, 0.4).validate().unwrap_err();
        assert!(e.to_string().contains("kappa"));
    }

    #[test]
    fn errors_carry_field_and_offending_value() {
        let cases: Vec<(ParamError, &str, &str)> = vec![
            (
                Params::practical(1.5, 4, 0.45).validate().unwrap_err(),
                "epsilon",
                "1.5",
            ),
            (
                Params::practical(0.5, 1, 0.45).validate().unwrap_err(),
                "kappa",
                "1",
            ),
            (
                Params::practical(0.5, 4, 0.6).validate().unwrap_err(),
                "rho",
                "0.6",
            ),
            (
                Params::practical(0.5, 4, 0.45).schedule(1).unwrap_err(),
                "n",
                "1",
            ),
        ];
        for (e, field, value) in cases {
            assert_eq!(e.field(), field, "{e}");
            assert_eq!(e.offending(), value, "{e}");
        }
    }

    #[test]
    fn epsilon_edge_cases() {
        // The boundary ε = 1 is valid; 0, negatives, >1 and NaN are not —
        // the `!(ε > 0 && ε ≤ 1)` form must catch NaN, which every
        // comparison-based rewrite silently lets through.
        assert!(Params::practical(1.0, 4, 0.45).validate().is_ok());
        for bad in [0.0, -0.25, 1.0 + 1e-12, f64::NAN, f64::INFINITY] {
            let e = Params::practical(bad, 4, 0.45).validate().unwrap_err();
            assert_eq!(e.field(), "epsilon", "eps = {bad}");
        }
        // Tiny-but-positive ε is *valid* per se; it fails later, at
        // schedule derivation, as a structured delta overflow.
        assert!(Params::practical(1e-9, 16, 0.26).validate().is_ok());
    }

    #[test]
    fn rho_edge_cases_including_nan() {
        // Closed lower bound 1/κ, open upper bound 1/2.
        assert!(Params::practical(0.5, 4, 0.25).validate().is_ok());
        for bad in [0.5, 0.25 - 1e-12, f64::NAN] {
            let e = Params::practical(0.5, 4, bad).validate().unwrap_err();
            assert_eq!(e.field(), "rho", "rho = {bad}");
        }
    }

    #[test]
    fn beta_overflow_reports_phase_and_delta() {
        // The δ_i (and hence β) blow-up from a tiny ε is a structured
        // ScheduleOverflow carrying the phase and the overflowing value.
        let e = Params::practical(1e-9, 16, 0.26)
            .schedule(1024)
            .unwrap_err();
        match &e {
            ParamError::ScheduleOverflow { phase, delta } => {
                assert!(*phase > 0, "phase 0 has δ = 1 and cannot overflow");
                assert!(*delta > Schedule::MAX_DELTA);
                assert_eq!(e.field(), "delta");
                assert_eq!(e.offending(), delta.to_string());
            }
            other => panic!("expected ScheduleOverflow, got {other:?}"),
        }
    }
}
