//! Parameter and result types shared by both implementations.

/// Parameters of a `(q+1, cq)`-ruling set computation (Theorem 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RulingParams {
    /// Wave depth; the output is `(q+1)`-separated.
    pub q: u32,
    /// Number of digit iterations; the domination radius is `c·q` and the
    /// round count scales with `n^{1/c}`. The paper uses `c = ⌈ρ⁻¹⌉`.
    pub c: u32,
}

impl RulingParams {
    /// Creates parameters, validating them.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `c == 0`.
    pub fn new(q: u32, c: u32) -> Self {
        assert!(q >= 1, "q must be at least 1");
        assert!(c >= 1, "c must be at least 1");
        RulingParams { q, c }
    }

    /// The guaranteed minimum pairwise distance between members (`q + 1`).
    pub fn separation(&self) -> u32 {
        self.q + 1
    }

    /// The guaranteed maximum distance from any `W`-vertex to its nearest
    /// member (`c · q`).
    pub fn domination_radius(&self) -> u32 {
        self.c * self.q
    }
}

/// The result of a ruling-set computation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RulingSet {
    /// The ruling set `A ⊆ W`, sorted ascending.
    pub members: Vec<usize>,
}

/// The dense membership mask of `w` over the vertices `0..n`.
///
/// # Panics
///
/// Panics if a vertex of `w` is out of range.
pub(crate) fn in_w_mask(n: usize, w: &[usize]) -> Vec<bool> {
    let mut in_w = vec![false; n];
    for &v in w {
        assert!(v < n, "W vertex {v} out of range");
        in_w[v] = true;
    }
    in_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_accessors() {
        let p = RulingParams::new(5, 3);
        assert_eq!(p.separation(), 6);
        assert_eq!(p.domination_radius(), 15);
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn zero_q_panics() {
        RulingParams::new(0, 2);
    }
}
