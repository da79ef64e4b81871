//! Serializable experiment records.

use serde::{Deserialize, Serialize};

/// One experiment datapoint: a named quantity, the paper's claim about it,
/// and what we measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `"E-T1"`, as it opens the module docs of the
    /// `nas-bench` binary that runs the experiment.
    pub experiment: String,
    /// The workload, e.g. `"gnp(1024, 0.01, seed 7)"`.
    pub workload: String,
    /// The quantity, e.g. `"spanner edges"`.
    pub quantity: String,
    /// The paper's claim (a bound or a scaling shape), rendered as text.
    pub paper_claim: String,
    /// The measured value, rendered as text.
    pub measured: String,
    /// Whether the measurement is consistent with the claim.
    pub consistent: bool,
}

impl ExperimentRecord {
    /// Creates a record.
    pub fn new(
        experiment: impl Into<String>,
        workload: impl Into<String>,
        quantity: impl Into<String>,
        paper_claim: impl Into<String>,
        measured: impl Into<String>,
        consistent: bool,
    ) -> Self {
        ExperimentRecord {
            experiment: experiment.into(),
            workload: workload.into(),
            quantity: quantity.into(),
            paper_claim: paper_claim.into(),
            measured: measured.into(),
            consistent,
        }
    }

    /// Renders the record as a Markdown table row.
    pub fn to_markdown_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {} | {} |",
            self.experiment,
            self.workload,
            self.quantity,
            self.paper_claim,
            self.measured,
            if self.consistent { "✓" } else { "✗" }
        )
    }
}

/// Renders a collection of records as a full Markdown table.
pub fn to_markdown_table(records: &[ExperimentRecord]) -> String {
    let mut out = String::from(
        "| experiment | workload | quantity | paper claim | measured | ok |\n|---|---|---|---|---|---|\n",
    );
    for r in records {
        out.push_str(&r.to_markdown_row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_round_trip() {
        let r = ExperimentRecord::new("E-T1", "gnp", "edges", "O(n^{1.25})", "1234", true);
        let row = r.to_markdown_row();
        assert!(row.contains("E-T1"));
        assert!(row.contains('✓'));
        let table = to_markdown_table(&[r]);
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn failing_record_is_marked() {
        let r = ExperimentRecord::new("E-S1", "grid", "rounds", "n^ρ", "oops", false);
        assert!(r.to_markdown_row().contains('✗'));
    }
}
