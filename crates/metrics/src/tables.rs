//! Plain-text table rendering for the experiment binaries.
//!
//! The bench binaries print the regenerated Tables 1–2 and figure series in
//! aligned monospace tables.

/// A column-aligned plain-text table builder.
///
/// # Example
///
/// ```
/// use nas_metrics::TableBuilder;
///
/// let mut t = TableBuilder::new(vec!["algo", "edges"]);
/// t.row(vec!["ours".into(), "123".into()]);
/// let s = t.render();
/// assert!(s.contains("algo"));
/// assert!(s.contains("ours"));
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TableBuilder {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, hdr) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(hdr.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().copied().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float compactly: scientific for very large/small magnitudes,
/// fixed otherwise.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.fract() == 0.0 && x.abs() < 1e6 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TableBuilder::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines start at the same column for field 2.
        let c1 = lines[2].find('1').unwrap();
        let c2 = lines[3].find("22").unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TableBuilder::new(vec!["a", "b", "c"]);
        t.row(vec!["only".into()]);
        let s = t.render();
        assert!(s.contains("only"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert!(fmt_f64(1.5e9).contains('e'));
        assert!(fmt_f64(1e-5).contains('e'));
    }
}
