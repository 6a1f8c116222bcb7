//! Fixed-width text tables in the layout of the paper's result tables.
//!
//! The experiment binaries print their reproduction of each paper table
//! through [`Table`]; the same structure serialises to CSV and JSON so
//! downstream analysis reads from one source.

use serde::Serialize;
use std::fmt::Write as _;

/// A rectangular table: row labels × column labels, string cells.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Caption printed above the table.
    pub title: String,
    /// Column headers (not counting the row-label column).
    pub columns: Vec<String>,
    /// Rows: label plus one cell per column.
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.into(), cells));
    }

    /// Appends a row of numbers with `prec` decimal places.
    pub fn push_row_f64(&mut self, label: impl Into<String>, values: &[f64], prec: usize) {
        let cells = values.iter().map(|v| format!("{v:.prec$}")).collect();
        self.push_row(label, cells);
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::with_capacity(self.columns.len() + 1);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(0))
            .max()
            .unwrap_or(0);
        widths.push(label_w);
        for (i, col) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|(_, cells)| cells[i].len())
                .chain(std::iter::once(col.len()))
                .max()
                .unwrap_or(col.len());
            widths.push(w);
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len();
        let _ = writeln!(out, "{}", "=".repeat(total.min(120)));
        let _ = write!(out, "{:w$}", "", w = widths[0]);
        for (col, w) in self.columns.iter().zip(&widths[1..]) {
            let _ = write!(out, " | {col:>w$}");
        }
        out.push('\n');
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:w$}", w = widths[0]);
            for (cell, w) in cells.iter().zip(&widths[1..]) {
                let _ = write!(out, " | {cell:>w$}");
            }
            out.push('\n');
        }
        out
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serialises")
    }
}

/// Renders any table as CSV (row label in the first column).
pub fn render_csv(table: &Table) -> String {
    let mut out = String::new();
    let _ = write!(out, "metric");
    for col in &table.columns {
        let _ = write!(out, ",{col}");
    }
    out.push('\n');
    for (label, cells) in &table.rows {
        let _ = write!(out, "{label}");
        for cell in cells {
            let _ = write!(out, ",{cell}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "Table 5-style",
            vec!["MCT".into(), "HMCT".into(), "MP".into(), "MSF".into()],
        );
        t.push_row_f64("makespan", &[9906.0, 9908.0, 10162.0, 9905.0], 0);
        t.push_row_f64("sumflow", &[25922.0, 19934.0, 26383.0, 19702.0], 0);
        t
    }

    #[test]
    fn render_aligns_and_includes_everything() {
        let s = sample().render();
        assert!(s.contains("Table 5-style"));
        assert!(s.contains("MCT"));
        assert!(s.contains("9906"));
        assert!(s.contains("sumflow"));
        // Header separator present.
        assert!(s.contains("---"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = render_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "metric,MCT,HMCT,MP,MSF");
        assert!(lines[1].starts_with("makespan,9906"));
    }

    #[test]
    fn json_contains_rows() {
        let js = sample().to_json();
        assert!(js.contains("\"makespan\""));
        assert!(js.contains("\"columns\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.push_row("r", vec!["1".into(), "2".into()]);
    }
}
