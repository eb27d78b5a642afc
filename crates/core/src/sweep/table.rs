//! The shared text/CSV table collector used by every scenario renderer.
//!
//! Historically this lived in the `experiments` crate; it moved here so the
//! sweep engine's artifact writer can embed rendered tables in the JSON
//! artifact without a dependency cycle. The `experiments` crate re-exports it
//! under the old name.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// A simple text table collector that can also be written to CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (converted to strings).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Appends a row of pre-formatted strings.
    pub fn row_strings(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table to stdout with aligned columns.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Writes the table as `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        fs::write(&path, out)?;
        Ok(path)
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The collected data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

/// Convenience: format a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row_strings(vec!["2".into(), "y".into()]);
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.header(), &["a".to_string(), "b".to_string()]);
        assert_eq!(t.rows()[1], vec!["2".to_string(), "y".to_string()]);
        t.print();
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }
}
