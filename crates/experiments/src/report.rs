//! Experiment reports: tables, ASCII charts, markdown and JSON output.

use std::fmt;

/// A rendered experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment id (`fig04`, `table1`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Table rows (already formatted cells).
    pub rows: Vec<Vec<String>>,
    /// Paper-vs-measured commentary and caveats.
    pub notes: Vec<String>,
}

nomc_json::json_struct!(Report {
    id: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
});

impl Report {
    /// Starts a report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in report {}",
            self.id
        );
        self.rows.push(row);
        self
    }

    /// Appends a commentary note.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Renders as a GitHub-flavoured markdown section (used to build
    /// EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push('|');
        for c in &self.columns {
            out.push_str(&format!(" {c} |"));
        }
        out.push_str("\n|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for r in &self.rows {
            out.push('|');
            for c in r {
                out.push_str(&format!(" {c} |"));
            }
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }

    /// Serializes to pretty JSON.
    pub fn to_json_string(&self) -> String {
        nomc_json::ToJson::to_json(self).dump_pretty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        // Compute column widths.
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:<w$}  ", cell, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.columns)?;
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Renders a horizontal ASCII bar of `value` scaled to `max` over
/// `width` characters — a poor man's figure.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || !value.is_finite() {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("fig00", "Sample", &["x", "y"]);
        r.row(["1", "2.0"]).row(["10", "20.0"]).note("a note");
        r
    }

    #[test]
    fn display_contains_all_cells() {
        let text = sample().to_string();
        assert!(text.contains("fig00"));
        assert!(text.contains("20.0"));
        assert!(text.contains("note: a note"));
    }

    #[test]
    fn markdown_table_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("### fig00"));
        assert!(md.contains("| x | y |"));
        assert!(md.contains("| 10 | 20.0 |"));
        assert!(md.contains("- a note"));
    }

    #[test]
    fn json_round_trips_enough() {
        let j = sample().to_json_string();
        let v: nomc_json::Json = j.parse().unwrap();
        assert_eq!(v["id"], "fig00");
        assert_eq!(v["rows"][1][0], "10");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Report::new("x", "t", &["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(pct(0.384), "38.4%");
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
