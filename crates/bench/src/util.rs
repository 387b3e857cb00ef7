//! Report structure and text-table formatting shared by all
//! reproduction experiments.

/// One paper-versus-measured comparison.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared.
    pub name: String,
    /// The paper's claim.
    pub paper: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the measurement is within the tolerance the experiment
    /// chose (shape-level agreement, not absolute-number matching).
    pub ok: bool,
}

impl Check {
    /// Build a check.
    pub fn new(
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) -> Check {
        Check { name: name.into(), paper: paper.into(), measured: measured.into(), ok }
    }

    /// Render `checks` as EXPERIMENTS.md's paper-vs-measured table,
    /// preceded by a blank line (nothing when there are no checks).
    pub fn markdown_table(checks: &[Check]) -> String {
        let mut out = String::new();
        if !checks.is_empty() {
            out.push_str("\n| check | paper | measured | |\n|---|---|---|---|\n");
            for c in checks {
                out.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    c.name,
                    c.paper,
                    c.measured,
                    if c.ok { "✅" } else { "⚠️" }
                ));
            }
        }
        out
    }
}

/// One experiment's regenerated output.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `"fig06"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The regenerated rows/series, preformatted.
    pub body: String,
    /// Headline paper-vs-measured checks.
    pub checks: Vec<Check>,
}

impl Report {
    /// Start building a report: headers, rows and checks accumulate on
    /// the [`ReportBuilder`], which formats the body table on
    /// [`ReportBuilder::finish`]. Deliberately named `new` — the
    /// builder is the only way to construct a `Report` field-by-field,
    /// and call sites read naturally.
    #[allow(clippy::new_ret_no_self)]
    pub(crate) fn new(id: &'static str, title: &'static str) -> ReportBuilder {
        ReportBuilder { id, title, headers: Vec::new(), rows: Vec::new(), checks: Vec::new() }
    }

    /// Render for the terminal.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {}\n\n{}\n", self.id, self.title, self.body);
        if !self.checks.is_empty() {
            out.push_str("\npaper vs measured:\n");
            for c in &self.checks {
                out.push_str(&format!(
                    "  [{}] {}: paper {} | measured {}\n",
                    if c.ok { "ok" } else { "!!" },
                    c.name,
                    c.paper,
                    c.measured
                ));
            }
        }
        out
    }

    /// Render as a Markdown section for EXPERIMENTS.md.
    pub fn render_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n```text\n{}```\n", self.id, self.title, self.body);
        out.push_str(&Check::markdown_table(&self.checks));
        out.push('\n');
        out
    }

    /// True if every check passed.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Builder returned by [`Report::new`]: collects the table headers,
/// rows and paper-vs-measured checks, then formats the aligned body
/// table once on [`ReportBuilder::finish`] — replacing the ad-hoc
/// row-vector bookkeeping every experiment module used to repeat.
#[derive(Debug, Clone)]
pub(crate) struct ReportBuilder {
    id: &'static str,
    title: &'static str,
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
    checks: Vec<Check>,
}

impl ReportBuilder {
    /// Set the body table's column headers.
    pub fn headers(mut self, headers: &[&'static str]) -> ReportBuilder {
        self.headers = headers.to_vec();
        self
    }

    /// Append one body row (must match the header count).
    pub fn row(mut self, row: Vec<String>) -> ReportBuilder {
        self.rows.push(row);
        self
    }

    /// Append many body rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<String>>) -> ReportBuilder {
        self.rows.extend(rows);
        self
    }

    /// Append one paper-vs-measured check.
    pub fn check(
        mut self,
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) -> ReportBuilder {
        self.checks.push(Check::new(name, paper, measured, ok));
        self
    }

    /// Format the body table and produce the report.
    pub fn finish(self) -> Report {
        Report {
            id: self.id,
            title: self.title,
            body: table(&self.headers, &self.rows),
            checks: self.checks,
        }
    }
}

/// Format an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            for _ in cell.chars().count()..*w {
                line.push(' ');
            }
        }
        line.trim_end().to_string() + "\n"
    };
    out.push_str(&fmt_row(headers.iter().map(|s| s.to_string()).collect(), &widths));
    out.push_str(&fmt_row(widths.iter().map(|w| "-".repeat(*w)).collect(), &widths));
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Format bits/s as Mbit/s with 2 decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// Format seconds with 1 decimal.
pub fn secs(s: f64) -> String {
    format!("{s:.1}")
}

/// Scaled repetition count: at least 2, `full` at scale 1.
pub fn reps(full: u64, scale: f64) -> u64 {
    ((full as f64 * scale).round() as u64).max(2)
}

/// Relative closeness check: |a/b − 1| ≤ tol.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    if b == 0.0 {
        return a == 0.0;
    }
    (a / b - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "v"],
            &[vec!["a".into(), "1.0".into()], vec!["longer".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn report_rendering() {
        let r = Report {
            id: "figX",
            title: "test",
            body: "row\n".into(),
            checks: vec![Check::new("c", "1", "1.05", true)],
        };
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("[ok]"));
        let md = r.render_markdown();
        assert!(md.contains("## figX"));
        assert!(md.contains("✅"));
        assert!(r.all_ok());
    }

    #[test]
    fn builder_matches_literal_construction() {
        let built = Report::new("figX", "test")
            .headers(&["name", "v"])
            .row(vec!["a".into(), "1.0".into()])
            .rows([vec!["longer".into(), "22".into()]])
            .check("c", "1", "1.05", true)
            .finish();
        let literal = Report {
            id: "figX",
            title: "test",
            body: table(
                &["name", "v"],
                &[vec!["a".into(), "1.0".into()], vec!["longer".into(), "22".into()]],
            ),
            checks: vec![Check::new("c", "1", "1.05", true)],
        };
        assert_eq!(built.render(), literal.render());
        assert_eq!(built.render_markdown(), literal.render_markdown());
    }

    #[test]
    fn helpers() {
        assert_eq!(mbps(2_500_000.0), "2.50");
        assert_eq!(secs(1.26), "1.3");
        assert_eq!(reps(30, 1.0), 30);
        assert_eq!(reps(30, 0.1), 3);
        assert_eq!(reps(30, 0.0), 2);
        assert!(close(1.05, 1.0, 0.1));
        assert!(!close(1.5, 1.0, 0.1));
        assert!(close(0.0, 0.0, 0.1));
    }
}
