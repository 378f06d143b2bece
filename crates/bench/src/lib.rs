//! Shared harness utilities for the per-table / per-figure binaries.
//!
//! Each binary regenerates one element of the paper's evaluation:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3` | Figure 3 — pmbench fault-latency CDFs and averages |
//! | `table1` | Table I — monitor code-path latencies |
//! | `table2` | Table II — optimization ablation |
//! | `fig4` | Figure 4 — Graph500 TEPS across scale factors |
//! | `fig5` | Figure 5 — YCSB/MongoDB read-latency time course |
//! | `table3` | Table III — minimum-footprint responsiveness |
//! | `fig2` | Figure 2 — the fault-handling paths as an executable trace |
//! | `ablations` | eight design-choice studies beyond the paper |
//! | `timeouts` | §VI-D1's closing remark: deadlines vs. disaggregation depth |
//!
//! Each binary names the flags it reads ([`HarnessArgs::parse`]); the
//! paper-size harnesses take `--scale <N>` (run at 1/N of the paper's
//! sizes; each has a sensible default) and `--full` (paper-size run).
//! They print aligned text tables plus gnuplot-ready CDF/series data
//! where the figure needs it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Command-line options shared by every harness binary.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Divide the paper's problem sizes by this factor.
    pub scale_denominator: u64,
    /// Root seed for the run.
    pub seed: u64,
    /// Append machine-readable records (JSON lines) to this file.
    pub json_path: Option<PathBuf>,
    /// Write a Chrome trace-event file of the run to this path.
    pub trace_path: Option<PathBuf>,
    /// Run the harness's reduced smoke sizes (for the harnesses that
    /// size themselves by mode, not by `--scale`).
    pub smoke: bool,
    /// `scaling`'s big-fleet sweep.
    pub big: bool,
    /// `scaling`'s sharded-cluster sweep.
    pub cluster: bool,
}

impl HarnessArgs {
    /// Parses the command line. Every harness takes `--seed <N>`; it
    /// takes the other flags only where `reads` names them: `"--scale"`
    /// admits `--scale <N>` and `--full` (`default_denominator` when
    /// neither is given), and `--json <file>`, `--trace <file>`,
    /// `--smoke`, `--big` and `--cluster` are admitted by their own
    /// names. Any other argument, or a value that does not parse, ends
    /// the run with exit status 2.
    pub fn parse(default_denominator: u64, reads: &[&str]) -> HarnessArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        parse_args(&argv, default_denominator, reads).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Writes the telemetry's Chrome trace when `--trace` was given.
    /// Call after the measured run; prints where the trace went.
    pub fn emit_trace(&self, telemetry: &fluidmem_telemetry::Telemetry) {
        if let Some(path) = &self.trace_path {
            let json = telemetry.export_chrome_trace();
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote Chrome trace to {}", path.display()),
                Err(e) => eprintln!("failed to write {path:?}: {e}"),
            }
        }
    }

    /// Appends a JSON-lines record when `--json` was given.
    pub fn emit_json(&self, record: &json::Json) {
        if let Some(path) = &self.json_path {
            if let Err(e) = json::write_json_line(path, record) {
                eprintln!("failed to write {path:?}: {e}");
            }
        }
    }
}

/// [`HarnessArgs::parse`] over `argv` (the arguments after the
/// program name).
fn parse_args(
    argv: &[String],
    default_denominator: u64,
    reads: &[&str],
) -> Result<HarnessArgs, String> {
    let mut args = HarnessArgs {
        scale_denominator: default_denominator,
        seed: 42,
        json_path: None,
        trace_path: None,
        smoke: false,
        big: false,
        cluster: false,
    };
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let name = if flag == "--full" { "--scale" } else { flag };
        if name != "--seed" && !reads.contains(&name) {
            return Err(format!("this harness takes no argument {flag:?}"));
        }
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag} {v:?} is not a number"))
        };
        match flag.as_str() {
            "--full" => args.scale_denominator = 1,
            "--scale" => args.scale_denominator = number(value()?)?.max(1),
            "--seed" => args.seed = number(value()?)?,
            "--json" => args.json_path = Some(PathBuf::from(value()?)),
            "--trace" => args.trace_path = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--big" => args.big = true,
            "--cluster" => args.cluster = true,
            _ => return Err(format!("unknown flag {flag:?} in the harness's list")),
        }
    }
    Ok(args)
}

/// A plain-text table printer with aligned columns.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub(crate) fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(line, "| {:width$} ", cell, width = widths[c]);
            }
            line.push('|');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::new();
        for w in &widths {
            let _ = write!(sep, "|{}", "-".repeat(w + 2));
        }
        sep.push('|');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Prints a figure banner.
pub fn banner(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    if !detail.is_empty() {
        println!("{detail}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, reads: &[&str]) -> Result<HarnessArgs, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv, 8, reads)
    }

    #[test]
    fn defaults_and_read_flags() {
        let args = parse("", &[]).unwrap();
        assert_eq!((args.scale_denominator, args.seed), (8, 42));
        let args = parse("--scale 64 --seed 7 --json r.json", &["--scale", "--json"]).unwrap();
        assert_eq!((args.scale_denominator, args.seed), (64, 7));
        assert_eq!(args.json_path, Some(PathBuf::from("r.json")));
        assert_eq!(parse("--full", &["--scale"]).unwrap().scale_denominator, 1);
        assert_eq!(
            parse("--scale 0", &["--scale"]).unwrap().scale_denominator,
            1
        );
        let args = parse(
            "--smoke --big --cluster",
            &["--smoke", "--big", "--cluster"],
        )
        .unwrap();
        assert!(args.smoke && args.big && args.cluster);
        let args = parse("--trace t.json", &["--trace"]).unwrap();
        assert_eq!(args.trace_path, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn flags_a_harness_does_not_read_are_refused() {
        for (line, reads) in [
            ("--json /tmp/x.json", &[][..]),
            ("--trace /tmp/t.json", &["--scale"][..]),
            ("--full", &["--json"][..]),
            ("--smoke", &[][..]),
            ("--big", &["--smoke"][..]),
            ("extra", &["--json"][..]),
        ] {
            let e = parse(line, reads).unwrap_err();
            assert!(e.contains("takes no argument"), "{line}: {e}");
        }
    }

    #[test]
    fn bad_values_are_refused() {
        let e = parse("--seed x", &[]).unwrap_err();
        assert!(e.contains("not a number"), "{e}");
        let e = parse("--scale 1.5", &["--scale"]).unwrap_err();
        assert!(e.contains("not a number"), "{e}");
        assert!(parse("--seed", &[]).unwrap_err().contains("needs a value"));
        assert!(parse("--json", &["--json"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("long-name"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one"]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(pct(0.256), "25.6%");
    }
}
