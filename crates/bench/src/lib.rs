#![warn(missing_docs)]

//! # datacron-bench
//!
//! The experiment harness: shared workload builders and table printing for
//! the binaries that regenerate every table and figure of the paper
//! (see DESIGN.md §3 for the experiment index).
//!
//! Run an experiment with e.g.
//! `cargo run --release -p datacron-bench --bin exp_fig8`.

pub mod workloads;

use std::time::Instant;

/// Prints a fixed-width table: `header` then one row per entry.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// A proportional ASCII bar for quick terminal plots (`value` in `[0, 1]`).
pub fn ascii_bar(value: f64, width: usize) -> String {
    let n = ((value.clamp(0.0, 1.0)) * width as f64).round() as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
