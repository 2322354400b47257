//! # pels-bench — the reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index), plus ablation binaries and Criterion micro/macro
//! benchmarks. Every binary prints the series the paper reports and writes
//! a CSV copy under `results/`.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — expected useful packets, model vs simulation |
//! | `fig2`   | Fig. 2 — useful packets & utility vs frame size |
//! | `fig3`   | Fig. 3 — random vs ideal per-frame drop patterns |
//! | `fig5`   | Fig. 5 — γ(k) stability for σ = 0.5 vs σ = 3 |
//! | `fig7`   | Fig. 7 — γ evolution and red loss under two load levels |
//! | `fig8`   | Fig. 8 — green/yellow packet delays as flows join |
//! | `fig9`   | Fig. 9 — red delays; MKC convergence and fairness |
//! | `fig10`  | Fig. 10 — PSNR of Foreman at ~10% and ~19% loss |
//! | `ablation_*` | design-choice ablations (DESIGN.md §6) |
//! | `run_all` | runs everything above in sequence |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scalebench;
pub mod wirebench;

use pels_netsim::stats::TimeSeries;
use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root, anchored via this crate's `CARGO_MANIFEST_DIR` so
/// the answer does not depend on the process working directory; `None`
/// when the source tree is gone (e.g. an installed binary).
fn workspace_root() -> Option<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2)?;
    root.is_dir().then(|| root.to_path_buf())
}

/// Directory where experiment outputs are written, created if needed.
///
/// Resolution order:
///
/// 1. `dir`, when the caller names one (the `pels` CLI passes
///    `$PELS_RESULTS_DIR`; tests pass a scratch directory);
/// 2. `<workspace root>/results` (binaries used to silently scatter
///    `results/` wherever they were launched from);
/// 3. `./results` as a last resort when the source tree is gone.
pub fn results_dir_in(dir: Option<&Path>) -> PathBuf {
    let p = match dir {
        Some(d) => d.to_path_buf(),
        None => workspace_root().map_or_else(|| PathBuf::from("results"), |r| r.join("results")),
    };
    let _ = fs::create_dir_all(&p);
    p
}

/// [`results_dir_in`] with `$PELS_RESULTS_DIR`: for binaries' entry points,
/// which read the environment once and nowhere else.
pub fn results_dir() -> PathBuf {
    results_dir_in(std::env::var_os("PELS_RESULTS_DIR").as_deref().map(Path::new))
}

/// Directory where `BENCH_*.json` baselines are written: `dir` when the
/// caller names one (created if needed; the CLI passes `$PELS_BENCH_DIR`),
/// otherwise the workspace root, otherwise the working directory.
pub fn bench_dir_in(dir: Option<&Path>) -> PathBuf {
    match dir {
        Some(d) => {
            let _ = fs::create_dir_all(d);
            d.to_path_buf()
        }
        None => workspace_root().unwrap_or_else(|| PathBuf::from(".")),
    }
}

/// Writes `content` to `results/<name>` ([`results_dir`]) and reports the
/// path on stdout.
pub fn write_result(name: &str, content: &str) {
    write_result_in(&results_dir(), name, content);
}

/// Writes `content` to `<dir>/<name>` and reports the path on stdout.
pub fn write_result_in(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    match fs::write(&path, content) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[could not write {}: {e}]", path.display()),
    }
}

/// Writes a set of time series as CSV under `results/<name>`.
pub fn write_series(name: &str, series: &[&TimeSeries]) {
    write_result(name, &pels_netsim::stats::to_csv(series));
}

/// Fetches a named series from a telemetry handle, renamed so figure CSVs
/// keep their historical column headers (`gamma`, `p_red`, ...).
///
/// Returns an empty series under the CSV name when the metric was never
/// sampled, so callers degrade to an empty column instead of panicking.
pub fn telemetry_series(
    tel: &pels_telemetry::Telemetry,
    metric: &str,
    csv_name: &str,
) -> TimeSeries {
    let mut s = tel.series(metric).unwrap_or_else(|| TimeSeries::new(csv_name));
    s.name = csv_name.to_string();
    s
}

/// Renders a simple aligned table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Downsamples a series to at most `n` evenly spaced points (for compact
/// stdout rendering; the CSV keeps everything).
pub fn downsample(series: &TimeSeries, n: usize) -> Vec<(f64, f64)> {
    if series.points.len() <= n {
        return series.points.clone();
    }
    let step = series.points.len() as f64 / n as f64;
    (0..n).map(|i| series.points[(i as f64 * step) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_preserves_endpoints_roughly() {
        let mut s = TimeSeries::new("x");
        for i in 0..1000 {
            s.push(i as f64, i as f64);
        }
        let d = downsample(&s, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].0, 0.0);
        assert!(d[9].0 >= 900.0);
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn results_dir_is_cwd_independent_and_overridable() {
        let d = results_dir_in(None);
        assert!(d.is_dir());
        assert!(d.ends_with("results"));
        // Anchored at the workspace root, not the process CWD.
        assert_eq!(d.parent(), Some(bench_dir_in(None).as_path()));
        assert!(bench_dir_in(None).join("Cargo.toml").is_file());

        let tmp = std::env::temp_dir().join("pels_bench_results_test");
        assert_eq!(results_dir_in(Some(&tmp)), tmp);
        assert_eq!(bench_dir_in(Some(&tmp.join("bench"))), tmp.join("bench"));
        assert!(tmp.join("bench").is_dir());
    }
}
