//! # theta-bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (see DESIGN.md's experiment index) plus Criterion micro-benchmarks.
//!
//! Binaries write CSV into `target/eval/` and print the table that
//! mirrors the paper's presentation. Common flags:
//!
//! - `--reference-costs` — skip live calibration and use the recorded
//!   reference cost table (fast, machine-independent shape);
//! - `--full` — paper-length experiment durations (60 s capacity runs,
//!   300 s steady state) instead of the trimmed defaults.

use std::io::Write;
use std::path::PathBuf;
use theta_sim::CostModel;

/// Parsed command-line options shared by all evaluation binaries.
#[derive(Clone, Copy, Debug)]
pub struct EvalArgs {
    /// Use the reference cost table instead of calibrating.
    pub reference_costs: bool,
    /// Paper-length durations.
    pub full: bool,
}

impl EvalArgs {
    /// Parses `std::env::args` (unknown flags are ignored with a note).
    pub fn parse() -> EvalArgs {
        let mut out = EvalArgs { reference_costs: false, full: false };
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--reference-costs" => out.reference_costs = true,
                "--full" => out.full = true,
                other => eprintln!("note: ignoring unknown flag {other}"),
            }
        }
        out
    }

    /// Capacity-test duration per run (virtual seconds).
    pub fn capacity_duration(&self) -> std::time::Duration {
        if self.full {
            std::time::Duration::from_secs(60)
        } else {
            std::time::Duration::from_secs(10)
        }
    }

    /// Steady-state duration (virtual seconds).
    pub fn steady_duration(&self) -> std::time::Duration {
        if self.full {
            std::time::Duration::from_secs(300)
        } else {
            std::time::Duration::from_secs(30)
        }
    }
}

/// Obtains the cost model per the flags, printing what was done.
pub fn cost_model(args: &EvalArgs) -> CostModel {
    if args.reference_costs {
        println!("cost model: recorded reference table (--reference-costs)");
        CostModel::reference()
    } else {
        println!("cost model: live calibration of the real schemes on this host...");
        let start = std::time::Instant::now();
        let m = CostModel::calibrate(if args.full { 512 } else { 384 });
        println!("calibration done in {:.1?}", start.elapsed());
        print_cost_model(&m);
        m
    }
}

/// Prints the calibrated per-operation costs (µs).
pub fn print_cost_model(m: &CostModel) {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    println!("  scheme  create(µs)  verify(µs)  combine_fixed(µs)  combine/share(µs)");
    for (name, c) in [
        ("sg02", m.sg02),
        ("bz03", m.bz03),
        ("sh00", m.sh00),
        ("bls04", m.bls04),
        ("cks05", m.cks05),
    ] {
        println!(
            "  {name:<7} {:>9.0}  {:>9.0}  {:>16.0}  {:>16.0}",
            us(c.create),
            us(c.verify),
            us(c.combine_fixed),
            us(c.combine_per_share)
        );
    }
    let k = m.kg20;
    println!(
        "  kg20    r1 {:>6.0}  r2 {:>6.0}+{:>4.0}/member  verify {:>6.0}  combine {:>6.0}+{:>4.0}/share",
        us(k.round1),
        us(k.round2_fixed),
        us(k.round2_per_member),
        us(k.verify),
        us(k.combine_fixed),
        us(k.combine_per_share)
    );
}

/// The output directory `target/eval/` (created on demand).
pub fn eval_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/eval");
    std::fs::create_dir_all(&dir).expect("create target/eval");
    dir
}

/// Writes a CSV file into `target/eval/` and reports the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = eval_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    println!("wrote {}", path.display());
}

/// Formats seconds as engineering-friendly milliseconds.
pub fn fmt_ms(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_by_mode() {
        let quick = EvalArgs { reference_costs: true, full: false };
        let full = EvalArgs { reference_costs: true, full: true };
        assert!(quick.capacity_duration() < full.capacity_duration());
        assert_eq!(full.capacity_duration().as_secs(), 60);
        assert_eq!(full.steady_duration().as_secs(), 300);
    }

    #[test]
    fn eval_dir_exists() {
        let d = eval_dir();
        assert!(d.exists());
    }

    #[test]
    fn fmt_ms_rounds() {
        assert_eq!(fmt_ms(0.1234), "123.4");
    }
}
