//! `--spread <n>`: run each workload `n` times as a child process, each
//! time with another seed, and compare every end-to-end metric's
//! run-to-run spread — the distance between its first and third quartile
//! as a share of its median, quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them — with the metric's
//! regression bound. A spread wider than the bound cannot resolve a
//! regression of that size, so the exit code is non-zero.

use std::process::{Command, ExitCode};

use crate::harness::{median, min_max};
use crate::{spec, Args};

/// A child's result line, parsed.
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// The text between `key` and the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Parse the one-line JSON object `result_line` prints. The format is
/// this program's own, so scanning for its keys is enough.
pub fn parse_result(line: &str) -> Option<Parsed> {
    let correct = field(line, "\"correct\":")? == "true";
    let attempted = field(line, "\"attempted\":")?.parse().ok()?;
    let failed = field(line, "\"failed\":")?.parse().ok()?;
    let body = &line[line.find("\"metrics\":")? + "\"metrics\":".len()..];
    let mut metrics = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"')? + 1;
        let name = rest[name_start..at].to_string();
        let after = &rest[at + "\": {\"value\": ".len()..];
        let value = after[..after.find(',')?].trim().parse().ok()?;
        metrics.push((name, value));
        rest = after;
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// First and third quartile by the exclusive method.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn run(args: &Args, n: usize) -> ExitCode {
    if n < 2 {
        eprintln!("lvbench: --spread needs at least 2 runs");
        return ExitCode::from(2);
    }
    let exe = std::env::current_exe().expect("benchmark executable path");
    let workloads: Vec<&str> = match args.workload.as_deref() {
        None | Some("all") => spec::WORKLOADS.iter().map(|w| w.name).collect(),
        Some(w) => vec![spec::workload(w).expect("validated").name],
    };
    let mut too_wide = 0;
    for workload in workloads {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        let mut attempted = 0;
        for i in 0..n as u64 {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &(args.seed + i).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(args.smoke.then_some("--smoke"))
                .output()
                .expect("spawn workload run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let parsed = stdout.lines().last().and_then(parse_result);
            let Some(parsed) = parsed.filter(|p| output.status.success() && p.correct) else {
                eprintln!(
                    "lvbench: {workload} seed {} failed:\n{}",
                    args.seed + i,
                    String::from_utf8_lossy(&output.stderr)
                );
                return ExitCode::FAILURE;
            };
            assert_eq!(parsed.failed, 0, "{workload}: an operation failed");
            attempted += parsed.attempted;
            for (slot, m) in samples.iter_mut().zip(spec::END_TO_END) {
                let value = parsed.metrics.iter().find(|(name, _)| name == m.name);
                slot.push(value.expect("every end-to-end metric is printed").1);
            }
        }
        println!(
            "{workload}: {n} runs, seeds {}..{}, {attempted} operations, none failed",
            args.seed,
            args.seed + n as u64 - 1
        );
        for (values, m) in samples.iter().zip(spec::END_TO_END) {
            let (q1, q3) = quartiles(values);
            let mid = median(values);
            let spread = (q3 - q1) / mid;
            let bound = m.bound.expect("end-to-end metrics have bounds");
            // Set-up time is held to its bound by medians across sets of
            // runs, not by its spread within one set.
            let wide = spread > bound && m.name != "setup_s";
            too_wide += wide as u32;
            let (lo, hi) = min_max(values);
            println!(
                "  {:22} min {lo:>14.4} median {mid:>14.4} max {hi:>14.4} {:6} spread {:6.2}% bound {:5.1}%{}",
                m.name,
                m.unit,
                spread * 100.0,
                bound * 100.0,
                if wide { "  TOO WIDE" } else { "" }
            );
        }
    }
    if too_wide > 0 {
        eprintln!("lvbench: {too_wide} spread(s) exceed their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn result_lines_round_trip() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"commit_tps": {"value": 612.25, "unit": "1/s"}, "setup_s": {"value": 0.0061, "unit": "s"}}}"#;
        let p = parse_result(line).unwrap();
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (1000, 0));
        assert_eq!(
            p.metrics,
            vec![
                ("commit_tps".to_string(), 612.25),
                ("setup_s".to_string(), 0.0061)
            ]
        );
        assert!(parse_result("not a result").is_none());
    }
}
