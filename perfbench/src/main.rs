//! Steady-state frame benchmark for the RBCD pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense|static|sparse|batch> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a protocol header, a metric table and, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for what each workload and metric is for.

mod check;
mod host;
mod run;
#[cfg(test)]
mod tests;

use std::process::ExitCode;

use run::{Protocol, Report, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Metrics of an untraced run that go into the JSON line. `error_rate`
/// is printed in the table only: it reads 0 on a correct run, and the
/// JSON line carries the same fact as `failed` / `attempted`.
const END_TO_END: [&str; 7] = [
    "frame_ms_p50",
    "frame_ms_p90",
    "frames_per_s",
    "setup_s",
    "peak_rss_mb",
    "sim_cycles_per_frame",
    "sim_energy_uj_per_frame",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| bad("dense, static, sparse or batch"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds >= 0"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_report(args: &Args, proto: &Protocol, report: &Report) {
    let nproc = host::nproc();
    println!(
        "# perfbench rev={} workload={} seed={} traced={} viewport={}x{} workers={} nproc={} \
         effective_parallelism={:.2} run_seconds={} setup_reps={} streams={} warmup_frames={} \
         timed_frames={}",
        host::git_rev(),
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        proto.gpu.viewport.width,
        proto.gpu.viewport.height,
        proto.workers,
        nproc,
        host::effective_parallelism(nproc),
        args.seconds,
        proto.setup_reps,
        report.streams.join(","),
        report.warmup_frames,
        report.timed_frames,
    );
    println!(
        "# checked {} frames against the exact reference: {} failed; shadow geometry mismatches: {}",
        report.verdict.attempted, report.verdict.failed, report.shadow_mismatches
    );
    for sh in &report.shares {
        println!(
            "# shares {:<8} frames={:<6} tile_reuse={:.3} draw_hits={:.3} bp_skip={:.3}",
            sh.alias, sh.frames, sh.tile_reuse, sh.draw_hits, sh.bp_skip
        );
    }
    println!(
        "{:<36} {:>16} {:<9} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "{:<36} {:>16.4} {:<9} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(correct: bool, report: &Report, names: &[&str]) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| names.contains(&m.name))
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.verdict.attempted,
        report.verdict.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let proto = Protocol::new(args.workload, args.seconds);
    let report = run::run(args.workload, &proto, args.seed, args.trace, false);
    print_report(&args, &proto, &report);

    let names: Vec<&str> = if args.trace {
        report.metrics.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.to_vec()
    };
    let correct = report.verdict.failed == 0
        && report.verdict.attempted > 0
        && report.shadow_mismatches == 0
        && report.metrics.iter().all(|m| m.value.is_finite());
    println!("{}", json_line(correct, &report, &names));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
