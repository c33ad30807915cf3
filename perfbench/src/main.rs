//! Command-line entry point of the simulator benchmark.
//!
//! ```text
//! fss-perfbench --workload <switch_churn|zapping_flash|lossy_event>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end table with `--trace 0`, the per-layer table with `--trace 1`).
//! Exits 1 when an output check fails and 2 on bad arguments.

use fss_perfbench::metrics::{summarize, END_TO_END};
use fss_perfbench::tracer::Tracer;
use fss_perfbench::{run_rep, Params, Workload};
use fss_runtime::WorkerPool;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage(message: &str) -> ExitCode {
    eprintln!("fss-perfbench: {message}");
    eprintln!(
        "usage: fss-perfbench --workload <switch_churn|zapping_flash|lossy_event> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::from_name(value);
                workload.is_some()
            }
            "--seed" => {
                seed = value.parse::<u64>().ok();
                seed.is_some()
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite());
                seconds.is_some()
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
                trace.is_some()
            }
            _ => return usage(&format!("unknown argument {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let params = Params::new(workload, seed, seconds, trace);

    let pool = Arc::new(WorkerPool::new(params.workers));
    let mut tracer = Tracer::new(params.trace);
    let mut results = Vec::with_capacity(params.reps);
    for rep in 0..params.reps {
        tracer.set_run(rep as u32);
        results.push(run_rep(&params, &pool, &mut tracer));
    }
    drop(pool);

    let rss = peak_rss_mib().unwrap_or(f64::NAN);
    let summary = summarize(&results, &tracer, rss);
    let sim = results[0].sim;
    println!(
        "workload {} seed {} | {} builds x {} measured periods after {} warm-up periods | pool of {} | closed loop",
        workload.name(),
        seed,
        params.reps,
        sim.periods,
        sim.warmup_periods,
        params.workers
    );
    for (i, rep) in results.iter().enumerate() {
        let mut ms: Vec<f64> = rep.period_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        println!(
            "  build {i}: setup {:.3} s, window {:.3} s, period p50 {:.3} ms, p90 {:.3} ms",
            rep.setup_ns as f64 / 1e9,
            rep.window_ns as f64 / 1e9,
            fss_perfbench::quantile(&ms, 0.5),
            fss_perfbench::quantile(&ms, 0.9)
        );
    }
    for note in &results[0].notes {
        println!("  {note}");
    }
    for &(name, unit, value) in &summary.metrics {
        let kind = END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .map_or("layer", |m| m.2);
        println!("{name:<36} {value:>16.6} {unit:<16} {kind}");
    }
    println!(
        "{:<36} {:>16.6} {:<16} simulated",
        "zap_latency_p95_s", sim.zap_latency_p95_s, "s"
    );
    println!("{:<36} {:>16}", "ops", summary.ops);
    println!("{:<36} {:>16}", "ops_failed", summary.ops_failed);
    println!("{:<36} {:>16}", "period_samples", summary.period_samples);
    println!("{:<36} {:>16.6}", "host_steal_share", summary.steal_share);
    if tracer.is_on() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{seed}.tsv", workload.name()));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    for failure in &summary.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", summary.json());
    if summary.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
