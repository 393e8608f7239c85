//! End-to-end and per-layer benchmark of the TriPoll resident survey
//! service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload web_count --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one client in a closed loop, queries on 2 simulated
//! ranks with the program's defaults (serial merge). `--trace 0` is the
//! timed pass and prints the end-to-end metrics; `--trace 1` is a
//! separate traced pass that prints the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and the metrics.

mod alloc;
mod common;
mod oracle;
mod reddit_closure;
mod report;
mod stats;
mod stream_ingest;
mod web_count;

use std::process::ExitCode;

use tripoll_gen::DatasetSize;

use crate::common::{Outcome, Plan};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["web_count", "reddit_closure", "stream_ingest"];

struct Args {
    workload: String,
    seconds: f64,
    plan: Plan,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(bad("must be a finite number >= 0"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    let plan = plan_for(
        &workload,
        DatasetSize::Small,
        seed.ok_or("--seed is required")?,
        seconds,
    );
    Ok(Args {
        workload,
        seconds,
        plan,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Measured operations per second of `--seconds`, per workload: about
/// what the reference host completes at the small preset (README). A
/// run measures a fixed number of operations rather than a fixed time,
/// so that every run of a workload has the same sample count and so
/// reports its tail at the same percentile. 20 s gives 190 queries,
/// whose tail is p90 with 19 samples beyond it (200 would move it to
/// p95 with only 10 beyond, which one burst of host noise shifts), and
/// 8 streams of 20 batches, whose tail is p90 with 16 beyond.
fn rounds_per_second(workload: &str) -> f64 {
    match workload {
        "stream_ingest" => 0.4,
        _ => 9.5,
    }
}

fn plan_for(workload: &str, preset: DatasetSize, seed: u64, seconds: f64) -> Plan {
    Plan {
        preset,
        seed,
        setups: 15,
        rounds: ((seconds * rounds_per_second(workload)).round() as usize).max(1),
    }
}

fn run(workload: &str, plan: &Plan, trace: bool) -> Outcome {
    match workload {
        "web_count" => web_count::run(plan, trace),
        "reddit_closure" => reddit_closure::run(plan, trace),
        "stream_ingest" => stream_ingest::run(plan, trace),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Removes the environment the program reads for its defaults, so that
/// settings exported for other purposes (test reruns, the bench
/// harness) cannot change what is measured.
fn scrub_env() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            matches!(
                k.as_str(),
                "TRIPOLL_THREADS" | "TRIPOLL_RPN" | "TRIPOLL_OVERLAP"
            ) || k.starts_with("TRIPOLL_BENCH_")
        })
        .collect();
    for k in names {
        std::env::remove_var(k);
    }
}

fn main() -> ExitCode {
    scrub_env();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} rounds {} trace {} preset {:?} ranks {} nproc {nproc}",
        args.workload,
        args.plan.seed,
        args.seconds,
        args.plan.rounds,
        args.trace as u8,
        args.plan.preset,
        common::RANKS
    );
    let out = run(&args.workload, &args.plan, args.trace);
    let catalogue = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for line in out.notes.iter().chain(&out.tally.lines()) {
        println!("{line}");
    }
    for (name, unit) in catalogue {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        println!("metric {name} = {v} {unit}");
    }
    println!(
        "{}",
        report::result_json(&out.tally, catalogue, &out.values)
    );
    if out.tally.correct() && out.tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload web_count --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "web_count");
        assert_eq!((a.plan.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.plan.rounds, 95);
        assert_eq!(a.plan.preset, DatasetSize::Small);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload web_count --seed x --seconds 1 --trace 0",
            "--workload web_count --seed 1 --seconds 1 --trace 2",
            "--workload web_count --seed 1 --seconds -1 --trace 0",
            "--workload web_count --seed 1 --trace 0",
            "--workload web_count --seed 1 --seconds 1 --trace",
            "--workload web_count --seed 1 --seconds 1 --trace 0 --preset tiny",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// Every workload, both passes, at the tiny preset: all answers
    /// check out and every catalogued metric of the pass is set.
    #[test]
    fn tiny_runs_check_their_answers() {
        for &workload in WORKLOADS {
            for trace in [false, true] {
                let mut plan = plan_for(workload, DatasetSize::Tiny, 3, 0.0);
                plan.setups = plan.setups.min(2);
                let out = run(workload, &plan, trace);
                let what = format!("{workload} trace={trace}");
                assert!(out.tally.correct(), "{what}: {:?}", out.tally.lines());
                assert_eq!(out.tally.failed(), 0, "{what}: {:?}", out.tally.lines());
                assert!(out.tally.attempted() >= 3, "{what}");
                let catalogue = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                if !trace {
                    for (name, _) in catalogue {
                        let v = out.values.get(name).copied().unwrap_or(0.0);
                        assert!(v > 0.0, "{what}: {name} = {v}");
                    }
                }
                let json = report::result_json(&out.tally, catalogue, &out.values);
                assert!(json.starts_with("{\"correct\": true"), "{json}");
            }
        }
    }
}
