//! crimbench: one benchmark for the Crimson server, driven from a single
//! process through `crimson_server::Client` over loopback against an
//! in-process `Server`.
//!
//! ```text
//! cargo run --release --manifest-path crimbench/Cargo.toml -- \
//!     --workload served_point_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the same inputs layer by layer under in-memory spans, writes the
//! spans to `.crimbench_out/`, and prints the per-layer metrics. The last
//! line of standard output is the result object; the line before it is
//! the run record. See `crimbench/README.md`.

mod e2e;
mod inputs;
mod oracle;
mod report;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{Shape, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crimbench: {e}");
            eprintln!(
                "usage: crimbench --workload served_point_hot|served_structure_cold|ingest_sweep \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let shape = Shape::of(args.workload, args.seconds);
    let work = PathBuf::from(".crimbench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let report = if args.trace {
        trace::run(
            &shape,
            args.seed,
            args.seconds,
            &work,
            &PathBuf::from(".crimbench_out"),
        )
    } else {
        e2e::run(&shape, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".crimbench_work");
    println!("{{\"run_record\": {}}}", report.record.json());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
