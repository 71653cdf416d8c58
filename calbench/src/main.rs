//! Host-calibrated benchmark of the hqw workspace.
//!
//! ```text
//! calbench --workload <paper-ra|paper-sa|serving|serving-rt> --seed <n>
//!          --seconds <s> --trace <0|1> --ref-nominal-us <µs>
//! ```
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Exits 1 when any output check failed, 2 on a usage error.
//! See `README.md` for the workloads, metrics and calibration method.

mod calib;
mod harness;
mod paper;
mod serving;
mod stats;
mod timing;
mod trace;

use harness::{run, Settings};

const USAGE: &str = "usage: calbench --workload <paper-ra|paper-sa|serving|serving-rt> \
--seed <n> --seconds <s> --trace <0|1> --ref-nominal-us <us>";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ref_nominal_us = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--ref-nominal-us" => {
                let us: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(us > 0.0 && us.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                ref_nominal_us = Some(us);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        ref_nominal_us: ref_nominal_us.ok_or("--ref-nominal-us is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("calbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match settings.workload.as_str() {
        "paper-ra" => run::<paper::PaperRa>(&settings),
        "paper-sa" => run::<paper::PaperSa>(&settings),
        "serving" => run::<serving::Serving>(&settings),
        "serving-rt" => run::<serving::ServingRt>(&settings),
        other => {
            eprintln!("calbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct, outcome.attempted, outcome.failed, outcome.metrics_json
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
