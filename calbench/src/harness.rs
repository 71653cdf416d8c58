//! The flow every workload shares: calibrated set-up, an untimed reference
//! pass, the timed loop(s) with per-step output checks, and the metrics.

use crate::calib::Calibrator;
use crate::stats::{median, percentile, ratio};
use crate::timing::{run_timed, time_setup, TimedRun};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Duration;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_s", "1/s"),
    ("frame_p50_us", "us"),
    ("frame_p90_us", "us"),
    ("ber", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phy.reduce.us", "us"),
    ("qubo.greedy.us", "us"),
    ("qubo.ising.us", "us"),
    ("qubo.csr.us", "us"),
    ("qubo.csr.nnz", "count"),
    ("anneal.sample.us", "us"),
    ("anneal.sample.spin_updates", "count"),
    ("anneal.sample.ns_per_update", "ns"),
    ("qubo.sa.sample_us", "us"),
    ("qubo.sa.us", "us"),
    ("qubo.sa.flip_attempts", "count"),
    ("qubo.sa.ns_per_flip", "ns"),
    ("phy.decode.us", "us"),
    ("frame.self_us", "us"),
    ("fabric.call.us_per_job", "us"),
    ("fabric.synth.us_per_job", "us"),
    ("fabric.sched.us_per_job", "us"),
    ("fabric.fallback.us_per_job", "us"),
    ("fabric.jobs", "count"),
    ("fabric.fallback.jobs", "count"),
    ("fabric.backend.sa-pool.us_per_job", "us"),
    ("fabric.backend.sa-pool.modeled_us_per_job", "us"),
    ("fabric.backend.sa-pool.mean_batch", "count"),
    ("fabric.backend.sa-pool.jobs", "count"),
    ("fabric.backend.sa-pool.batches", "count"),
    ("fabric.backend.sa-pool.cache_hits", "count"),
    ("fabric.backend.sa-pool.cache_misses", "count"),
    ("fabric.backend.pimc.us_per_job", "us"),
    ("fabric.backend.pimc.modeled_us_per_job", "us"),
    ("fabric.backend.pimc.mean_batch", "count"),
    ("fabric.backend.pimc.jobs", "count"),
    ("fabric.backend.pimc.batches", "count"),
    ("fabric.backend.pimc.cache_hits", "count"),
    ("fabric.backend.pimc.cache_misses", "count"),
    ("fabric.backend.svmc.us_per_job", "us"),
    ("fabric.backend.svmc.modeled_us_per_job", "us"),
    ("fabric.backend.svmc.mean_batch", "count"),
    ("fabric.backend.svmc.jobs", "count"),
    ("fabric.backend.svmc.batches", "count"),
    ("fabric.backend.svmc.cache_hits", "count"),
    ("fabric.backend.svmc.cache_misses", "count"),
    ("fabric.backend.mock-qpu.us_per_job", "us"),
    ("fabric.backend.mock-qpu.modeled_us_per_job", "us"),
    ("fabric.backend.mock-qpu.mean_batch", "count"),
    ("fabric.backend.mock-qpu.jobs", "count"),
    ("fabric.backend.mock-qpu.batches", "count"),
    ("fabric.backend.mock-qpu.cache_hits", "count"),
    ("fabric.backend.mock-qpu.cache_misses", "count"),
    ("fabric_rt.makespan_s", "s"),
    ("fabric_rt.selfcheck_s", "s"),
    ("fabric_rt.decision_ns_per_job", "ns"),
    ("fabric_rt.wait_p50_ms", "ms"),
    ("fabric_rt.replay_divergences", "count"),
    ("quality.fallback_ratio", "ratio"),
    ("quality.deadline_miss_ratio", "ratio"),
    ("out.bits_digest", "count"),
    ("frame.p99_us", "us"),
    ("host.ref_us", "us"),
    ("wall.frames_per_s", "1/s"),
    ("wall.frame_p50_us", "us"),
    ("wall.frame_p90_us", "us"),
    ("wall.setup_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Deterministic work counters of one reference pass, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// Quality figures and work counters of the reference pass: deterministic
/// for a seed.
#[derive(Debug, Default)]
pub struct Quality {
    pub ber: f64,
    pub fallback_ratio: f64,
    pub deadline_miss_ratio: f64,
    pub counters: Counters,
}

/// Named metric values with their units.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Sets `<layer>.us`.
    pub fn layer_us(&mut self, layer: &str, us: f64) {
        self.set(&format!("{layer}.us"), us, "us");
    }

    /// A metric's value, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    /// Renders the metrics of `spec` as a JSON object. A metric missing
    /// from an end-to-end spec, a unit that disagrees with the spec, a
    /// metric outside the spec or a non-finite value is a benchmark bug.
    fn to_json(&self, spec: &[(&str, &'static str)], required: bool) -> String {
        for name in self.values.keys() {
            assert!(
                spec.iter().any(|(n, _)| n == name),
                "metric {name} is not in the benchmark's list"
            );
        }
        let fields: Vec<String> = spec
            .iter()
            .map(|&(name, unit)| {
                let (value, got_unit) = match self.values.get(name) {
                    Some(&v) => v,
                    None if !required => (0.0, unit),
                    None => panic!("metric {name} was not measured"),
                };
                assert_eq!(got_unit, unit, "metric {name} has the wrong unit");
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generates the seeded inputs, constructs solvers or backends and runs
    /// an untimed warm-up.
    fn setup(seed: u64) -> Self;

    /// Untimed pass over every distinct input through the program's own
    /// top-level functions: stores the expected outputs and returns the
    /// quality figures and work counters.
    fn reference(&mut self) -> Quality;

    /// Timed step `i`: returns the frames completed, the wall time of the
    /// timed part, and the frames whose output check failed.
    fn step(&mut self, i: usize, tracer: &mut Tracer) -> (u64, Duration, u64);

    /// After the traced loop of `frames` frames: per-layer metrics from its
    /// spans plus any probes of layers the timed path cannot see into.
    fn layers(&mut self, tracer: &mut Tracer, frames: u64, m: &mut Metrics);
}

/// Run settings from the command line.
#[derive(Debug)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ref_nominal_us: f64,
}

/// The result line's contents.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics_json: String,
}

/// Maps `f` over `items` on two threads, preserving order. Only the
/// untimed reference passes use it; every timed step runs on one thread.
pub fn par_map<S, T, F>(items: &[S], f: F) -> Vec<T>
where
    S: Sync,
    T: Send,
    F: Fn(usize, &S) -> T + Sync,
{
    let mid = items.len().div_ceil(2);
    let (head, tail) = items.split_at(mid);
    let f = &f;
    std::thread::scope(|scope| {
        let second = scope.spawn(move || {
            tail.iter()
                .enumerate()
                .map(|(i, item)| f(mid + i, item))
                .collect::<Vec<T>>()
        });
        let mut out: Vec<T> = head
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        out.extend(second.join().expect("reference worker panicked"));
        out
    })
}

/// Runs workload `W` under `settings`.
pub fn run<W: Workload>(settings: &Settings) -> Outcome {
    let mut cal = Calibrator::new(settings.ref_nominal_us);
    let (mut workload, setup_cal, setup_wall) =
        time_setup(&mut cal, SETUP_REPS, || W::setup(settings.seed));
    let quality = workload.reference();

    let mut failed = 0u64;
    let mut timed = |cal: &mut Calibrator, seconds: f64, tracer: &mut Tracer| {
        run_timed(cal, seconds, |i| {
            let (frames, wall, bad) = workload.step(i, tracer);
            failed += bad;
            (frames, wall)
        })
    };
    // A traced run splits its time between an untraced and a traced loop;
    // the ratio of the two is the tracing overhead.
    let plain_s = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let plain = timed(&mut cal, plain_s, &mut Tracer::off());
    let mut m = Metrics::default();
    let (attempted, spec, required) = if settings.trace {
        let mut tracer = Tracer::on();
        let traced = timed(&mut cal, settings.seconds / 2.0, &mut tracer);
        tracer.set_scale(traced.mean_factor());
        workload.layers(&mut tracer, traced.frames(), &mut m);
        for (&name, &value) in &quality.counters {
            m.set(name, value, "count");
        }
        m.set("quality.fallback_ratio", quality.fallback_ratio, "ratio");
        m.set(
            "quality.deadline_miss_ratio",
            quality.deadline_miss_ratio,
            "ratio",
        );
        let per_frame = plain.per_frame_us(true);
        m.set("frame.p99_us", percentile(&per_frame, 99.0), "us");
        m.set("host.ref_us", cal.mean_us(), "us");
        set_wall(&mut m, &plain, &setup_wall);
        m.set(
            "trace.overhead",
            ratio(traced.frames_per_s(), plain.frames_per_s()),
            "ratio",
        );
        let path = format!(
            "calbench/out/spans-{}-{}.jsonl",
            settings.workload, settings.seed
        );
        if let Err(e) = tracer.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("calbench: could not write {path}: {e}");
        }
        (plain.frames() + traced.frames(), PER_LAYER, false)
    } else {
        let per_frame = plain.per_frame_us(true);
        m.set("frames_per_s", plain.frames_per_s(), "1/s");
        m.set("frame_p50_us", percentile(&per_frame, 50.0), "us");
        m.set("frame_p90_us", percentile(&per_frame, 90.0), "us");
        m.set("ber", quality.ber, "ratio");
        m.set("setup_s", median(&setup_cal), "s");
        (plain.frames(), END_TO_END, true)
    };
    eprintln!(
        "calbench: {} seed={} frames={} calibrated_fps={:.3} wall_fps={:.3} factor={:.4} ref_us={:.2} setup_s={:.5} wall_setup_s={:.5} ber={:.6} fallback={:.6} miss={:.6}",
        settings.workload,
        settings.seed,
        plain.frames(),
        plain.frames_per_s(),
        plain.wall_frames_per_s(),
        plain.mean_factor(),
        cal.mean_us(),
        median(&setup_cal),
        median(&setup_wall),
        quality.ber,
        quality.fallback_ratio,
        quality.deadline_miss_ratio,
    );
    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics_json: m.to_json(spec, required),
    }
}

/// The raw (uncalibrated) twins of the end-to-end timings.
fn set_wall(m: &mut Metrics, plain: &TimedRun, setup_wall: &[f64]) {
    let per_frame = plain.per_frame_us(false);
    m.set("wall.frames_per_s", plain.wall_frames_per_s(), "1/s");
    m.set("wall.frame_p50_us", percentile(&per_frame, 50.0), "us");
    m.set("wall.frame_p90_us", percentile(&per_frame, 90.0), "us");
    m.set("wall.setup_s", median(setup_wall), "s");
}
