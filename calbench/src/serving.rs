//! Serving-scale workloads: 2-user QPSK frames (4 QUBO variables) from
//! Gauss–Markov channel tracks (ρ = 0.9, 14 dB), streamed by 8 cells into
//! the shared solver fabric. Each timed step is one whole fabric run over a
//! fresh seeded configuration.
//!
//! * `serving` — the virtual-clock `run_fabric` over the `hetero` pool
//!   (SA pool, PIMC, SVMC, mock QPU).
//! * `serving-rt` — the wall-clock `run_fabric_rt_grid` over the `sa-pool`
//!   pool with one producer and one queue shard.

use crate::harness::{par_map, Counters, Metrics, Quality, Workload};
use crate::stats::{median, mix_seed, ratio, Digest};
use crate::trace::Tracer;
use hqw_bench::runs::fabric_mixes;
use hqw_core::fabric::{
    run_fabric, run_fabric_grid, run_fabric_traced, ArrivalProcess, BackendMix, BackendSpec,
    FabricConfig, FabricGridConfig, FabricJob, FabricMode, FabricReport, RealtimeConfig,
};
use hqw_core::fabric_rt::{run_fabric_rt_grid, FabricRtReport};
use hqw_core::sched::{PriorityClass, SchedOptions};
use hqw_core::stream::CostModel;
use hqw_phy::channel::{snr_db_to_noise_variance, ChannelTrack, TrackConfig};
use hqw_phy::detect::{Detector, Mmse};
use hqw_phy::instance::DetectionInstance;
use hqw_phy::modulation::Modulation;
use hqw_phy::reduction::reduce_to_qubo;
use std::time::{Duration, Instant};

/// Users (= receive antennas) per cell.
const USERS: usize = 2;
/// Operating SNR (dB).
const SNR_DB: f64 = 14.0;
/// Radio cells sharing the fabric.
const CELLS: usize = 8;
/// Per-cell frame period (µs): with 8 cells, all four `hetero` backends
/// serve, batches coalesce, and admission downgrades a minority of jobs.
const PERIOD_US: f64 = 120.0;
/// Per-cell frame period of `serving-rt` (µs): the single SA pool serves
/// most jobs and admission downgrades a minority.
const RT_PERIOD_US: f64 = 480.0;
/// Frames per cell per fabric run.
const FRAMES_PER_CELL: usize = 96;
/// Per-frame latency budget on the virtual clock (µs).
const DEADLINE_US: f64 = 700.0;
/// Distinct seeded configurations per run; the timed loop cycles through
/// them and every quality figure is over exactly this set.
const POOL: usize = 384;

fn track() -> TrackConfig {
    TrackConfig {
        n_users: USERS,
        n_rx: USERS,
        modulation: Modulation::Qpsk,
        rho: 0.9,
        noise_variance: snr_db_to_noise_variance(SNR_DB, USERS),
    }
}

fn mix(name: &str) -> BackendMix {
    fabric_mixes()
        .into_iter()
        .find(|m| m.name == name)
        .expect("the bench crate defines this mix")
}

/// Deterministic fields of one fabric run that every repeat must
/// reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct RunSummary {
    ber: u64,
    fallback: u64,
    deadline_miss: u64,
    /// Per backend: jobs, batches, cache hits, cache misses.
    backends: Vec<[u64; 4]>,
}

impl RunSummary {
    fn of(report: &FabricReport) -> Self {
        RunSummary {
            ber: report.ber.to_bits(),
            fallback: report.fallback_rate.to_bits(),
            deadline_miss: report.deadline_miss_rate.to_bits(),
            backends: report
                .backends
                .iter()
                .map(|b| {
                    [
                        b.jobs as u64,
                        b.batches,
                        b.embed_cache_hits,
                        b.embed_cache_misses,
                    ]
                })
                .collect(),
        }
    }
}

/// One backend's totals over the reference fabric runs.
#[derive(Debug, Default)]
struct BackendTotals {
    name: String,
    jobs: f64,
    batches: f64,
    cache_hits: f64,
    cache_misses: f64,
    /// Σ modeled service µs over the backend's jobs.
    modeled_us: f64,
}

/// Pool-wide totals of the reference fabric runs.
#[derive(Debug, Default)]
struct PoolStats {
    jobs: u64,
    fallback_jobs: u64,
    backends: Vec<BackendTotals>,
}

impl PoolStats {
    fn add(&mut self, report: &FabricReport) {
        self.jobs += report.jobs as u64;
        self.fallback_jobs += (report.fallback_rate * report.jobs as f64).round() as u64;
        if self.backends.is_empty() {
            self.backends = report
                .backends
                .iter()
                .map(|b| BackendTotals {
                    name: b.name.clone(),
                    ..BackendTotals::default()
                })
                .collect();
        }
        for (acc, b) in self.backends.iter_mut().zip(&report.backends) {
            acc.jobs += b.jobs as f64;
            acc.batches += b.batches as f64;
            acc.cache_hits += b.embed_cache_hits as f64;
            acc.cache_misses += b.embed_cache_misses as f64;
            acc.modeled_us += b.mean_service_us * b.jobs as f64;
        }
    }

    fn counters(&self, digest: &Digest) -> Counters {
        let mut c = Counters::from([
            ("out.bits_digest", digest.value()),
            ("fabric.jobs", self.jobs as f64),
            ("fabric.fallback.jobs", self.fallback_jobs as f64),
        ]);
        for b in &self.backends {
            let name = &b.name;
            c.insert(leak(format!("fabric.backend.{name}.jobs")), b.jobs);
            c.insert(leak(format!("fabric.backend.{name}.batches")), b.batches);
            c.insert(
                leak(format!("fabric.backend.{name}.cache_hits")),
                b.cache_hits,
            );
            c.insert(
                leak(format!("fabric.backend.{name}.cache_misses")),
                b.cache_misses,
            );
        }
        c
    }
}

/// Metric and span names are built once per run from a handful of backend
/// names.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Synthesizes one fabric run's worth of jobs from outside the fabric, the
/// way the fabric does: one Gauss–Markov track per cell.
fn synthesize(seed: u64, tracer: &mut Tracer) -> Vec<FabricJob> {
    let span = tracer.begin("fabric.synth", None, 0);
    let tracks = ChannelTrack::cells(track(), CELLS, seed);
    let mut jobs = Vec::with_capacity(CELLS * FRAMES_PER_CELL);
    for (cell, mut track) in tracks.into_iter().enumerate() {
        for frame in 0..FRAMES_PER_CELL {
            let inst: DetectionInstance = track.next().expect("channel tracks are infinite");
            jobs.push(FabricJob {
                cell,
                frame,
                arrival_us: frame as f64 * PERIOD_US,
                seed: mix_seed(seed, (cell * FRAMES_PER_CELL + frame) as u64),
                class: PriorityClass::Embb,
                inst,
            });
        }
    }
    tracer.end(span);
    jobs
}

/// The per-layer probes both serving workloads share: job synthesis, the
/// reduction and QUBO→Ising→CSR build at serving scale, each backend's
/// measured solve cost at the pool's mean batch, and the classical
/// fallback. Sets `fabric.*` and layer metrics; returns the measured
/// solve µs per job averaged over the pool's routing mix.
fn probe_fabric(
    seed: u64,
    backends: &[BackendSpec],
    stats: &PoolStats,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> f64 {
    let jobs = synthesize(seed, tracer);
    let n = jobs.len() as f64;
    m.set(
        "fabric.synth.us_per_job",
        tracer.self_us_per("fabric.synth", n),
        "us",
    );

    let instances: Vec<DetectionInstance> = jobs.iter().map(|j| j.inst.clone()).collect();
    for (k, inst) in instances.iter().enumerate() {
        let span = tracer.begin("phy.reduce", None, k as u64);
        std::hint::black_box(reduce_to_qubo(&inst.system, &inst.h, &inst.y));
        tracer.end(span);
    }
    m.layer_us("phy.reduce", tracer.self_us_per("phy.reduce", n));
    crate::paper::probe_ising_csr(&instances, tracer, m);

    let cost = CostModel::default();
    let mut solve_us_per_job = 0.0;
    for (spec, totals) in backends.iter().zip(&stats.backends) {
        let mut backend = spec.build();
        let mean_batch = ratio(totals.jobs, totals.batches);
        let batch = (mean_batch.round() as usize).clamp(1, backend.max_batch());
        let refs: Vec<&FabricJob> = jobs.iter().collect();
        // One untimed call first: caches (the mock QPU's embedding) fill.
        backend.solve_batch(&cost, &refs[..batch]);
        let span_name = leak(format!("fabric.backend.{}.solve", totals.name));
        for chunk in refs.chunks(batch) {
            let span = tracer.begin(span_name, None, 0);
            std::hint::black_box(backend.solve_batch(&cost, chunk));
            tracer.end(span);
        }
        let us = tracer.self_us_per(span_name, n);
        let prefix = format!("fabric.backend.{}", totals.name);
        m.set(&format!("{prefix}.us_per_job"), us, "us");
        m.set(
            &format!("{prefix}.modeled_us_per_job"),
            ratio(totals.modeled_us, totals.jobs),
            "us",
        );
        m.set(&format!("{prefix}.mean_batch"), mean_batch, "count");
        solve_us_per_job += us * totals.jobs / stats.jobs as f64;
    }

    let mmse = Mmse::new(track().noise_variance);
    for (k, job) in jobs.iter().enumerate() {
        let span = tracer.begin("fabric.fallback", None, k as u64);
        std::hint::black_box(mmse.detect(&job.inst.system, &job.inst.h, &job.inst.y));
        tracer.end(span);
    }
    let fallback_us = tracer.self_us_per("fabric.fallback", n);
    m.set("fabric.fallback.us_per_job", fallback_us, "us");
    solve_us_per_job + fallback_us * stats.fallback_jobs as f64 / stats.jobs as f64
}

// ---------------------------------------------------------------------------
// serving
// ---------------------------------------------------------------------------

/// The `serving` workload.
pub struct Serving {
    seed: u64,
    configs: Vec<FabricConfig>,
    reference: Vec<RunSummary>,
    stats: PoolStats,
}

impl Workload for Serving {
    fn setup(seed: u64) -> Self {
        let backends = mix("hetero").backends;
        let configs: Vec<FabricConfig> = (0..POOL)
            .map(|k| FabricConfig {
                track: track(),
                n_cells: CELLS,
                frames_per_cell: FRAMES_PER_CELL,
                arrival_period_us: PERIOD_US,
                arrival: ArrivalProcess::Periodic,
                deadline_us: DEADLINE_US,
                cost: CostModel::default(),
                backends: backends.clone(),
                sched: SchedOptions::default(),
                seed: mix_seed(seed, k as u64),
            })
            .collect();
        std::hint::black_box(run_fabric(&configs[0]));
        Serving {
            seed,
            configs,
            reference: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    fn reference(&mut self) -> Quality {
        let runs = par_map(&self.configs, |_, config| run_fabric_traced(config));
        let mut quality = Quality::default();
        let mut digest = Digest::new();
        for (report, routes) in &runs {
            quality.ber += report.ber;
            quality.fallback_ratio += report.fallback_rate;
            quality.deadline_miss_ratio += report.deadline_miss_rate;
            for route in routes {
                digest.update(&route.map_or(u64::MAX, |b| b as u64).to_le_bytes());
            }
            digest.update(&report.ber.to_bits().to_le_bytes());
            self.stats.add(report);
            self.reference.push(RunSummary::of(report));
        }
        let n = self.configs.len() as f64;
        quality.ber /= n;
        quality.fallback_ratio /= n;
        quality.deadline_miss_ratio /= n;
        quality.counters = self.stats.counters(&digest);
        quality
    }

    fn step(&mut self, i: usize, tracer: &mut Tracer) -> (u64, Duration, u64) {
        let k = i % self.configs.len();
        let span = tracer.begin("fabric.call", None, i as u64);
        let t0 = Instant::now();
        let report = run_fabric(&self.configs[k]);
        let wall = t0.elapsed();
        tracer.end(span);
        let jobs = report.jobs as u64;
        let failed = if RunSummary::of(&report) == self.reference[k] {
            0
        } else {
            jobs
        };
        (jobs, wall, failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, frames: u64, m: &mut Metrics) {
        let call_us = tracer.self_us_per("fabric.call", frames as f64);
        let solve_us = probe_fabric(
            mix_seed(self.seed, 0xB0B),
            &self.configs[0].backends,
            &self.stats,
            tracer,
            m,
        );
        let synth_us = m.get("fabric.synth.us_per_job");
        m.set("fabric.call.us_per_job", call_us, "us");
        m.set(
            "fabric.sched.us_per_job",
            call_us - synth_us - solve_us,
            "us",
        );
    }
}

// ---------------------------------------------------------------------------
// serving-rt
// ---------------------------------------------------------------------------

/// Deterministic fields of one realtime run checked against the
/// virtual-time sim on the same configuration.
#[derive(Debug, Clone, PartialEq)]
struct RtSummary {
    ber: u64,
    fallback: u64,
}

/// The `serving-rt` workload.
pub struct ServingRt {
    seed: u64,
    grids: Vec<FabricGridConfig>,
    reference: Vec<RtSummary>,
    stats: PoolStats,
    /// Per traced call: (call s, report).
    calls: Vec<(f64, FabricRtReport)>,
}

impl Workload for ServingRt {
    fn setup(seed: u64) -> Self {
        let pool = mix("sa-pool");
        let grids: Vec<FabricGridConfig> = (0..POOL)
            .map(|k| FabricGridConfig {
                track: track(),
                frames_per_cell: FRAMES_PER_CELL,
                cell_counts: vec![CELLS],
                arrival_periods_us: vec![RT_PERIOD_US],
                mixes: vec![pool.clone()],
                arrival: ArrivalProcess::Periodic,
                mode: FabricMode::Realtime(RealtimeConfig {
                    producers: 1,
                    queue_shards: 1,
                }),
                deadline_us: DEADLINE_US,
                cost: CostModel::default(),
                sched: SchedOptions::default(),
                seed: mix_seed(seed, k as u64),
                threads: 1,
            })
            .collect();
        std::hint::black_box(run_fabric_rt_grid(&grids[0]));
        ServingRt {
            seed,
            grids,
            reference: Vec::new(),
            stats: PoolStats::default(),
            calls: Vec::new(),
        }
    }

    fn reference(&mut self) -> Quality {
        // The virtual-time sim is the oracle the realtime run must match.
        let reports = par_map(&self.grids, |_, grid| {
            run_fabric_grid(grid).points.remove(0)
        });
        let mut quality = Quality::default();
        let mut digest = Digest::new();
        for report in &reports {
            quality.ber += report.ber;
            quality.fallback_ratio += report.fallback_rate;
            quality.deadline_miss_ratio += report.deadline_miss_rate;
            digest.update(&report.ber.to_bits().to_le_bytes());
            self.stats.add(report);
            self.reference.push(RtSummary {
                ber: report.ber.to_bits(),
                fallback: report.fallback_rate.to_bits(),
            });
        }
        let n = self.grids.len() as f64;
        quality.ber /= n;
        quality.fallback_ratio /= n;
        quality.deadline_miss_ratio /= n;
        quality.counters = self.stats.counters(&digest);
        quality
    }

    fn step(&mut self, i: usize, tracer: &mut Tracer) -> (u64, Duration, u64) {
        let k = i % self.grids.len();
        let span = tracer.begin("fabric_rt.call", None, i as u64);
        let t0 = Instant::now();
        let report = run_fabric_rt_grid(&self.grids[k]).points.remove(0);
        let wall = t0.elapsed();
        tracer.end(span);
        let jobs = report.jobs as u64;
        let summary = RtSummary {
            ber: report.ber.to_bits(),
            fallback: report.fallback_rate.to_bits(),
        };
        let ok = report.replay_divergences == 0 && summary == self.reference[k];
        if tracer.is_on() {
            self.calls.push((wall.as_secs_f64(), report));
        }
        (jobs, wall, if ok { 0 } else { jobs })
    }

    fn layers(&mut self, tracer: &mut Tracer, frames: u64, m: &mut Metrics) {
        let calls = &self.calls;
        let n = calls.len().max(1) as f64;
        let scale = tracer.scale();
        let makespan_s = calls.iter().map(|(_, r)| r.wall_ms / 1e3).sum::<f64>() / n;
        let call_s = calls.iter().map(|(s, _)| s).sum::<f64>() / n;
        m.set("fabric_rt.makespan_s", makespan_s * scale, "s");
        m.set("fabric_rt.selfcheck_s", (call_s - makespan_s) * scale, "s");
        m.set(
            "fabric_rt.decision_ns_per_job",
            calls
                .iter()
                .map(|(_, r)| r.decision_ns_per_job)
                .sum::<f64>()
                / n
                * scale,
            "ns",
        );
        let waits: Vec<f64> = calls.iter().map(|(_, r)| r.p50_ms).collect();
        m.set("fabric_rt.wait_p50_ms", median(&waits), "ms");
        m.set(
            "fabric_rt.replay_divergences",
            calls.iter().map(|(_, r)| r.replay_divergences as f64).sum(),
            "count",
        );
        let call_us = tracer.self_us_per("fabric_rt.call", frames as f64);
        let backends = self.grids[0].mixes[0].backends.clone();
        probe_fabric(
            mix_seed(self.seed, 0xB0B),
            &backends,
            &self.stats,
            tracer,
            m,
        );
        m.set("fabric.call.us_per_job", call_us, "us");
    }
}
