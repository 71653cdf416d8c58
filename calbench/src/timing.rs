//! The timed loop and set-up timing, both host-calibrated.

use crate::calib::Calibrator;
use std::time::Duration;

/// One timed step: a frame (paper workloads) or a fabric call (serving).
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Wall time of the step (s).
    pub wall_s: f64,
    /// Calibration factor of the step.
    pub factor: f64,
    /// Frames the step completed.
    pub frames: u64,
}

impl Step {
    /// Calibrated time of the step (s).
    pub fn calibrated_s(&self) -> f64 {
        self.wall_s * self.factor
    }
}

/// Every step of one timed loop.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// Steps in execution order.
    pub steps: Vec<Step>,
}

impl TimedRun {
    /// Frames completed.
    pub fn frames(&self) -> u64 {
        self.steps.iter().map(|s| s.frames).sum()
    }

    /// Timed wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.steps.iter().map(|s| s.wall_s).sum()
    }

    /// Timed seconds at nominal host speed.
    pub fn calibrated_s(&self) -> f64 {
        self.steps.iter().map(Step::calibrated_s).sum()
    }

    /// Frames per calibrated second.
    pub fn frames_per_s(&self) -> f64 {
        crate::stats::ratio(self.frames() as f64, self.calibrated_s())
    }

    /// Frames per wall second.
    pub fn wall_frames_per_s(&self) -> f64 {
        crate::stats::ratio(self.frames() as f64, self.wall_s())
    }

    /// Mean calibration factor, weighted by wall time.
    pub fn mean_factor(&self) -> f64 {
        crate::stats::ratio(self.calibrated_s(), self.wall_s())
    }

    /// Per-frame time of every step (µs): a step's time over its frames.
    pub fn per_frame_us(&self, calibrated: bool) -> Vec<f64> {
        self.steps
            .iter()
            .filter(|s| s.frames > 0)
            .map(|s| {
                let t = if calibrated {
                    s.calibrated_s()
                } else {
                    s.wall_s
                };
                t * 1e6 / s.frames as f64
            })
            .collect()
    }
}

/// Runs `step(0)`, `step(1)`, … until `seconds` of step wall time have
/// accumulated. Each call returns the frames it completed and the wall
/// time of its timed part, so output checks can run untimed inside it.
/// Every step is bracketed by reference repetitions and calibrated by
/// their mean.
pub fn run_timed<F>(cal: &mut Calibrator, seconds: f64, mut step: F) -> TimedRun
where
    F: FnMut(usize) -> (u64, Duration),
{
    let mut run = TimedRun::default();
    let mut before = cal.interleave(0.0);
    let mut total_s = 0.0;
    let mut i = 0;
    while total_s < seconds {
        let (frames, wall) = step(i);
        i += 1;
        let wall_s = wall.as_secs_f64();
        let after = cal.interleave(wall_s);
        run.steps.push(Step {
            wall_s,
            factor: cal.factor(before, after),
            frames,
        });
        before = after;
        total_s += wall_s;
    }
    run
}

/// Runs `setup` `reps` times, each bracketed by reference repetitions, and
/// returns the last result with the calibrated and wall seconds of every
/// repetition.
pub fn time_setup<T, F>(cal: &mut Calibrator, reps: usize, mut setup: F) -> (T, Vec<f64>, Vec<f64>)
where
    F: FnMut() -> T,
{
    let mut calibrated = Vec::with_capacity(reps);
    let mut wall = Vec::with_capacity(reps);
    let mut last = None;
    let mut before = cal.interleave(0.0);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let value = setup();
        let wall_s = t0.elapsed().as_secs_f64();
        let after = cal.interleave(wall_s);
        calibrated.push(wall_s * cal.factor(before, after));
        wall.push(wall_s);
        before = after;
        last = Some(value);
    }
    (last.expect("reps >= 1"), calibrated, wall)
}
