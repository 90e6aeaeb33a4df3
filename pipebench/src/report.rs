//! Correctness accounting and the output schema.
//!
//! The last stdout line of every run is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; each metric
//! carries its value and unit. The metric names and units are those
//! declared in `BENCHMARK.json` (the tests hold the two together).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use sma_core::sequential::SmaResult;
use sma_core::{MotionEstimate, SmaFrames};
use sma_grid::{FlowField, Grid};
use sma_satdata::tracers::{pick_tracers, tracer_points};
use sma_surface::GeomVars;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Why an attempted unit failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The call errored or its output is wrong: the run is incorrect.
    Wrong(String),
    /// The pair missed the paper's accuracy criterion (tracer RMS below
    /// [`MAX_TRACER_RMS_PX`]). That is a failed operation, counted in
    /// `failed`, but the output is the program's own answer, not a
    /// broken one, so it leaves the run correct.
    Miss(String),
}

impl Failure {
    /// The same failure, its message prefixed with `what`.
    pub fn within(self, what: &str) -> Self {
        match self {
            Failure::Wrong(m) => Failure::Wrong(format!("{what}: {m}")),
            Failure::Miss(m) => Failure::Miss(format!("{what}: {m}")),
        }
    }
}

impl From<String> for Failure {
    fn from(why: String) -> Self {
        Failure::Wrong(why)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Wrong(m) => write!(f, "FAILED {m}"),
            Failure::Miss(m) => write!(f, "MISSED {m}"),
        }
    }
}

/// Every attempted unit of work and every failure among them. A failed
/// pair is counted here and never dropped from the denominator.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units that errored, failed a check or missed the criterion.
    pub failed: u64,
    /// Units among `failed` whose failure makes the run incorrect.
    pub wrong: u64,
    /// The first few failures, for the report.
    pub reasons: Vec<Failure>,
}

impl Tally {
    /// Count one attempted unit and its outcome.
    pub fn record<F: Into<Failure>>(&mut self, outcome: Result<(), F>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            let why = why.into();
            self.failed += 1;
            self.wrong += u64::from(matches!(why, Failure::Wrong(_)));
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// True when something was attempted, no output was wrong, and every
    /// metric is finite: no metric may silently read NaN.
    pub fn is_correct(&self, metrics: &[Metric]) -> bool {
        self.attempted > 0 && self.wrong == 0 && metrics.iter().all(|m| m.value.is_finite())
    }

    /// Failed units over attempted units (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The final JSON line; `correct` is [`Tally::is_correct`], and a
/// non-finite value is written as `null`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.is_correct(metrics),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// The paper's validation protocol: 32 reference vectors.
pub const TRACERS: usize = 32;
/// Minimum share of tracked pixels with a valid estimate.
pub const MIN_VALID_FRAC: f64 = 0.9;
/// The paper's accuracy criterion at the tracers, in pixels.
pub const MAX_TRACER_RMS_PX: f64 = 1.0;

/// Accuracy sums of one or more pairs, pooled so run-level RMS values
/// weight every pixel and tracer equally.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Tracked pixels.
    pub tracked: u64,
    /// Tracked pixels with a valid estimate.
    pub valid: u64,
    /// Sum of squared endpoint errors over valid tracked pixels.
    pub dense_sq: f64,
    /// Tracers scored.
    pub tracers: u64,
    /// Sum of squared endpoint errors at the tracers.
    pub tracer_sq: f64,
}

impl Accuracy {
    /// Add another pair's sums.
    pub fn add(&mut self, o: &Accuracy) {
        self.tracked += o.tracked;
        self.valid += o.valid;
        self.dense_sq += o.dense_sq;
        self.tracers += o.tracers;
        self.tracer_sq += o.tracer_sq;
    }

    /// Share of tracked pixels with a valid estimate.
    pub fn valid_frac(&self) -> f64 {
        self.valid as f64 / self.tracked.max(1) as f64
    }

    /// RMS endpoint error over valid tracked pixels.
    pub fn dense_rms(&self) -> f64 {
        (self.dense_sq / self.valid.max(1) as f64).sqrt()
    }

    /// RMS endpoint error at the tracers.
    pub fn tracer_rms(&self) -> f64 {
        (self.tracer_sq / self.tracers.max(1) as f64).sqrt()
    }
}

/// Score one pair against synthetic truth and apply the per-pair
/// checks: at least [`MIN_VALID_FRAC`] valid and [`TRACERS`] tracers
/// found, or the output is wrong; tracer RMS below
/// [`MAX_TRACER_RMS_PX`], or the pair missed the criterion. Tracers are
/// cloudy pixels, i.e. brighter than the frame's median intensity,
/// picked with the satdata protocol inside the tracked region.
pub fn score_pair(
    result: &SmaResult,
    intensity: &Grid<f32>,
    truth: &FlowField,
    margin: usize,
    tracer_seed: u64,
) -> (Accuracy, Result<(), Failure>) {
    let mut acc = Accuracy::default();
    for (x, y) in result.region.pixels() {
        acc.tracked += 1;
        let e = result.estimates.at(x, y);
        if e.valid {
            acc.valid += 1;
            let t = truth.at(x, y);
            let (du, dv) = (
                f64::from(e.displacement.u - t.u),
                f64::from(e.displacement.v - t.v),
            );
            acc.dense_sq += du * du + dv * dv;
        }
    }
    let cloudy = crate::stats::median(&intensity.iter().map(|&v| f64::from(v)).collect::<Vec<_>>());
    let tracers = pick_tracers(
        intensity,
        truth,
        TRACERS,
        cloudy as f32,
        5,
        margin,
        tracer_seed,
    );
    let stats = result.flow().compare_at(truth, &tracer_points(&tracers));
    acc.tracers = stats.count as u64;
    acc.tracer_sq = f64::from(stats.rms_endpoint).powi(2) * stats.count as f64;

    let check = if acc.valid_frac() < MIN_VALID_FRAC {
        Err(Failure::Wrong(format!(
            "valid_frac {:.4} < {MIN_VALID_FRAC}",
            acc.valid_frac()
        )))
    } else if tracers.len() != TRACERS {
        Err(Failure::Wrong(format!(
            "only {} of {TRACERS} tracers found",
            tracers.len()
        )))
    } else if acc.tracer_rms() >= MAX_TRACER_RMS_PX {
        Err(Failure::Miss(format!(
            "tracer RMS {:.4} px >= {MAX_TRACER_RMS_PX}",
            acc.tracer_rms()
        )))
    } else {
        Ok(())
    };
    (acc, check)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// System CPU time over all CPU time of this process so far (all
/// threads), from `/proc/self/stat`; NaN where that is unavailable.
pub fn kernel_time_frac() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name start at field 3;
            // utime and stime are fields 14 and 15.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let user: f64 = f.next()?.parse().ok()?;
            let system: f64 = f.next()?.parse().ok()?;
            Some((user, system))
        });
    ticks.map_or(f64::NAN, |(user, system)| system / (user + system))
}

/// Bit-identity of two grids over every element; `bits` maps an
/// element to the bit patterns of all its fields.
fn same_grid<T, const N: usize>(a: &Grid<T>, b: &Grid<T>, bits: fn(&T) -> [u64; N]) -> bool {
    a.dims() == b.dims() && a.iter().zip(b.iter()).all(|(x, y)| bits(x) == bits(y))
}

fn estimate_bits(e: &MotionEstimate) -> [u64; 13] {
    let a = &e.affine;
    [
        u64::from(e.displacement.u.to_bits()),
        u64::from(e.displacement.v.to_bits()),
        a.ai.to_bits(),
        a.bi.to_bits(),
        a.aj.to_bits(),
        a.bj.to_bits(),
        a.ak.to_bits(),
        a.bk.to_bits(),
        a.x0.to_bits(),
        a.y0.to_bits(),
        a.z0.to_bits(),
        e.error.to_bits(),
        u64::from(e.valid),
    ]
}

fn geom_bits(g: &GeomVars) -> [u64; 8] {
    [g.ni, g.nj, g.nk, g.e, g.g, g.zx, g.zy, g.d].map(f64::to_bits)
}

fn f32_bits(v: &f32) -> [u64; 1] {
    [u64::from(v.to_bits())]
}

/// Bit-identity of two matcher results: the same region, and every
/// field of every estimate of the whole grid.
pub fn same_result(a: &SmaResult, b: &SmaResult) -> bool {
    a.region == b.region && same_grid(&a.estimates, &b.estimates, estimate_bits)
}

/// A hash of every bit [`same_result`] compares: equal results give
/// equal fingerprints, and a run keeps this instead of a whole grid to
/// check that a repeated pair reproduces its output.
pub fn result_fingerprint(r: &SmaResult) -> u64 {
    let mut h = DefaultHasher::new();
    (r.region, r.estimates.dims()).hash(&mut h);
    r.estimates
        .iter()
        .for_each(|e| estimate_bits(e).hash(&mut h));
    h.finish()
}

/// Bit-identity of two prepared pairs: every pixel of every plane.
pub fn same_frames(a: &SmaFrames, b: &SmaFrames) -> bool {
    let planes = |f: &SmaFrames| {
        [
            f.disc_before.clone(),
            f.disc_after.clone(),
            f.surface_before.clone(),
            f.surface_after.clone(),
        ]
    };
    same_grid(a.geo_before.as_grid(), b.geo_before.as_grid(), geom_bits)
        && same_grid(a.geo_after.as_grid(), b.geo_after.as_grid(), geom_bits)
        && planes(a)
            .iter()
            .zip(&planes(b))
            .all(|(p, q)| same_grid(p, q, f32_bits))
        && a.validity == b.validity
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failure_is_counted_not_dropped() {
        let mut t = Tally::default();
        t.record(Ok::<(), Failure>(()));
        t.record(Err("forced".to_string()));
        t.record(Err(Failure::Miss("far".into())));
        t.record(Ok::<(), Failure>(()));
        assert_eq!((t.attempted, t.failed, t.wrong), (4, 2, 1));
        assert_eq!(t.fail_frac(), 0.5);
        assert_eq!(t.reasons[0].to_string(), "FAILED forced");
        assert_eq!(t.reasons[1].to_string(), "MISSED far");
    }

    #[test]
    fn result_line_has_the_contract_keys_in_order() {
        let tally = Tally {
            attempted: 4,
            ..Tally::default()
        };
        let line = result_line(&tally, &[metric("a_s", "s", 0.5), metric("b", "px", 2.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"px\"}}}"
        );
    }

    #[test]
    fn a_wrong_output_a_nan_or_nothing_attempted_makes_the_line_incorrect() {
        let mut tally = Tally::default();
        assert!(result_line(&tally, &[]).starts_with("{\"correct\": false"));
        tally.record(Ok::<(), Failure>(()));
        assert!(tally.is_correct(&[]));
        let line = result_line(&tally, &[metric("x", "s", f64::NAN)]);
        assert!(line.starts_with("{\"correct\": false") && line.contains("null"));
        // A criterion miss is counted as failed but leaves the run correct.
        tally.record(Err(Failure::Miss("far".into())));
        let line = result_line(&tally, &[]);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 1"));
        tally.record(Err("forced".to_string()));
        assert!(result_line(&tally, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn one_changed_estimate_field_breaks_result_identity() {
        // (12, 13) lies outside the 8x8 corner a grid's Debug prints.
        let estimates = Grid::filled(16, 16, MotionEstimate::invalid());
        let region = sma_grid::WindowBounds {
            x0: 2,
            y0: 2,
            x1: 14,
            y1: 14,
        };
        let a = SmaResult { estimates, region };
        assert!(same_result(&a, &a.clone()));
        assert_eq!(result_fingerprint(&a), result_fingerprint(&a.clone()));
        let edits: [fn(&mut MotionEstimate); 4] = [
            |e| e.displacement.v = 1.0,
            |e| e.affine.z0 = -0.0,
            |e| e.error = 3.0,
            |e| e.valid = true,
        ];
        for edit in edits {
            let mut b = a.clone();
            let mut e = b.estimates.at(12, 13);
            edit(&mut e);
            b.estimates.set(12, 13, e);
            assert!(!same_result(&a, &b));
            assert_ne!(result_fingerprint(&a), result_fingerprint(&b));
        }
    }

    #[test]
    fn one_changed_pixel_of_any_plane_breaks_frame_identity() {
        let cfg = sma_core::SmaConfig {
            model: sma_core::MotionModel::SemiFluid,
            nz: 1,
            nzs: 1,
            nzt: 1,
            nss: 1,
            nst: 1,
        };
        let img = |t: f32| {
            Grid::from_fn(24, 24, |x, y| {
                ((x as f32 + t) * 0.7).sin() + (y as f32 * 0.4).cos()
            })
        };
        let (i0, i1) = (img(0.0), img(0.5));
        let a = SmaFrames::prepare(&i0, &i1, &i0, &i1, &cfg).expect("clean inputs");
        assert!(same_frames(&a, &a.clone()));
        fn nudge(g: &mut std::sync::Arc<Grid<f32>>) {
            let g = std::sync::Arc::make_mut(g);
            g.set(17, 19, g.at(17, 19) + 1.0);
        }
        let edits: [fn(&mut SmaFrames); 5] = [
            |f| nudge(&mut f.disc_before),
            |f| nudge(&mut f.disc_after),
            |f| nudge(&mut f.surface_before),
            |f| nudge(&mut f.surface_after),
            |f| std::sync::Arc::make_mut(&mut f.validity).invalidate(17, 19),
        ];
        for edit in edits {
            let mut b = a.clone();
            edit(&mut b);
            assert!(!same_frames(&a, &b));
        }
        let mut b = a.clone();
        b.geo_before = a.geo_after.clone();
        assert!(!same_frames(&a, &b), "geometry planes are compared");
    }
}
