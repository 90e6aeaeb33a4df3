//! The traced run: per-layer numbers for one workload.
//!
//! Layer times are taken at obs level Off, from outside, around the call
//! into each layer's public function. The in-program counters are read
//! in a separate counting pass at level Summary, whose times are thrown
//! away except to state the instrumentation overhead. On the traced
//! pair the run also audits the planner against every static moment
//! driver, and checks bit-identity: planner (and pruned, integral)
//! against `track_all_simd`, and every streamed pair against pairwise
//! `SmaFrames::prepare`.

use std::time::Instant;

use sma_core::motion::track_pixel;
use sma_core::sequential::{Region, SmaResult};
use sma_core::timing::{Mp2Rates, SmaWorkload};
use sma_core::{
    track_all_integral, track_all_planner, track_all_pruned, track_all_simd, ExecutionPlanner,
    FrameArtifacts, SmaConfig, SmaError, SmaFrames,
};
use sma_grid::Grid;
use sma_obs::{metrics, ObsLevel};
use sma_satdata::SceneSequence;
use sma_stereo::{Asa, AsaConfig};
use sma_stream::{sequence_frames, StreamEngine};

use crate::report::{metric, same_frames, same_result, score_pair, Metric, Tally};
use crate::stats::{median, quartiles};
use crate::workload::{asa_heights, pass_seed, tracer_seed, Workload, SIZE};

/// Minimum interleaved audit rounds on a stream pair; more run until the
/// audit has used `--seconds`. A Frederic Fsemi pair takes seconds per
/// driver, so it gets exactly one round.
const AUDIT_ROUNDS: usize = 5;
/// Repeats of the cheap per-frame layers (ASA, preparation).
const LAYER_REPEATS: usize = 5;
/// Edge of the fixed interior lattice the exact kernel is timed on.
const EXACT_LATTICE: usize = 6;

const MIB: f64 = 1024.0 * 1024.0;

/// What a traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Bit-identity and per-pair checks.
    pub tally: Tally,
    /// Human-readable report lines (audit, Table 2 shape).
    pub lines: Vec<String>,
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// A matching driver's public entry point.
type Driver = fn(&SmaFrames, &SmaConfig, Region) -> Result<SmaResult, SmaError>;

/// Positions in [`DRIVERS`].
const PLANNER: usize = 0;
const SIMD: usize = 1;
const PRUNED: usize = 2;
const INTEGRAL: usize = 3;

/// The planner, then the static drivers it is audited against.
const DRIVERS: [(&str, Driver); 4] = [
    ("planner", track_all_planner),
    ("simd", track_all_simd),
    ("pruned", track_all_pruned),
    ("integral", track_all_integral),
];

/// Counters of one counting-pass phase.
struct Counts(metrics::MetricsSnapshot);

impl Counts {
    /// Run `f` at level Summary from zeroed counters; returns its
    /// counters and (discardable) wall time.
    fn of<T>(f: impl FnOnce() -> T) -> (T, Counts, f64) {
        metrics::reset();
        sma_obs::set_level(ObsLevel::Summary);
        let (v, s) = secs(f);
        sma_obs::set_level(ObsLevel::Off);
        (v, Counts(metrics::snapshot()), s)
    }

    fn get(&self, name: &str) -> f64 {
        self.0.counter(name) as f64
    }

    /// A counter summed over the three moment-driver families.
    fn family(&self, suffix: &str) -> f64 {
        ["simd", "pruned", "fastpath"]
            .iter()
            .map(|f| self.get(&format!("{f}.{suffix}")))
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run of `w` on the first pass of `seed`; the audit
/// measures for about `seconds`.
pub fn run_traced(w: Workload, seed: u64, seconds: f64) -> Traced {
    let mut out = Traced::default();
    let cfg = w.config();
    let region = w.region();
    let seq = w.scene(pass_seed(seed, 0), w.frames_per_pass());

    // --- ASA (stereo only), timed at Off. ---
    let asa = Asa::new(AsaConfig::default());
    let views: Vec<_> = (0..2).filter_map(|t| seq.stereo_pair(t)).collect();
    let mut asa_s = Vec::new();
    let mut heights: Vec<Grid<f32>> = Vec::new();
    for _ in 0..LAYER_REPEATS {
        heights = views
            .iter()
            .map(|v| {
                let (h, s) = secs(|| asa_heights(&asa, v));
                asa_s.push(s);
                h
            })
            .collect();
    }
    let height_rms_km = if heights.is_empty() {
        0.0
    } else {
        heights
            .iter()
            .enumerate()
            .map(|(t, h)| f64::from(h.rms_diff(&seq.frames[t].height)))
            .sum::<f64>()
            / heights.len() as f64
    };
    let surface = |t: usize| heights.get(t).unwrap_or_else(|| seq.surface(t));

    // --- Preparation, timed at Off. ---
    let intensity = |t: usize| &seq.frames[t].intensity;
    let prepare_s: Vec<f64> = (0..LAYER_REPEATS)
        .map(|_| secs(|| FrameArtifacts::prepare(intensity(0), surface(0), &cfg)).1)
        .collect();
    let (frames, pair_prepare_s) =
        secs(|| SmaFrames::prepare(intensity(0), intensity(1), surface(0), surface(1), &cfg));
    let frames = match frames {
        Ok(f) => f,
        Err(e) => {
            out.tally.record(Err(format!("prepare: {e}")));
            return out;
        }
    };

    // --- Planner audit: interleaved rounds of every driver, at Off. ---
    let rounds = if w.is_stereo() { 1 } else { AUDIT_ROUNDS };
    let mut times = vec![Vec::new(); DRIVERS.len()];
    let mut first: Vec<Option<SmaResult>> = vec![None; DRIVERS.len()];
    let audit = Instant::now();
    let mut round = 0;
    while round < rounds || (!w.is_stereo() && audit.elapsed().as_secs_f64() < seconds) {
        for (i, (name, driver)) in DRIVERS.iter().enumerate() {
            let (r, s) = secs(|| driver(&frames, &cfg, region));
            times[i].push(s);
            match r {
                Ok(r) if round == 0 => first[i] = Some(r),
                Ok(_) => {}
                Err(e) => out.tally.record(Err(format!("{name}: {e}"))),
            }
        }
        round += 1;
    }
    if let Some(simd) = &first[SIMD] {
        for i in [PLANNER, PRUNED, INTEGRAL] {
            if let Some(r) = &first[i] {
                out.tally.record(
                    same_result(r, simd)
                        .then_some(())
                        .ok_or_else(|| format!("{} output differs from simd", DRIVERS[i].0)),
                );
            }
        }
    }
    if let Some(r) = &first[PLANNER] {
        let (_, check) = score_pair(
            r,
            intensity(0),
            &seq.truth_flows[0],
            w.margin(),
            tracer_seed(0, 0),
        );
        out.tally.record(check.map_err(|e| e.within("traced pair")));
    }
    let med: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let speedup: Vec<f64> = times[SIMD]
        .iter()
        .zip(&times[PRUNED])
        .map(|(s, p)| s / p)
        .collect();
    for (i, (name, _)) in DRIVERS.iter().enumerate() {
        let (q1, m, q3) = quartiles(&times[i]);
        out.lines.push(format!(
            "audit {name:<8} median {m:.4} s  [q1 {q1:.4}, q3 {q3:.4}]  n={}",
            times[i].len()
        ));
    }
    let (sq1, sm, sq3) = quartiles(&speedup);
    out.lines.push(format!(
        "audit pruned speedup over simd {sm:.3}x [q1 {sq1:.3}, q3 {sq3:.3}]"
    ));
    let best_static = med[SIMD].min(med[PRUNED]).min(med[INTEGRAL]);

    let plan = ExecutionPlanner::default().plan(&frames, &cfg, region);
    let pruned_tile_frac = plan.as_ref().map_or(0.0, |p| {
        let pruned: usize = p
            .census()
            .iter()
            .filter(|(n, _)| n.starts_with("pruned"))
            .map(|(_, c)| c)
            .sum();
        ratio(pruned as f64, p.tiles.len() as f64)
    });
    if let Ok(p) = &plan {
        out.lines.push(format!("plan census {:?}", p.census()));
    }

    // --- Exact kernel on a fixed interior lattice, at Off. ---
    let b = region
        .bounds(SIZE, SIZE)
        .expect("the workload region is non-empty");
    let lattice: Vec<(usize, usize)> = (0..EXACT_LATTICE * EXACT_LATTICE)
        .map(|k| {
            let (i, j) = (k % EXACT_LATTICE, k / EXACT_LATTICE);
            let step = |lo: usize, hi: usize, i: usize| lo + i * (hi - lo) / (EXACT_LATTICE - 1);
            (step(b.x0, b.x1, i), step(b.y0, b.y1, j))
        })
        .collect();
    let exact_s: Vec<f64> = (0..3)
        .map(|_| {
            secs(|| {
                lattice
                    .iter()
                    .map(|&(x, y)| std::hint::black_box(track_pixel(&frames, &cfg, x, y)).error)
                    .sum::<f64>()
            })
            .1
        })
        .collect();
    let exact_pixel_ms = median(&exact_s) * 1e3 / lattice.len() as f64;

    // --- Stream layer at Off: stall; then, untimed, streamed == pairwise. ---
    let stall_s = if w.is_stereo() {
        0.0
    } else {
        stream_checked(&seq, w, &mut out.tally);
        stream_stall(&seq, w, &mut out.tally)
    };

    // --- Counting pass at Summary (times discarded but for overhead). ---
    let abandon = if let Some(v) = views.first() {
        let (_, c, _) = Counts::of(|| asa.run(&v.left, &v.right));
        ratio(
            c.get("stereo.ncc_disparities_abandoned"),
            c.get("stereo.ncc_disparities_evaluated"),
        )
    } else {
        0.0
    };
    let (_, fits, _) =
        Counts::of(|| SmaFrames::prepare(intensity(0), intensity(1), surface(0), surface(1), &cfg));
    let mut traced_planner_s = Vec::new();
    let mut last_counts = None;
    for _ in 0..rounds {
        let (_, c, s) = Counts::of(|| track_all_planner(&frames, &cfg, region));
        traced_planner_s.push(s);
        last_counts = Some(c);
    }
    let m = last_counts.expect("at least one audit round");
    let (hit_ratio, high_water_mb) = if w.is_stereo() {
        (0.0, 0.0)
    } else {
        let mut engine =
            StreamEngine::with_goddard_budget(sequence_frames(&seq), cfg).with_pipelining(true);
        let (_, c, _) = Counts::of(|| engine.run(|_, pair| track_all_planner(pair, &cfg, region)));
        let (hits, misses) = (c.get("stream.cache_hits"), c.get("stream.cache_misses"));
        let stats = engine.cache_stats();
        (
            ratio(hits, hits + misses),
            stats.high_water_bytes as f64 / MIB,
        )
    };
    let obs_ok = sma_obs::level() == ObsLevel::Off;
    out.tally.record(
        obs_ok
            .then_some(())
            .ok_or("obs level not back to Off".to_string()),
    );

    let interior = m.family("interior_pixels");
    let border = m.family("border_fallback_pixels");
    let near_tie = m.family("near_tie_pixels");
    let others = (cfg.hypotheses_per_pixel() - 1) as f64;
    let skip_frac = ratio(m.get("prune.candidates_skipped"), interior * others);

    // The tracked region's margin keeps every window inside the frame,
    // so this reads 0 on every workload; it is a report line, not a metric.
    out.lines.push(format!(
        "match.border_fallback_frac = {} frac",
        ratio(border, interior + border)
    ));

    // --- Table 2 shape: host column beside the modelled MP-2 column. ---
    let mp2 = Mp2Rates::default().breakdown(&SmaWorkload::from_config(&cfg, SIZE, SIZE));
    out.lines.push(format!(
        "table2 {} {SIZE}x{SIZE} {:?}: phase | host s (this run) | MP-2 s (sma_core::timing model)",
        w.name(),
        cfg.model
    ));
    // ASA does not run on the monocular streams: 0 s there.
    let asa_frame_s = if asa_s.is_empty() {
        0.0
    } else {
        median(&asa_s)
    };
    let host_asa = if asa_s.is_empty() {
        "-".into()
    } else {
        format!("{asa_frame_s:.4}")
    };
    out.lines
        .push(format!("table2   ASA (one frame) | {host_asa} | -"));
    out.lines.push(format!(
        "table2   Surface fit + Compute geometric variables | {pair_prepare_s:.4} | {:.4}",
        mp2.phase("Surface fit") + mp2.phase("Compute geometric variables")
    ));
    if mp2.phase("Semi-fluid mapping") > 0.0 {
        out.lines.push(format!(
            "table2   Semi-fluid mapping | (in matching) | {:.4}",
            mp2.phase("Semi-fluid mapping")
        ));
    }
    out.lines.push(format!(
        "table2   Hypothesis matching (planner) | {:.4} | {:.4}",
        med[PLANNER],
        mp2.phase("Hypothesis matching")
    ));

    out.metrics = vec![
        metric("asa.frame_s", "s", asa_frame_s),
        metric("asa.height_rms_km", "km", height_rms_km),
        metric("asa.ncc_abandon_frac", "frac", abandon),
        metric("prepare.frame_s", "s", median(&prepare_s)),
        metric(
            "surface.patch_fits",
            "count",
            fits.get("surface.patch_fits"),
        ),
        metric("stream.hit_ratio", "frac", hit_ratio),
        metric("stream.stall_s", "s", stall_s),
        metric("stream.cache_high_water_mb", "MB", high_water_mb),
        metric("plan.match_s", "s", med[PLANNER]),
        metric(
            "plan.vs_best_static",
            "ratio",
            ratio(best_static, med[PLANNER]),
        ),
        metric("plan.pruned_tile_frac", "frac", pruned_tile_frac),
        metric("match.simd_s", "s", med[SIMD]),
        metric("match.pruned_s", "s", med[PRUNED]),
        metric("match.integral_s", "s", med[INTEGRAL]),
        metric("match.pruned_speedup", "ratio", median(&speedup)),
        metric("match.near_tie_frac", "frac", ratio(near_tie, interior)),
        metric("prune.skip_frac", "frac", skip_frac),
        metric(
            "prune.survivors_per_px",
            "count",
            others * (1.0 - skip_frac),
        ),
        metric(
            "prune.planes_built",
            "count",
            m.get("pruned.offset_planes_built"),
        ),
        metric("exact.pixel_ms", "ms", exact_pixel_ms),
        metric(
            "exact.hypotheses",
            "count",
            m.get("sma.hypotheses_evaluated"),
        ),
        metric("match.reroute_est_s", "s", near_tie * exact_pixel_ms / 1e3),
        metric(
            "obs.overhead_frac",
            "frac",
            median(&traced_planner_s) / med[PLANNER] - 1.0,
        ),
    ];
    out
}

/// One stream pass at Off whose matcher closure only matches; returns
/// the mean stall per pair, i.e. time in `StreamEngine::run` outside
/// the closure.
fn stream_stall(seq: &SceneSequence, w: Workload, tally: &mut Tally) -> f64 {
    let cfg = w.config();
    let region = w.region();
    let mut engine =
        StreamEngine::with_goddard_budget(sequence_frames(seq), cfg).with_pipelining(true);
    let mut in_matcher = 0.0;
    let (results, total) = secs(|| {
        engine.run(|_, pair| {
            let (r, s) = secs(|| track_all_planner(pair, &cfg, region));
            in_matcher += s;
            r
        })
    });
    if let Err(e) = results {
        tally.record(Err(format!("timed stream: {e}")));
    }
    (total - in_matcher) / (seq.len() - 1) as f64
}

/// One untimed stream pass: every streamed pair is checked bit-identical
/// to pairwise `SmaFrames::prepare`, and every result is scored.
fn stream_checked(seq: &SceneSequence, w: Workload, tally: &mut Tally) {
    let cfg = w.config();
    let region = w.region();
    let mut engine =
        StreamEngine::with_goddard_budget(sequence_frames(seq), cfg).with_pipelining(true);
    let mut streamed = Vec::new();
    let results = engine.run(|_, pair| {
        streamed.push(pair.clone());
        Ok(track_all_planner(pair, &cfg, region))
    });
    for (t, pair) in streamed.iter().enumerate() {
        let pairwise = SmaFrames::prepare(
            &seq.frames[t].intensity,
            &seq.frames[t + 1].intensity,
            seq.surface(t),
            seq.surface(t + 1),
            &cfg,
        );
        tally.record(match pairwise {
            Ok(p) if same_frames(&p, pair) => Ok(()),
            Ok(_) => Err(format!("streamed pair {t} differs from pairwise prepare")),
            Err(e) => Err(format!("pairwise prepare {t}: {e}")),
        });
    }
    match results {
        Ok(rs) => {
            for (t, r) in rs.into_iter().enumerate() {
                let check = r.map_err(|e| e.to_string().into()).and_then(|r| {
                    score_pair(
                        &r,
                        &seq.frames[t].intensity,
                        &seq.truth_flows[t],
                        w.margin(),
                        tracer_seed(0, t),
                    )
                    .1
                });
                tally.record(check.map_err(|e| e.within(&format!("streamed pair {t}"))));
            }
        }
        Err(e) => tally.record(Err(format!("stream: {e}"))),
    }
}
