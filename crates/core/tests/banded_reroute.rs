//! Equivalence suite for the banded near-tie re-route.
//!
//! The moment drivers re-evaluate a near-tie pixel exactly over its
//! *band* only (the candidates whose moment error lies within the
//! near-tie margin of the moment-best), reading semi-fluid
//! correspondences from the table recorded while the offset planes were
//! built. The claim is that this changes no output bit. Two checks pin
//! it on every scene below:
//!
//! * every pixel the driver re-routed (its 1-px `NearTie` atlas plane)
//!   equals the exact sequential kernel (`track_pixel`, via
//!   `track_all_sequential`) in every field, to the bit;
//! * whole grids are bit-identical within the SIMD/pruned family (plus
//!   the planner) and within the integral family.
//!
//! The atlas, the counters and the fault harness are process-global, so
//! every test here holds one lock for its whole body.

use std::sync::Mutex;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sma_core::sequential::{Region, SmaResult};
use sma_core::{
    track_all_integral, track_all_integral_segmented, track_all_planner, track_all_pruned,
    track_all_sequential, track_all_simd, MotionEstimate, MotionModel, SmaConfig, SmaError,
    SmaFrames,
};
use sma_grid::warp::translate;
use sma_grid::{BorderPolicy, Grid};
use sma_obs::atlas::{self, AtlasChannel};

static GLOBAL: Mutex<()> = Mutex::new(());

type Driver = fn(&SmaFrames, &SmaConfig, Region) -> Result<SmaResult, SmaError>;

/// The SIMD/pruned family and the planner: bit-identical whole grids.
const SIMD_FAMILY: [(&str, Driver); 3] = [
    ("simd", track_all_simd),
    ("pruned", track_all_pruned),
    ("planner", track_all_planner),
];

/// The scalar integral family: bit-identical whole grids.
const INTEGRAL_FAMILY: [(&str, Driver); 3] = [
    ("integral", track_all_integral),
    ("integral_seg1", |f, c, r| {
        track_all_integral_segmented(f, c, r, 1)
    }),
    ("integral_seg2", |f, c, r| {
        track_all_integral_segmented(f, c, r, 2)
    }),
];

/// Every field of an estimate as raw bits.
fn bits(e: &MotionEstimate) -> [u64; 13] {
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

fn counter(name: &str) -> u64 {
    sma_obs::metrics::snapshot().counter(name)
}

/// Run `driver` with a freshly armed 1-px atlas; returns its result and
/// the pixels it re-routed as near-ties.
fn run_with_ties(
    driver: Driver,
    f: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> (SmaResult, Vec<(usize, usize)>) {
    let (w, h) = f.dims();
    atlas::disarm();
    atlas::arm(w, h, 1);
    let result = driver(f, cfg, region).expect("driver");
    let snap = atlas::snapshot().expect("atlas armed");
    atlas::disarm();
    let plane = snap.plane(AtlasChannel::NearTie);
    let ties = (0..h)
        .flat_map(|y| (0..w).map(move |x| (x, y)))
        .filter(|&(x, y)| plane[y * w + x] > 0)
        .collect();
    (result, ties)
}

/// Runs both families on one scene and checks both claims; returns the
/// number of near-tie pixels the SIMD driver re-routed.
fn check_scene(f: &SmaFrames, cfg: &SmaConfig, region: Region, tag: &str) -> usize {
    let reference = track_all_sequential(f, cfg, region).expect("sequential");
    let mut simd_ties = 0;
    for family in [&SIMD_FAMILY[..], &INTEGRAL_FAMILY[..]] {
        let mut first: Option<(&str, SmaResult)> = None;
        for &(name, driver) in family {
            let (result, ties) = run_with_ties(driver, f, cfg, region);
            if name == "simd" {
                simd_ties = ties.len();
            }
            for &(x, y) in &ties {
                assert_eq!(
                    bits(&result.estimates.at(x, y)),
                    bits(&reference.estimates.at(x, y)),
                    "{tag}: {name} near-tie pixel ({x},{y}) differs from track_pixel"
                );
            }
            match &first {
                None => first = Some((name, result)),
                Some((lead, want)) => {
                    for (x, y) in want.region.pixels() {
                        assert_eq!(
                            bits(&want.estimates.at(x, y)),
                            bits(&result.estimates.at(x, y)),
                            "{tag}: {name} differs from {lead} at ({x},{y})"
                        );
                    }
                }
            }
        }
    }
    simd_ties
}

/// Every pixel whose template fits the frame: the moment path and its
/// re-route, without paying the exact border fallback in every driver.
fn moment_region(cfg: &SmaConfig) -> Region {
    Region::Interior { margin: cfg.nzt }
}

/// A deterministic, richly textured surface parameterized by seed.
fn textured(w: usize, h: usize, seed: u64) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| {
        let s = seed as f32 * 0.017;
        let (xf, yf) = (x as f32, y as f32);
        (xf * (0.43 + s * 0.01)).sin() * 2.0
            + (yf * 0.31 + s).cos() * 1.5
            + (xf * 0.13 + yf * 0.21 + s).sin() * 3.0
    })
}

/// The period-2 scene: the +1 and -1 x-shift hypotheses agree up to
/// rounding (and to the bit on quarantine-repaired plateaus), so the
/// near-tie guard fires on most pixels.
fn period2_frames(side: usize, cfg: &SmaConfig) -> SmaFrames {
    let mut before = Grid::from_fn(side, side, |x, y| {
        (x as f32 * std::f32::consts::PI).cos() * (1.0 + 0.2 * (y as f32 * 0.37).sin())
            + 0.4 * (y as f32 * 0.23).cos()
    });
    before.set(6, 6, f32::NAN);
    before.set(20, 13, f32::INFINITY);
    let after = Grid::from_fn(side, side, |x, y| {
        let xs = (x as isize - 1).clamp(0, side as isize - 1) as usize;
        before.at(xs, y)
    });
    SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
}

/// Random textured scenes under both models, search radii 1 to 3, and
/// frame widths that leave a remainder on the 8-wide SIMD lanes.
#[test]
fn random_scenes_both_models_are_bit_identical() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = ChaCha8Rng::seed_from_u64(0xBA4D);
    let cases = [
        (MotionModel::Continuous, 1, 29),
        (MotionModel::SemiFluid, 1, 31),
        (MotionModel::Continuous, 2, 33),
        (MotionModel::SemiFluid, 2, 30),
        (MotionModel::Continuous, 3, 37),
        (MotionModel::SemiFluid, 3, 35),
    ];
    for (k, &(model, nzs, w)) in cases.iter().enumerate() {
        let cfg = SmaConfig {
            nzs,
            ..SmaConfig::small_test(model)
        };
        let before = textured(w, w - 3, rng.gen_range(0..1000));
        let (dx, dy) = (rng.gen_range(-1.5f32..1.5), rng.gen_range(-1.5f32..1.5));
        let after = translate(&before, -dx, -dy, BorderPolicy::Clamp);
        let f = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let tag = format!("case {k} {model:?} nzs {nzs} width {w} shift ({dx:.2},{dy:.2})");
        check_scene(&f, &cfg, moment_region(&cfg), &tag);
    }
}

/// The period-2 near-tie scene under both models: most interior pixels
/// re-route, and many of them tie to the bit.
#[test]
fn period2_exact_ties_are_bit_identical() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
        let cfg = SmaConfig::small_test(model);
        let f = period2_frames(28, &cfg);
        let region = moment_region(&cfg);
        let ties = check_scene(&f, &cfg, region, &format!("period-2 {model:?}"));
        assert!(ties > 0, "period-2 {model:?} scene re-routed no near-tie");
    }
}

/// The paper's headline pipeline shape: the Hurricane Frederic analog
/// under `Fsemi` (`nzs 2, nzt 3`), where most interior pixels are
/// near-ties. Also pins the band's size and the fallback count.
#[test]
fn frederic_fsemi_is_bit_identical_with_small_bands() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let seq = sma_satdata::hurricane_frederic_analog(64, 2, 7);
    let cfg = SmaConfig {
        model: MotionModel::SemiFluid,
        nz: 2,
        nzs: 2,
        nzt: 3,
        nss: 1,
        nst: 2,
    };
    let f = SmaFrames::prepare(
        &seq.frames[0].intensity,
        &seq.frames[1].intensity,
        seq.surface(0),
        seq.surface(1),
        &cfg,
    )
    .expect("prepare");
    let region = Region::Interior {
        margin: cfg.margin() + 2,
    };
    let (pixels0, candidates0, fallbacks0) = (
        counter("simd.near_tie_pixels"),
        counter("simd.near_tie_candidates"),
        counter("simd.near_tie_fallbacks"),
    );
    track_all_simd(&f, &cfg, region).expect("simd");
    let pixels = counter("simd.near_tie_pixels") - pixels0;
    let candidates = counter("simd.near_tie_candidates") - candidates0;
    assert!(pixels > 0, "Frederic Fsemi scene re-routed no near-tie");
    // The band is a small part of the 25-hypothesis search.
    assert!(
        candidates * 2 < pixels * cfg.hypotheses_per_pixel() as u64,
        "bands average {} of {} hypotheses",
        candidates as f64 / pixels as f64,
        cfg.hypotheses_per_pixel()
    );
    assert_eq!(counter("simd.near_tie_fallbacks") - fallbacks0, 0);
    sma_obs::set_level(sma_obs::ObsLevel::Off);

    let ties = check_scene(&f, &cfg, region, "frederic 64 Fsemi");
    assert_eq!(ties as u64, pixels);
}

/// An armed fault sweep: poisoned moment planes and singular-system
/// degradations change which pixels take which route, but never the
/// bits of a re-routed pixel.
#[test]
fn fault_armed_run_is_bit_identical() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    /// Disarms the harness even if an assertion panics, so the armed
    /// state cannot leak into the next test.
    struct Armed;
    impl Drop for Armed {
        fn drop(&mut self) {
            sma_fault::disarm();
        }
    }
    sma_fault::install(42, 0.02);
    let _armed = Armed;
    for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
        let cfg = SmaConfig::small_test(model);
        let before = textured(32, 32, 11);
        let after = translate(&before, -1.0, 0.5, BorderPolicy::Clamp);
        let f = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let region = moment_region(&cfg);
        check_scene(&f, &cfg, region, &format!("faults {model:?}"));
        let p2 = period2_frames(28, &cfg);
        check_scene(&p2, &cfg, region, &format!("faults period-2 {model:?}"));
    }
}
