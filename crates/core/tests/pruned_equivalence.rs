//! Property equivalence for the pruned-search driver family.
//!
//! Everything here pins *bit* identity: the pruned drivers reorder the
//! hypothesis sweep and skip candidates only when an admissible lower
//! bound proves them outside the near-tie band, so against the SIMD
//! sweep (the same driver body with the screen disarmed) not one output
//! bit may move. The corpus leans on the scenes where a wrong
//! bound or a sloppy tie rule would actually surface:
//!
//! * frames whose width is not a multiple of the 8-wide SIMD lane (the
//!   pruned eval loop shares the lane kernels' remainder handling);
//! * frames so small every pixel sits in the border band (the screen
//!   never arms; the exact-fallback ring must still match);
//! * zero-variance windows (singular systems, unscreenable pixels);
//! * periodic scenes where whole families of offsets tie to the bit
//!   (the skip threshold must keep every near-tie candidate alive and
//!   the ring ordering must reproduce raster tie-breaking).

use proptest::prelude::*;
use sma_core::sequential::Region;
use sma_core::{track_all_pruned, track_all_simd, MotionModel, SmaConfig, SmaFrames};
use sma_grid::warp::translate;
use sma_grid::{BorderPolicy, Grid};

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

/// Prepared frame pair with the after-view translated by `(dx, dy)`.
fn shifted(before: &Grid<f32>, dx: f32, dy: f32, cfg: &SmaConfig) -> SmaFrames {
    let after = translate(before, -dx, -dy, BorderPolicy::Clamp);
    SmaFrames::prepare(before, &after, before, &after, cfg).expect("prepare")
}

/// Asserts the pruned driver matches the SIMD sweep on
/// every pixel of `region`, to the bit.
fn assert_matches_simd(f: &SmaFrames, cfg: &SmaConfig, region: Region, tag: &str) {
    let simd = track_all_simd(f, cfg, region).expect("simd");
    let seq = track_all_pruned(f, cfg, region).expect("pruned");
    for (x, y) in simd.region.pixels() {
        assert_eq!(
            simd.estimates.at(x, y),
            seq.estimates.at(x, y),
            "{tag}: pruned diverged at ({x},{y})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized scenes, both motion models, frame widths straddling
    /// the 8-lane boundary (the 25..41 range covers every residue mod
    /// 8), sub-pixel shifts, full region including the border ring.
    #[test]
    fn pruned_matches_simd_on_random_scenes(
        w in 25usize..41,
        h in 24usize..34,
        seed in 0u64..1000,
        dxq in -6i32..7,
        dyq in -6i32..7,
        semi in 0u8..2,
    ) {
        let model = if semi == 1 { MotionModel::SemiFluid } else { MotionModel::Continuous };
        let cfg = SmaConfig::small_test(model);
        let f = shifted(&textured(w, h, seed), dxq as f32 * 0.5, dyq as f32 * 0.5, &cfg);
        assert_matches_simd(&f, &cfg, Region::Full, "random scene");
    }
}

/// A frame too small for any interior pixel: with the small-test
/// margins (nzt + nzs + nz = 7) a 13 x 13 frame is all border band, so
/// the pruned driver's exact-fallback ring carries every pixel and the
/// screen never sees a candidate.
#[test]
fn all_border_tile_matches_simd() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let f = shifted(&textured(13, 13, 7), 1.0, 0.0, &cfg);
    assert_matches_simd(&f, &cfg, Region::Full, "all-border tile");
}

/// Zero-variance windows everywhere: every per-pixel system is
/// singular, the screen is unscreenable (no finite bound exists), and
/// every hypothesis must still be evaluated and rejected exactly as the
/// SIMD sweep rejects it.
#[test]
fn zero_variance_windows_match_simd() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let flat = Grid::filled(28, 28, 2.5f32);
    let f = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
    assert_matches_simd(&f, &cfg, Region::Full, "flat scene");
}

/// Adversarial near-ties: a period-2 scene aliases the search, so every
/// offset of even displacement produces a bit-identical error. The skip
/// threshold must keep all of them alive (they are exact ties with the
/// winner, well inside the near-tie band) and the ring-ordered sweep
/// must crown the same winner raster order would.
#[test]
fn periodic_near_ties_match_simd() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let before = Grid::from_fn(32, 32, |x, y| {
        (std::f32::consts::PI * x as f32).cos() * 2.0 + y as f32 * 0.05
    });
    let f = shifted(&before, 1.0, 0.0, &cfg);
    assert_matches_simd(&f, &cfg, Region::Full, "period-2 scene");
}

/// Diagonal periodic ties plus a flat stripe: mixes unscreenable rows
/// into a tie-heavy scene, so skip decisions, singular fallbacks and
/// ring ordering all fire within one run.
#[test]
fn mixed_ties_and_flat_stripe_match_simd() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let before = Grid::from_fn(33, 31, |x, y| {
        if (12..16).contains(&y) {
            1.0
        } else {
            (std::f32::consts::PI * (x as f32 + y as f32) * 0.5).sin() * 3.0
        }
    });
    let f = shifted(&before, -1.0, 1.0, &cfg);
    assert_matches_simd(&f, &cfg, Region::Full, "mixed scene");
}
