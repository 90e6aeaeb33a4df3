//! The SIMD fastpath driver family: lane-friendly moment kernels with a
//! per-pixel LU factorization, bit-identical to the scalar fast path.
//!
//! Three structural wins over [`crate::fastpath`], with **zero** change
//! in output bits:
//!
//! 1. **Amortized solves.** `A^T A` depends only on the pixel's static
//!    window sums, never the hypothesis — so it is factored *once per
//!    pixel* ([`sma_linalg::gauss::Lu6`], which replays `solve6`'s exact
//!    elimination sequence) and each of the `(2 Nzs + 1)^2` hypotheses
//!    costs one forward/back substitution instead of a full Gaussian
//!    elimination.
//! 2. **Hoisted gradient planes.** The observed after-motion gradient
//!    `(-n_i/n_k, -n_j/n_k)` is a pure function of the after-frame
//!    geometry, but the scalar path re-divides per (pixel, offset).
//!    Here both gradient planes are divided once; under the continuous
//!    model each offset then reads them by clamped row shifts.
//! 3. **One resident offset plane.** Hypotheses are evaluated
//!    offset-at-a-time against a single reused channel-major padded SAT
//!    (zero pad row/column makes every corner lookup branch-free), so
//!    the moment store never holds more than one offset — the scalar
//!    path allocates one `MomentIntegral` per offset per segment.
//!
//! Bit-identity is by construction, kernel by kernel: identical channel
//! products in identical order, identical prefix-sum association,
//! corner lookups with the same `((a - b) - c) + d` grouping (the zero
//! pad substitutes the same literal `0.0` the scalar branches produce),
//! the same near-tie re-route predicate ([`crate::fastpath::near_tie`]),
//! and an LU apply proven (and tested) bit-equal to `solve6`. The
//! conformance matrix pins the family's contract: bit-identical within
//! the SIMD family, ULP-bounded with exact displacements against the
//! scalar integral family.

use sma_fault::{FaultSite, SmaError};
use sma_grid::{Grid, Vec2};
use sma_linalg::gauss::Lu6;

use crate::affine::LocalAffine;
use crate::config::{MotionModel, SmaConfig};
use crate::fastpath::{
    ata_from_static, atb_from_moments, band_op, btb_from_moments, moment_error, reroute_near_ties,
    BandOp, Bands, NearTieCounters, StaticMoments, OFFSET_CHANNELS, STATIC_CHANNELS,
};
use crate::motion::{
    surface_delta, track_pixel, Mapping, MotionEstimate, SmaFrames, GE_SOLVES, HYPOTHESES,
};
use crate::sequential::{Region, SmaResult};
use crate::template_map::{semifluid_correspondence, SubOffsetTable};

/// Border pixels routed to the exact kernel (window crosses the edge).
static SIMD_BORDER: sma_obs::Counter = sma_obs::Counter::new("simd.border_fallback_pixels");
/// Interior pixels served by the SIMD moment path.
static SIMD_INTERIOR: sma_obs::Counter = sma_obs::Counter::new("simd.interior_pixels");
/// Reused-buffer offset planes built (one per hypothesis offset).
static SIMD_PLANES: sma_obs::Counter = sma_obs::Counter::new("simd.offset_planes_built");
/// Per-pixel `A^T A` LU factorizations (the amortization unit: one per
/// interior pixel, replacing one full elimination per hypothesis).
static SIMD_FACTORIZATIONS: sma_obs::Counter = sma_obs::Counter::new("simd.lu_factorizations");
/// Pixels re-routed to the exact kernel by the shared near-tie guard.
static SIMD_NEAR_TIE: sma_obs::Counter = sma_obs::Counter::new("simd.near_tie_pixels");
/// Near-tie band members re-evaluated with the exact kernel.
static SIMD_NEAR_TIE_CANDIDATES: sma_obs::Counter =
    sma_obs::Counter::new("simd.near_tie_candidates");
/// Near-tie pixels that fell back to the full exact sweep.
static SIMD_NEAR_TIE_FALLBACKS: sma_obs::Counter = sma_obs::Counter::new("simd.near_tie_fallbacks");
/// The SIMD family's near-tie counters.
const SIMD_NEAR_TIE_COUNTERS: NearTieCounters = NearTieCounters {
    pixels: &SIMD_NEAR_TIE,
    candidates: &SIMD_NEAR_TIE_CANDIDATES,
    fallbacks: &SIMD_NEAR_TIE_FALLBACKS,
};

/// Per-pixel hypothesis-independent state: static window sums, the
/// assembled `A^T A`, and its LU factorization (`None` = singular, which
/// `solve6` would report for *every* hypothesis of this pixel).
pub(crate) struct PixelSystem {
    pub(crate) s: [f64; STATIC_CHANNELS],
    pub(crate) ata: [f64; 36],
    pub(crate) lu: Option<Lu6>,
}

/// Per-pixel running search state, carried across the offset loop.
/// Shared with the pruned driver family ([`crate::pruned`]), which
/// carries the same state through its reordered candidate visits.
pub(crate) struct EvalState {
    pub(crate) best: MotionEstimate,
    /// Runner-up error (`inf` = none yet, `-inf` = pixel already holds
    /// an exact-kernel result and skips the rest of the search).
    pub(crate) second: f64,
    pub(crate) done: bool,
}

/// One offset's eight moment channels as channel-major *padded* SATs:
/// each table is `(w + 1) x (h + 1)` with a permanent zero row 0 and
/// column 0, so the four-corner window lookup needs no boundary
/// branches — the pad supplies the same literal `0.0` the scalar
/// `rect_sum` substitutes. The buffer is built once and refilled per
/// offset; only the pad cells persist between fills.
pub(crate) struct OffsetPlanes {
    tables: Vec<Vec<f64>>,
    w1: usize,
}

impl OffsetPlanes {
    pub(crate) fn new(w: usize, h: usize) -> Self {
        Self {
            tables: vec![vec![0.0f64; (w + 1) * (h + 1)]; OFFSET_CHANNELS],
            w1: w + 1,
        }
    }

    /// Fill the tables for hypothesis offset `(ox, oy)`. `gx_row` /
    /// `gy_row` are caller-owned scratch rows (one allocation for the
    /// whole offset loop). The per-pixel channel products and the
    /// prefix accumulation order match
    /// [`sma_grid::MomentIntegral::from_fn`] exactly. Under `Fsemi`,
    /// `subs` (this offset's plane of a [`SubOffsetTable`]) records each
    /// pixel's semi-fluid correspondence for the near-tie re-route.
    #[allow(clippy::too_many_arguments)] // hot-loop scratch threading
    pub(crate) fn build(
        &mut self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        stat: &StaticMoments,
        gx_plane: &Grid<f64>,
        gy_plane: &Grid<f64>,
        ox: isize,
        oy: isize,
        gx_row: &mut [f64],
        gy_row: &mut [f64],
        mut subs: Option<&mut [u8]>,
    ) {
        let (w, h) = frames.dims();
        let w1 = self.w1;
        for y in 0..h {
            match cfg.model {
                MotionModel::Continuous => {
                    // The mapped gradient of (x, y) under (ox, oy) is the
                    // gradient plane at clamp(x + ox), clamp(y + oy):
                    // one clamped row pick plus a shifted contiguous
                    // copy with replicated edges.
                    let sy = (y as isize + oy).clamp(0, h as isize - 1) as usize;
                    shift_row(gx_plane.row(sy), ox, gx_row);
                    shift_row(gy_plane.row(sy), ox, gy_row);
                }
                MotionModel::SemiFluid => {
                    // Each pixel refines its correspondence through the
                    // discriminant search; the gradient planes then
                    // supply the same division results the scalar
                    // `mapped_gradient` computes at the mapped point.
                    for x in 0..w {
                        let ((qx, qy), _) = semifluid_correspondence(
                            &frames.disc_before,
                            &frames.disc_after,
                            x as isize,
                            y as isize,
                            ox,
                            oy,
                            cfg.nss,
                            cfg.nst,
                        );
                        if let Some(subs) = subs.as_deref_mut() {
                            subs[y * w + x] = SubOffsetTable::encode(
                                cfg.nss,
                                (x as isize, y as isize),
                                (ox, oy),
                                (qx, qy),
                            );
                        }
                        let cx = qx.clamp(0, w as isize - 1) as usize;
                        let cy = qy.clamp(0, h as isize - 1) as usize;
                        gx_row[x] = gx_plane.at(cx, cy);
                        gy_row[x] = gy_plane.at(cx, cy);
                    }
                }
            }
            sma_grid::simd::note_row(w);
            let frow = stat.factors.row(y);
            let mut row_sum = [0.0f64; OFFSET_CHANNELS];
            for x in 0..w {
                let [zx_e2, zy_e2, ie2, zx_g2, zy_g2, ig2] = frow[x];
                let gx = gx_row[x];
                let gy = gy_row[x];
                let t2 = ie2 * gx;
                let t5 = ig2 * gy;
                let v = [
                    zx_e2 * gx,
                    zy_e2 * gx,
                    t2,
                    zx_g2 * gy,
                    zy_g2 * gy,
                    t5,
                    t2 * gx,
                    t5 * gy,
                ];
                for (k, tab) in self.tables.iter_mut().enumerate() {
                    row_sum[k] += v[k];
                    let above = tab[y * w1 + (x + 1)];
                    tab[(y + 1) * w1 + (x + 1)] = row_sum[k] + above;
                }
            }
        }
    }

    /// Branch-free four-corner window sum of all channels over the
    /// `(2 nt + 1)^2` window at `(x, y)` — interior pixels only (the
    /// caller guarantees `x >= nt`, `y >= nt`). Same corner grouping as
    /// the scalar `rect_sum`.
    #[inline]
    pub(crate) fn window_sum(&self, x: usize, y: usize, nt: usize) -> [f64; OFFSET_CHANNELS] {
        let w1 = self.w1;
        let top = (y - nt) * w1;
        let bot = (y + nt + 1) * w1;
        let l = x - nt;
        let r = x + nt + 1;
        let mut out = [0.0f64; OFFSET_CHANNELS];
        for (k, tab) in self.tables.iter().enumerate() {
            out[k] = ((tab[bot + r] - tab[bot + l]) - tab[top + r]) + tab[top + l];
        }
        out
    }
}

/// `dst[x] = src[clamp(x + ox)]`: contiguous interior copy, replicated
/// edges — the lane-friendly form of a clamped shifted row read.
pub(crate) fn shift_row(src: &[f64], ox: isize, dst: &mut [f64]) {
    let w = src.len();
    let lo = ((-ox).max(0) as usize).min(w);
    let hi = ((w as isize - ox).clamp(0, w as isize) as usize).max(lo);
    dst[..lo].fill(src[0]);
    if hi > lo {
        let s0 = (lo as isize + ox) as usize;
        dst[lo..hi].copy_from_slice(&src[s0..s0 + (hi - lo)]);
    }
    dst[hi..w].fill(src[w - 1]);
}

/// Track every pixel of `region` with the SIMD moment path,
/// sequentially. Output is bit-identical to
/// [`crate::fastpath::track_all_integral`] by construction (see the
/// module docs); the conformance matrix additionally pins the family
/// contract at run time.
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty for the
/// frame size.
pub fn track_all_simd(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    let _span = sma_obs::span("track_simd");
    let (w, h) = frames.dims();
    let bounds = region.bounds_checked(w, h)?;
    crate::cancel::checkpoint()?;
    let ns = cfg.nzs as isize;
    let nt = cfg.nzt;
    let template = cfg.template_window();

    let mut best: Grid<MotionEstimate> = Grid::filled(w, h, MotionEstimate::invalid());

    // Border + fault-poisoned pixels route to the exact kernel, exactly
    // as in the scalar fast path (same injection sites, same keys, same
    // deterministic ordering).
    let mut border: Vec<(usize, usize)> = bounds
        .pixels()
        .filter(|&(x, y)| !template.fits_at(x, y, w, h))
        .collect();
    SIMD_BORDER.add(border.len() as u64);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::BorderFallback, &border);
    let mut poisoned: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    if sma_fault::enabled() {
        for (x, y) in bounds.pixels() {
            if template.fits_at(x, y, w, h) {
                if let Some(token) =
                    sma_fault::inject(FaultSite::MomentPlane, sma_fault::key2(x as u64, y as u64))
                {
                    token.recovered();
                    poisoned.insert((x, y));
                }
            }
        }
        let mut rerouted: Vec<(usize, usize)> = poisoned.iter().copied().collect();
        rerouted.sort_unstable();
        border.extend(rerouted);
    }
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchExact, &border);
    crate::cancel::checkpoint()?;
    for &(x, y) in &border {
        best.set(x, y, track_pixel(frames, cfg, x, y));
    }

    let interior: Vec<(usize, usize)> = bounds
        .pixels()
        .filter(|&(x, y)| template.fits_at(x, y, w, h) && !poisoned.contains(&(x, y)))
        .collect();
    SIMD_INTERIOR.add(interior.len() as u64);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchSimd, &interior);
    if interior.is_empty() {
        return Ok(SmaResult {
            estimates: best,
            region: bounds,
        });
    }

    // Static phase: moment SAT, hoisted gradient planes, and the
    // per-pixel system factorization.
    let static_span = sma_obs::span("simd_static");
    let stat = StaticMoments::compute(frames);
    let gx_plane = Grid::from_fn(w, h, |x, y| {
        let a = frames.geo_after.at(x, y);
        -a.ni / a.nk
    });
    let gy_plane = Grid::from_fn(w, h, |x, y| {
        let a = frames.geo_after.at(x, y);
        -a.nj / a.nk
    });

    let prefactor = |&(x, y): &(usize, usize)| -> (PixelSystem, EvalState) {
        let s = stat.sat.window_sum(x, y, nt);
        if !s.iter().all(|v| v.is_finite()) {
            // Corrupted static moments: re-route through the exact
            // kernel now and skip the offset loop — the scalar path
            // takes the same route at its first evaluation.
            sma_fault::note_natural_degradation();
            return (
                PixelSystem {
                    s,
                    ata: [0.0; 36],
                    lu: None,
                },
                EvalState {
                    best: track_pixel(frames, cfg, x, y),
                    second: f64::NEG_INFINITY,
                    done: true,
                },
            );
        }
        let ata = ata_from_static(&s);
        SIMD_FACTORIZATIONS.incr();
        let lu = Lu6::factor(&ata).ok();
        (
            PixelSystem { s, ata, lu },
            EvalState {
                best: MotionEstimate::invalid(),
                second: f64::INFINITY,
                done: false,
            },
        )
    };
    let (systems, mut states): (Vec<PixelSystem>, Vec<EvalState>) =
        interior.iter().map(prefactor).unzip();
    drop(static_span);

    // Offset loop, ascending row-major — the same hypothesis order as
    // every other driver, so strict-less winner updates agree.
    let mut planes = OffsetPlanes::new(w, h);
    let mut gx_row = vec![0.0f64; w];
    let mut gy_row = vec![0.0f64; w];
    let mut table = SubOffsetTable::new(cfg, w, h);
    let mut bands = Bands::new(interior.len(), cfg.hypotheses_per_pixel());
    let mut oi = 0usize;
    for oy in -ns..=ns {
        crate::cancel::checkpoint()?;
        for ox in -ns..=ns {
            {
                let _plane_span = sma_obs::span("simd_offset_planes");
                SIMD_PLANES.incr();
                planes.build(
                    frames,
                    cfg,
                    &stat,
                    &gx_plane,
                    &gy_plane,
                    ox,
                    oy,
                    &mut gx_row,
                    &mut gy_row,
                    table.as_mut().map(|t| t.plane_mut(ox, oy)),
                );
            }
            let _eval_span = sma_obs::span("simd_eval");
            let mapping = table.as_ref().map_or(Mapping::Live, Mapping::Table);
            for (i, &p) in interior.iter().enumerate() {
                if !states[i].done {
                    let op = eval_candidate(
                        frames,
                        cfg,
                        &planes,
                        p,
                        &systems[i],
                        &mut states[i],
                        (ox, oy),
                        mapping,
                    );
                    bands.apply(i, oi, op);
                }
            }
            oi += 1;
        }
    }
    for (&(x, y), st) in interior.iter().zip(&states) {
        best.set(x, y, st.best);
    }
    let seconds: Vec<f64> = states.iter().map(|st| st.second).collect();
    reroute_near_ties(
        frames,
        cfg,
        &interior,
        &seconds,
        &bands,
        table.as_ref(),
        &mut best,
        &SIMD_NEAR_TIE_COUNTERS,
    );

    Ok(SmaResult {
        estimates: best,
        region: bounds,
    })
}

/// One candidate evaluation against a built offset plane: the moment
/// solve and the strict-less winner update of `st` in place; returns
/// the candidate's [`BandOp`]. Shared by the SIMD and pruned drivers, so every
/// evaluated candidate produces the same bits in either, regardless of
/// the order candidates are visited in. `mapping` supplies the center
/// pixel's refined displacement (the offset's recorded table plane
/// under `Fsemi`).
#[allow(clippy::too_many_arguments)] // pixel + system + state + offset + source
#[inline]
pub(crate) fn eval_candidate(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    planes: &OffsetPlanes,
    (x, y): (usize, usize),
    sys: &PixelSystem,
    out: &mut EvalState,
    (ox, oy): (isize, isize),
    mapping: Mapping<'_>,
) -> BandOp {
    let t = planes.window_sum(x, y, cfg.nzt);
    if !t.iter().all(|v| v.is_finite()) {
        sma_fault::note_natural_degradation();
        out.best = track_pixel(frames, cfg, x, y);
        out.second = f64::NEG_INFINITY;
        out.done = true;
        return BandOp::Skip;
    }
    HYPOTHESES.incr();
    GE_SOLVES.incr();
    let s = &sys.s;
    let atb = atb_from_moments(s, &t);
    let btb = btb_from_moments(s, &t);
    let sol = match &sys.lu {
        Some(lu) => {
            let mut b = atb;
            lu.solve(&mut b);
            b
        }
        None => {
            // Singular pixel: `solve6` fails for every
            // hypothesis of this pixel, so the armed-mode
            // translation-only fallback (or the disarmed
            // skip) applies uniformly.
            if !sma_fault::enabled() || s[5] <= 0.0 || s[11] <= 0.0 {
                return BandOp::Skip;
            }
            sma_fault::note_natural_degradation();
            [0.0, 0.0, 0.0, 0.0, atb[4] / s[5], atb[5] / s[11]]
        }
    };
    let error = moment_error(&sys.ata, &atb, btb, &sol);
    let op = band_op(out.best.error, error);
    if error < out.best.error {
        out.second = out.best.error;
        let (rx, ry) = mapping.refined_displacement(frames, cfg, x, y, ox, oy);
        let z0 = surface_delta(frames, x, y, rx, ry);
        out.best = MotionEstimate {
            displacement: Vec2::new(rx as f32, ry as f32),
            affine: LocalAffine::from_params(&sol, rx as f64, ry as f64, z0),
            error,
            valid: true,
        };
    } else if error < out.second {
        out.second = error;
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::fastpath::track_all_integral;
    use sma_grid::warp::translate;
    use sma_grid::BorderPolicy;

    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        })
    }

    fn frames_for_shift(dx: f32, dy: f32, cfg: &SmaConfig) -> SmaFrames {
        let before = wavy(30, 30);
        let after = translate(&before, -dx, -dy, BorderPolicy::Clamp);
        SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
    }

    #[test]
    fn shift_row_matches_clamped_reads() {
        let src: Vec<f64> = (0..13).map(|i| i as f64 * 1.5 - 3.0).collect();
        let mut dst = vec![0.0f64; 13];
        for ox in [-20isize, -5, -1, 0, 1, 7, 20] {
            shift_row(&src, ox, &mut dst);
            for x in 0..13usize {
                let want = src[(x as isize + ox).clamp(0, 12) as usize];
                assert_eq!(dst[x].to_bits(), want.to_bits(), "ox={ox} x={x}");
            }
        }
    }

    #[test]
    fn simd_driver_is_bit_identical_to_scalar_fastpath() {
        // The load-bearing equivalence: every estimate field must match
        // the scalar integral driver to the bit, both models, region
        // including the border fallback ring.
        for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
            let cfg = SmaConfig::small_test(model);
            let f = frames_for_shift(1.0, 1.0, &cfg);
            let region = Region::Full;
            let scalar = track_all_integral(&f, &cfg, region).expect("fastpath");
            let seq = track_all_simd(&f, &cfg, region).expect("simd");
            for (x, y) in scalar.region.pixels() {
                assert_eq!(
                    scalar.estimates.at(x, y),
                    seq.estimates.at(x, y),
                    "{model:?} ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn simd_tracks_known_shift() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(2.0, -1.0, &cfg);
        let r = track_all_simd(&f, &cfg, Region::Interior { margin: 10 }).expect("simd");
        for (x, y) in r.region.pixels() {
            let e = r.estimates.at(x, y);
            assert!(e.valid, "({x},{y})");
            assert_eq!(e.displacement, Vec2::new(2.0, -1.0), "({x},{y})");
        }
    }

    #[test]
    fn flat_surface_untrackable_in_simd_path() {
        // Singular per-pixel systems (lu = None, disarmed): every
        // hypothesis is skipped, matching the scalar outcome.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let flat = Grid::filled(30, 30, 1.0f32);
        let f = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
        let r = track_all_simd(&f, &cfg, Region::Interior { margin: 10 }).expect("simd");
        for (x, y) in r.region.pixels() {
            assert!(!r.estimates.at(x, y).valid, "({x},{y})");
        }
    }

    #[test]
    fn simd_toggle_off_still_bit_identical() {
        // SMA_SIMD=off routes the *grid* kernels back to scalar loops;
        // the driver's own moment path must not care.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(1.0, 0.0, &cfg);
        let region = Region::Interior { margin: 10 };
        sma_grid::simd::set_enabled(false);
        let off = track_all_simd(&f, &cfg, region).expect("simd off");
        sma_grid::simd::set_enabled(true);
        let on = track_all_simd(&f, &cfg, region).expect("simd on");
        for (x, y) in on.region.pixels() {
            assert_eq!(on.estimates.at(x, y), off.estimates.at(x, y), "({x},{y})");
        }
    }
}
