//! The pruned-search fastpath driver family: coarse-lattice candidate
//! ordering plus admissible early termination, bit-identical to the
//! SIMD/integral block.
//!
//! The exhaustive fastpath drivers evaluate every pixel against every
//! hypothesis offset — `(2 Nzs + 1)^2` O(1) moment evaluations per
//! pixel, plus one full 8-channel offset SAT *build* per offset. On the
//! bench scenes the plane builds and the evaluations split the runtime
//! roughly 40/60, so a pruned search must cut both. This driver does it
//! in three moves:
//!
//! 1. **Coarse screening bound.** For each candidate `(pixel, offset)`
//!    it computes a *lower bound* on the minimized hypothesis error from
//!    summed-area tables over the **stride-2 even lattice**
//!    ([`sma_grid::prune::DecimatedMoments`], a quarter of the build
//!    cost of the full planes). The normal equations decouple into an
//!    a-block and a b-block (`err = err_a + err_b`, both sums of squared
//!    residuals), and the even-lattice terms of `err_a` are a subset of
//!    its full-window terms, so
//!    `err >= err_a >= min over theta_a of the even-subset quadratic`
//!    — a closed 3 x 3 form ([`sma_grid::prune::quad_min`]). Decimation
//!    (keeping samples) rather than blurring (mixing them) is what makes
//!    the coarse level *admissible*. Only the a-block is screened: the
//!    bound must cost less than the O(1) evaluation it replaces, and
//!    one 4-channel lookup plus one 3 x 3 quadratic does.
//! 2. **Seed-and-ring candidate ordering.** Each pixel's candidates are
//!    visited starting from the offset with the smallest decimated
//!    bound (the coarse level's displacement estimate, a strict-less
//!    argmin over the bounds, not any earlier raster winner), then in
//!    growing Chebyshev rings around that seed. A good first candidate
//!    drives the running best error down immediately, which makes the
//!    screen maximally selective for everything visited later.
//!    Surviving candidates are binned per offset and evaluated
//!    offset-major in ascending raster order, so full offset planes are
//!    built **lazily** — an offset rejected for every pixel never builds
//!    its plane at all.
//! 3. **Safe termination, not approximate termination.** A candidate is
//!    skipped only when its deflated bound exceeds
//!    `(best + NEAR_TIE_ABS) / (1 - NEAR_TIE_REL)` — strictly outside
//!    the shared near-tie band around the running best. The winner can
//!    never be skipped (its true error is below every incumbent), no
//!    skipped candidate can change the near-tie verdict or belong in the
//!    band the exact re-route reads (it is provably outside the band
//!    around the final best), and every *evaluated* candidate reuses the
//!    SIMD driver's own `OffsetPlanes` SAT and LU solve — the same
//!    bits in the same order. Output is therefore bit-identical to
//!    [`crate::simd`] / [`crate::fastpath`] by
//!    construction; the conformance matrix pins it at run time.
//!
//! The screen arms only when it is provably safe: continuous model
//! (the semi-fluid correspondence search prices each decimated sample
//! like a full one, erasing the build saving) and a one-pass global scan
//! confirming every screen input is finite and bounded (which rules out
//! the mid-search non-finite-sum re-route, so the visit *order* cannot
//! change which exact-kernel fallback fires).
//!
//! This module holds the screen only. [`track_all_pruned`] runs the one
//! moment-sweep body of [`crate::simd`] (region split, static phase,
//! search, near-tie re-route) and asks it for the screen; where the
//! screen cannot arm, that body runs its raster offset loop, which is
//! [`crate::simd::track_all_simd`] under the pruned family's names. A/B
//! comparisons of the screen call the two entry points.

use sma_fault::SmaError;
use sma_grid::prune::{inv3, quad_min, DecimatedMoments};
use sma_obs::atlas::AtlasChannel;

use crate::config::SmaConfig;
use crate::fastpath::{static_channels, NearTieCounters, NEAR_TIE_ABS, NEAR_TIE_REL};
use crate::motion::{Mapping, SmaFrames};
use crate::sequential::{Region, SmaResult};
use crate::simd::{track_moment_sweep, MomentSweep, OffsetPlanes, SweepFamily};

/// Border pixels routed to the exact kernel (window crosses the edge).
static PRUNED_BORDER: sma_obs::Counter = sma_obs::Counter::new("pruned.border_fallback_pixels");
/// Interior pixels served by the pruned moment path.
static PRUNED_INTERIOR: sma_obs::Counter = sma_obs::Counter::new("pruned.interior_pixels");
/// Full offset planes actually built (the lazy-build saving shows as
/// this counter staying far below `(2 Nzs + 1)^2`).
static PRUNED_PLANES: sma_obs::Counter = sma_obs::Counter::new("pruned.offset_planes_built");
/// Per-pixel `A^T A` LU factorizations (one per interior pixel).
static PRUNED_FACTORIZATIONS: sma_obs::Counter = sma_obs::Counter::new("pruned.lu_factorizations");
/// Pixels re-routed to the exact kernel by the shared near-tie guard.
static PRUNED_NEAR_TIE: sma_obs::Counter = sma_obs::Counter::new("pruned.near_tie_pixels");
/// Near-tie band members re-evaluated with the exact kernel.
static PRUNED_NEAR_TIE_CANDIDATES: sma_obs::Counter =
    sma_obs::Counter::new("pruned.near_tie_candidates");
/// Near-tie pixels that fell back to the full exact sweep.
static PRUNED_NEAR_TIE_FALLBACKS: sma_obs::Counter =
    sma_obs::Counter::new("pruned.near_tie_fallbacks");
/// The pruned family's names.
const PRUNED: SweepFamily = SweepFamily {
    span: "track_pruned",
    static_span: "pruned_static",
    planes_span: "pruned_offset_planes",
    eval_span: "pruned_eval",
    border: &PRUNED_BORDER,
    interior: &PRUNED_INTERIOR,
    planes: &PRUNED_PLANES,
    factorizations: &PRUNED_FACTORIZATIONS,
    near_tie: NearTieCounters {
        pixels: &PRUNED_NEAR_TIE,
        candidates: &PRUNED_NEAR_TIE_CANDIDATES,
        fallbacks: &PRUNED_NEAR_TIE_FALLBACKS,
    },
    dispatch: AtlasChannel::DispatchPruned,
};
/// Candidates rejected by the admissible bound at ring-binning time.
static BOUND_REJECTS: sma_obs::Counter = sma_obs::Counter::new("prune.bound_rejects");
/// Total candidates never fully evaluated: bound rejects plus
/// second-chance skips (the incumbent improved between binning and
/// evaluation). The non-vacuity tests pin this above zero so the screen
/// cannot silently degrade to an exhaustive sweep.
static CANDIDATES_SKIPPED: sma_obs::Counter = sma_obs::Counter::new("prune.candidates_skipped");

/// Magnitude ceiling for the screen-arming scan. With every per-pixel
/// screen input below this, each moment channel is at most a cubic
/// product (`<= 1e180`) and every whole-frame prefix sum stays below
/// ~`1e185` — comfortably finite — so no window sum in *either* the
/// pruned or the exhaustive driver can go non-finite mid-search.
const SCREEN_MAX_MAGNITUDE: f64 = 1e60;

/// Absolute deflation of the stored bound, absorbing accumulation noise
/// around zero.
const LB_GUARD_ABS: f64 = 1e-9;
/// Relative deflation against the *pre-cancellation* magnitude of the
/// subset `b^T b` term (`t6 - 2 t0 + s0` cancels heavily on
/// well-matched candidates, so the noise scales with the summands, not
/// the result).
const LB_GUARD_REL: f64 = 5e-12;
/// Multiplicative safety factor on the final bound. The 3 x 3 quadratic
/// admits conditioning up to [`sma_grid::prune::DET_RTOL`]`^-1`, which
/// can amplify relative rounding noise to ~1e-4; deflating by 1e-3
/// keeps the stored bound a true lower bound with an order of margin,
/// at the cost of not rejecting candidates within 0.1 % of the
/// threshold — which the near-tie band would have re-routed anyway.
const LB_SAFETY_REL: f64 = 1e-3;

/// Decimated offset channels screened by the bound: the a-block terms
/// `[T0, T1, T2, T6]` of the eight fastpath offset channels.
const A_CHANNELS: usize = 4;
/// Decimated static channels screened by the bound: `S0..S5`, the
/// a-block of `A^T A`.
const STATIC_A_CHANNELS: usize = 6;

/// A candidate with a bound above `skip_threshold(best)` is *strictly*
/// outside the near-tie band around the running best: even if it were
/// evaluated, it could neither win nor trigger (or suppress) the
/// near-tie re-route. `best = inf` (no incumbent yet) skips nothing.
#[inline]
fn skip_threshold(best: f64) -> f64 {
    if best.is_finite() {
        (best + NEAR_TIE_ABS) / (1.0 - NEAR_TIE_REL)
    } else {
        f64::INFINITY
    }
}

/// Per-pixel screening state: the even-lattice static window sums and
/// the inverted a-block. `inv_a = None` (singular or empty subset)
/// makes the pixel unscreenable — its bound is zero, which rejects
/// nothing.
struct PixelScreen {
    inv_a: Option<[f64; 9]>,
    s_sub: [f64; STATIC_A_CHANNELS],
}

/// True when every per-pixel input the screen (and the offset planes)
/// consumes is finite and within [`SCREEN_MAX_MAGNITUDE`] — the
/// precondition under which no window sum can go non-finite, so the
/// reordered search provably fires the same fallbacks as the raster
/// sweep.
pub(crate) fn screen_inputs_bounded(sweep: &MomentSweep<'_>) -> bool {
    let frames = sweep.frames;
    let (w, h) = frames.dims();
    let ok = |v: f64| v.is_finite() && v.abs() <= SCREEN_MAX_MAGNITUDE;
    for y in 0..h {
        for x in 0..w {
            let g = frames.geo_before.at(x, y);
            if !ok(g.zx)
                || !ok(g.zy)
                || !ok(sweep.gx_plane.at(x, y))
                || !ok(sweep.gy_plane.at(x, y))
            {
                return false;
            }
            if !sweep.stat.factors.at(x, y).iter().all(|&f| ok(f)) {
                return false;
            }
        }
    }
    true
}

/// Track every pixel of `region` with the pruned-search moment path,
/// sequentially: the moment-sweep body ([`crate::simd`]) with the
/// screen asked for. Output is bit-identical to
/// [`crate::simd::track_all_simd`] (and therefore the whole integral
/// family) by construction — see the module docs; the conformance
/// matrix pins the contract at run time.
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty for the
/// frame size.
pub fn track_all_pruned(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    track_moment_sweep(frames, cfg, region, &PRUNED, true)
}

/// The screened search over `sweep`'s interior pixels (see the module
/// docs): screen every candidate, seed each pixel at its smallest
/// bound, then visit Chebyshev rings around the seed, evaluating the
/// surviving candidates offset-major on lazily built planes.
pub(crate) fn screened_search(sweep: &mut MomentSweep<'_>) -> Result<(), SmaError> {
    let (frames, cfg, interior) = (sweep.frames, sweep.cfg, sweep.interior);
    let (w, h) = frames.dims();
    let ns = cfg.nzs as isize;
    let nt = cfg.nzt;
    let side = (2 * ns + 1) as usize;

    // --- Screening phase ---------------------------------------------
    // Even-lattice static sums and the inverted a-block, per pixel.
    let screen_span = sma_obs::span("pruned_screen");
    let stat = &sweep.stat;
    let gx_plane = &sweep.gx_plane;
    let dec_static: DecimatedMoments<STATIC_A_CHANNELS> =
        DecimatedMoments::from_fn(w, h, |x, y| {
            let g = frames.geo_before.at(x, y);
            let ch = static_channels(&stat.factors.at(x, y), g.zx, g.zy);
            [ch[0], ch[1], ch[2], ch[3], ch[4], ch[5]]
        });
    let screen_for = |&(x, y): &(usize, usize)| -> PixelScreen {
        match dec_static.even_window_sum(x, y, nt) {
            Some(s) => {
                let a = [
                    s[0], s[1], -s[2], //
                    s[1], s[3], -s[4], //
                    -s[2], -s[4], s[5],
                ];
                PixelScreen {
                    inv_a: inv3(&a),
                    s_sub: s,
                }
            }
            None => PixelScreen {
                inv_a: None,
                s_sub: [0.0; STATIC_A_CHANNELS],
            },
        }
    };
    let screens: Vec<PixelScreen> = interior.iter().map(screen_for).collect();

    // One deflated lower bound per (offset, pixel), offset-major. Each
    // offset's decimated a-channel SAT is built, consumed and dropped
    // inside its fill — only the bounds stay resident.
    let n_off = side * side;
    let np = interior.len();
    let offsets: Vec<(isize, isize)> = (-ns..=ns)
        .flat_map(|oy| (-ns..=ns).map(move |ox| (ox, oy)))
        .collect();
    let mut lb = vec![0.0f64; n_off * np];
    let fill_bounds = |&(ox, oy): &(isize, isize), out: &mut [f64]| {
        let dec: DecimatedMoments<A_CHANNELS> = DecimatedMoments::from_fn(w, h, |x, y| {
            let sx = (x as isize + ox).clamp(0, w as isize - 1) as usize;
            let sy = (y as isize + oy).clamp(0, h as isize - 1) as usize;
            let gx = gx_plane.at(sx, sy);
            let [zx_e2, zy_e2, ie2, _, _, _] = stat.factors.at(x, y);
            let t2 = ie2 * gx;
            [zx_e2 * gx, zy_e2 * gx, t2, t2 * gx]
        });
        for (b, (&(x, y), scr)) in out.iter_mut().zip(interior.iter().zip(&screens)) {
            *b = match (&scr.inv_a, dec.even_window_sum(x, y, nt)) {
                (Some(inv), Some(t)) => {
                    let s = &scr.s_sub;
                    let atb_a = [s[0] - t[0], s[1] - t[1], t[2] - s[2]];
                    let btb_a = t[3] - 2.0 * t[0] + s[0];
                    let raw = quad_min(btb_a, &atb_a, inv);
                    let guard =
                        LB_GUARD_ABS + LB_GUARD_REL * (t[3].abs() + 2.0 * t[0].abs() + s[0]);
                    ((raw - guard) * (1.0 - LB_SAFETY_REL)).max(0.0)
                }
                _ => 0.0,
            };
        }
    };
    for (out, o) in lb.chunks_mut(np).zip(offsets.iter()) {
        fill_bounds(o, out);
    }

    // Seed per pixel: the offset with the smallest bound — the coarse
    // level's displacement estimate. Strict-less argmin with raster
    // tie-breaking keeps the choice deterministic.
    let seed_for = |i: usize| -> usize {
        let mut bi = 0usize;
        let mut bv = f64::INFINITY;
        for (oi, chunk) in lb.chunks(np).enumerate() {
            let v = chunk[i];
            if v < bv {
                bv = v;
                bi = oi;
            }
        }
        bi
    };
    let seed_of: Vec<usize> = (0..np).map(seed_for).collect();
    drop(screen_span);

    // --- Search phase ------------------------------------------------
    // Round 0 evaluates each pixel's seed; round r >= 1 evaluates its
    // Chebyshev ring r (clipped to the search square). Each offset
    // covers every candidate exactly once. Survivors are binned per
    // offset and evaluated offset-major ascending, with the full plane
    // built lazily on first use. The band does not depend on the order
    // candidates are visited in (see [`crate::fastpath::Bands`]), so
    // this search records the same band members the raster sweep would.
    let mut plane_cache: Vec<Option<OffsetPlanes>> = (0..n_off).map(|_| None).collect();
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); n_off];
    for round in 0..=(2 * ns) as usize {
        crate::cancel::checkpoint()?;
        for b in bins.iter_mut() {
            b.clear();
        }
        if round == 0 {
            for (i, &soi) in seed_of.iter().enumerate() {
                if !sweep.states[i].done {
                    bins[soi].push(i);
                }
            }
        } else {
            let r = round as isize;
            for (i, &soi) in seed_of.iter().enumerate() {
                if sweep.states[i].done {
                    continue;
                }
                let (sox, soy) = offsets[soi];
                let thr = skip_threshold(sweep.states[i].best.error);
                let mut visit = |ox: isize, oy: isize| {
                    let oi = ((oy + ns) * (side as isize) + (ox + ns)) as usize;
                    if lb[oi * np + i] > thr {
                        BOUND_REJECTS.incr();
                        CANDIDATES_SKIPPED.incr();
                    } else {
                        bins[oi].push(i);
                    }
                };
                for oy in (soy - r).max(-ns)..=(soy + r).min(ns) {
                    if (oy - soy).abs() == r {
                        for ox in (sox - r).max(-ns)..=(sox + r).min(ns) {
                            visit(ox, oy);
                        }
                    } else {
                        for ox in [sox - r, sox + r] {
                            if (-ns..=ns).contains(&ox) {
                                visit(ox, oy);
                            }
                        }
                    }
                }
            }
        }
        for (oi, &offset) in offsets.iter().enumerate() {
            if bins[oi].is_empty() {
                continue;
            }
            let plane = match plane_cache[oi] {
                Some(ref plane) => plane,
                ref mut slot => sweep.build_plane(slot, offset, None),
            };
            let _eval_span = sma_obs::span(sweep.family.eval_span);
            // Second chance at evaluation time: the incumbent may have
            // improved since binning, so re-test the stored bound
            // against the *current* threshold.
            for &i in &bins[oi] {
                if sweep.states[i].done {
                    continue;
                }
                if lb[oi * np + i] > skip_threshold(sweep.states[i].best.error) {
                    CANDIDATES_SKIPPED.incr();
                    continue;
                }
                sweep.eval(plane, i, oi, offset, Mapping::Live);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::fastpath::near_tie;
    use crate::simd::track_all_simd;
    use sma_grid::Grid;

    /// Frames whose after-image is the wavy surface *analytically*
    /// re-evaluated at `(x + dx, y + dy)`: exact correspondence at every
    /// pixel, no clamp band. The translate-based fixture breaks
    /// correspondence in a border band, which legitimately leaves those
    /// pixels with large best errors and therefore wide-open skip
    /// thresholds — fine for identity tests, but it would mask the
    /// laziness the pruning claims to deliver on clean interiors (the
    /// shape the bench scenarios measure via `Region::Interior`).
    fn analytic_shift_frames(dx: i32, dy: i32, cfg: &SmaConfig) -> SmaFrames {
        let f = |x: f32, y: f32| {
            (x * 0.45).sin() * 2.0 + (y * 0.35).cos() * 1.5 + (x * 0.12 + y * 0.21).sin() * 3.0
        };
        let before = Grid::from_fn(30, 30, |x, y| f(x as f32, y as f32));
        let after = Grid::from_fn(30, 30, |x, y| {
            f((x as i32 + dx) as f32, (y as i32 + dy) as f32)
        });
        SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
    }

    #[test]
    fn screen_identity_and_non_vacuity() {
        // With the screen armed the driver must actually skip candidates
        // (non-vacuity — the gate perf claim is meaningless otherwise),
        // and the screened search must not move one output bit against
        // the raster sweep of the SIMD entry point.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = analytic_shift_frames(2, -1, &cfg);
        // Interior region, as the bench scenarios run: pixels whose
        // search windows cross the frame edge have no true
        // correspondence, so their best error — and with it the skip
        // threshold — stays legitimately wide open, masking laziness.
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        // Counters only record while observability is armed.
        sma_obs::set_level(sma_obs::ObsLevel::Summary);
        let skipped0 = sma_obs::metrics::snapshot().counter("prune.candidates_skipped");
        let planes0 = sma_obs::metrics::snapshot().counter("pruned.offset_planes_built");
        let pruned = track_all_pruned(&f, &cfg, region).expect("pruned");
        let skipped = sma_obs::metrics::snapshot().counter("prune.candidates_skipped") - skipped0;
        let planes = sma_obs::metrics::snapshot().counter("pruned.offset_planes_built") - planes0;
        assert!(
            skipped > 0,
            "screen rejected no candidate on a shifted scene"
        );
        assert!(
            planes < 25,
            "lazy plane build degenerated to the exhaustive sweep ({planes} planes)"
        );
        let simd = track_all_simd(&f, &cfg, region).expect("simd");
        for (x, y) in pruned.region.pixels() {
            assert_eq!(
                pruned.estimates.at(x, y),
                simd.estimates.at(x, y),
                "({x},{y})"
            );
        }
    }

    #[test]
    fn skip_threshold_brackets_the_near_tie_band() {
        // Any error strictly above the threshold is outside the
        // near-tie band of `best`: near_tie(best, e) must be false.
        for best in [0.0, 1e-9, 1.0, 1e6] {
            let thr = skip_threshold(best);
            for e in [thr * 1.0000001 + 1e-12, thr * 2.0, thr + 1.0] {
                assert!(
                    !near_tie(best, e),
                    "best={best} thr={thr} e={e} still in band"
                );
            }
        }
        assert_eq!(skip_threshold(f64::INFINITY), f64::INFINITY);
    }
}
