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
//!
//! ## One body, two entry points
//!
//! [`track_all_simd`] and [`crate::pruned::track_all_pruned`] run one
//! driver body, `track_moment_sweep`. It splits the region into
//! exact-kernel border/poisoned pixels and interior pixels (the split
//! the integral drivers share), runs the static phase, searches, and
//! re-routes near ties. SIMD searches with the raster offset loop;
//! pruned asks for the candidate screen of [`crate::pruned`], which arms
//! only on continuous-model frames with bounded inputs and otherwise
//! leaves the raster loop in place. The entry points differ only in that
//! flag and in a family descriptor naming their spans, counters and
//! atlas channel, chosen once per call, outside every candidate loop.

use sma_fault::SmaError;
use sma_grid::{Grid, Vec2};
use sma_linalg::gauss::Lu6;
use sma_obs::atlas::AtlasChannel;

use crate::affine::LocalAffine;
use crate::config::{MotionModel, SmaConfig};
use crate::fastpath::{
    ata_from_static, atb_from_moments, band_op, btb_from_moments, moment_error, reroute_near_ties,
    route_region, Bands, NearTieCounters, StaticMoments, OFFSET_CHANNELS, STATIC_CHANNELS,
};
use crate::motion::{
    surface_delta, track_pixel, Mapping, MotionEstimate, SmaFrames, GE_SOLVES, HYPOTHESES,
};
use crate::pruned::{screen_inputs_bounded, screened_search};
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

/// Per-pixel hypothesis-independent state: static window sums, the
/// assembled `A^T A`, and its LU factorization (`None` = singular, which
/// `solve6` would report for *every* hypothesis of this pixel).
pub(crate) struct PixelSystem {
    pub(crate) s: [f64; STATIC_CHANNELS],
    pub(crate) ata: [f64; 36],
    pub(crate) lu: Option<Lu6>,
}

/// Per-pixel running search state, carried across the raster offset
/// loop or the screened search's reordered candidate visits.
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
    /// `gy_row` are scratch rows of the frame width. The per-pixel
    /// channel products and the prefix accumulation order match
    /// [`sma_grid::MomentIntegral::from_fn`] exactly. Under `Fsemi`,
    /// `subs` (this offset's plane of a [`SubOffsetTable`]) records each
    /// pixel's semi-fluid correspondence for the near-tie re-route.
    ///
    /// The inputs stay separate parameters and the function stays out of
    /// line on purpose: inlined into the sweep, or reading its inputs
    /// through [`MomentSweep`], it built planes ~10 % slower on the
    /// Florida configuration (96², 225 offsets).
    #[allow(clippy::too_many_arguments)] // hot-loop inputs, see above
    #[inline(never)]
    fn build(
        &mut self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        stat: &StaticMoments,
        gx_plane: &Grid<f64>,
        gy_plane: &Grid<f64>,
        (ox, oy): (isize, isize),
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

/// One moment-sweep family's observability names: its spans, its
/// counters and its atlas dispatch channel. The SIMD and pruned entry
/// points run the same body ([`track_moment_sweep`]) and differ only in
/// this descriptor and in whether they ask for the candidate screen.
pub(crate) struct SweepFamily {
    /// Whole-driver span.
    pub(crate) span: &'static str,
    /// Static-phase span (moment SAT, gradient planes, factorizations).
    pub(crate) static_span: &'static str,
    /// Span around each full offset plane build.
    pub(crate) planes_span: &'static str,
    /// Span around each offset's candidate evaluations.
    pub(crate) eval_span: &'static str,
    /// Border pixels routed to the exact kernel.
    pub(crate) border: &'static sma_obs::Counter,
    /// Interior pixels served by the moment path.
    pub(crate) interior: &'static sma_obs::Counter,
    /// Full offset planes built.
    pub(crate) planes: &'static sma_obs::Counter,
    /// Per-pixel `A^T A` LU factorizations.
    pub(crate) factorizations: &'static sma_obs::Counter,
    /// Near-tie re-route counters.
    pub(crate) near_tie: NearTieCounters,
    /// Atlas channel marking the interior pixels this family serves.
    pub(crate) dispatch: AtlasChannel,
}

/// The SIMD family's names.
const SIMD: SweepFamily = SweepFamily {
    span: "track_simd",
    static_span: "simd_static",
    planes_span: "simd_offset_planes",
    eval_span: "simd_eval",
    border: &SIMD_BORDER,
    interior: &SIMD_INTERIOR,
    planes: &SIMD_PLANES,
    factorizations: &SIMD_FACTORIZATIONS,
    near_tie: NearTieCounters {
        pixels: &SIMD_NEAR_TIE,
        candidates: &SIMD_NEAR_TIE_CANDIDATES,
        fallbacks: &SIMD_NEAR_TIE_FALLBACKS,
    },
    dispatch: AtlasChannel::DispatchSimd,
};

/// What one moment sweep carries from its static phase through its
/// search: the whole-frame static moments and hoisted gradient planes,
/// and per interior pixel its factored system, its running search state
/// and its near-tie band (indexed by row-major offset).
pub(crate) struct MomentSweep<'a> {
    pub(crate) frames: &'a SmaFrames,
    pub(crate) cfg: &'a SmaConfig,
    pub(crate) family: &'a SweepFamily,
    pub(crate) interior: &'a [(usize, usize)],
    pub(crate) stat: StaticMoments,
    pub(crate) gx_plane: Grid<f64>,
    pub(crate) gy_plane: Grid<f64>,
    pub(crate) systems: Vec<PixelSystem>,
    pub(crate) states: Vec<EvalState>,
    pub(crate) bands: Bands,
}

impl<'a> MomentSweep<'a> {
    /// The static phase: moment SAT, hoisted gradient planes, and the
    /// per-pixel system factorization.
    fn new(
        frames: &'a SmaFrames,
        cfg: &'a SmaConfig,
        family: &'a SweepFamily,
        interior: &'a [(usize, usize)],
    ) -> Self {
        let _static_span = sma_obs::span(family.static_span);
        let (w, h) = frames.dims();
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
            let s = stat.sat.window_sum(x, y, cfg.nzt);
            if !s.iter().all(|v| v.is_finite()) {
                // Corrupted static moments: re-route through the exact
                // kernel now and skip the search — the scalar path
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
            family.factorizations.incr();
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
        let (systems, states) = interior.iter().map(prefactor).unzip();
        Self {
            frames,
            cfg,
            family,
            interior,
            stat,
            gx_plane,
            gy_plane,
            systems,
            states,
            bands: Bands::new(interior.len(), cfg.hypotheses_per_pixel()),
        }
    }

    /// Fill the planes in `slot` (allocated on first use) for `offset`
    /// (see [`OffsetPlanes::build`]), counted and timed under the
    /// family's names.
    pub(crate) fn build_plane<'p>(
        &self,
        slot: &'p mut Option<OffsetPlanes>,
        offset: (isize, isize),
        subs: Option<&mut [u8]>,
    ) -> &'p OffsetPlanes {
        let _plane_span = sma_obs::span(self.family.planes_span);
        self.family.planes.incr();
        let (w, h) = self.frames.dims();
        let planes = slot.get_or_insert_with(|| OffsetPlanes::new(w, h));
        planes.build(
            self.frames,
            self.cfg,
            &self.stat,
            &self.gx_plane,
            &self.gy_plane,
            offset,
            &mut vec![0.0f64; w],
            &mut vec![0.0f64; w],
            subs,
        );
        planes
    }

    /// Evaluate interior pixel `i` against offset `(ox, oy)` (row-major
    /// index `oi`) on its built `planes`: the moment solve, the
    /// candidate's band record, and the strict-less winner update of the
    /// pixel's state. Both searches evaluate every candidate they visit
    /// here, so each produces the same bits in either, regardless of the
    /// order candidates are visited in. `mapping` supplies the center
    /// pixel's refined displacement (the offset's recorded table plane
    /// under `Fsemi`).
    #[inline]
    pub(crate) fn eval(
        &mut self,
        planes: &OffsetPlanes,
        i: usize,
        oi: usize,
        (ox, oy): (isize, isize),
        mapping: Mapping<'_>,
    ) {
        let (frames, cfg, (x, y)) = (self.frames, self.cfg, self.interior[i]);
        let (sys, out) = (&self.systems[i], &mut self.states[i]);
        let t = planes.window_sum(x, y, cfg.nzt);
        if !t.iter().all(|v| v.is_finite()) {
            sma_fault::note_natural_degradation();
            out.best = track_pixel(frames, cfg, x, y);
            out.second = f64::NEG_INFINITY;
            out.done = true;
            return;
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
                // Singular pixel: `solve6` fails for every hypothesis of
                // this pixel, so the armed-mode translation-only
                // fallback (or the disarmed skip) applies uniformly.
                if !sma_fault::enabled() || s[5] <= 0.0 || s[11] <= 0.0 {
                    return;
                }
                sma_fault::note_natural_degradation();
                [0.0, 0.0, 0.0, 0.0, atb[4] / s[5], atb[5] / s[11]]
            }
        };
        let error = moment_error(&sys.ata, &atb, btb, &sol);
        self.bands.apply(i, oi, band_op(out.best.error, error));
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
    }

    /// The exhaustive search: every offset in ascending row-major order
    /// (the hypothesis order of every other driver, so strict-less
    /// winner updates agree) against one resident plane buffer.
    fn raster(&mut self, table: &mut Option<SubOffsetTable>) -> Result<(), SmaError> {
        let ns = self.cfg.nzs as isize;
        let mut slot = None;
        let mut oi = 0usize;
        for oy in -ns..=ns {
            crate::cancel::checkpoint()?;
            for ox in -ns..=ns {
                let subs = table.as_mut().map(|t| t.plane_mut(ox, oy));
                let planes = self.build_plane(&mut slot, (ox, oy), subs);
                let _eval_span = sma_obs::span(self.family.eval_span);
                let mapping = table.as_ref().map_or(Mapping::Live, Mapping::Table);
                for i in 0..self.interior.len() {
                    if !self.states[i].done {
                        self.eval(planes, i, oi, (ox, oy), mapping);
                    }
                }
                oi += 1;
            }
        }
        Ok(())
    }
}

/// The moment-sweep body behind [`track_all_simd`] and
/// [`crate::pruned::track_all_pruned`]. In order: split the region into
/// exact-kernel border/poisoned pixels and interior pixels
/// ([`route_region`]); run the static phase; search, either with the
/// raster offset loop or, when `screen` is asked for and can arm
/// (continuous model, [`crate::pruned::screen_inputs_bounded`]), with the
/// pruned seed-and-ring search; then re-route near ties. Both searches
/// evaluate every candidate they visit with [`MomentSweep::eval`] and skip
/// only candidates outside the near-tie band, so the output bits do not
/// depend on `screen`.
pub(crate) fn track_moment_sweep(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
    family: &SweepFamily,
    screen: bool,
) -> Result<SmaResult, SmaError> {
    let _span = sma_obs::span(family.span);
    let (bounds, mut best, interior) = route_region(
        frames,
        cfg,
        region,
        family.border,
        family.interior,
        family.dispatch,
    )?;
    if interior.is_empty() {
        return Ok(SmaResult {
            estimates: best,
            region: bounds,
        });
    }

    let mut sweep = MomentSweep::new(frames, cfg, family, &interior);
    let (w, h) = frames.dims();
    // `Fsemi` only, so only the raster search ever fills it.
    let mut table = SubOffsetTable::new(cfg, w, h);
    if screen && cfg.model == MotionModel::Continuous && screen_inputs_bounded(&sweep) {
        screened_search(&mut sweep)?;
    } else {
        sweep.raster(&mut table)?;
    }

    for (&(x, y), st) in interior.iter().zip(&sweep.states) {
        best.set(x, y, st.best);
    }
    let seconds: Vec<f64> = sweep.states.iter().map(|st| st.second).collect();
    reroute_near_ties(
        frames,
        cfg,
        &interior,
        &seconds,
        &sweep.bands,
        table.as_ref(),
        &mut best,
        &family.near_tie,
    );

    Ok(SmaResult {
        estimates: best,
        region: bounds,
    })
}

/// Track every pixel of `region` with the SIMD moment path,
/// sequentially: the moment-sweep body with the screen disarmed. Output
/// is bit-identical to [`crate::fastpath::track_all_integral`] by
/// construction (see the module docs); the conformance matrix
/// additionally pins the family contract at run time.
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty for the
/// frame size.
pub fn track_all_simd(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    track_moment_sweep(frames, cfg, region, &SIMD, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::fastpath::track_all_integral;
    use crate::test_scenes::frames_for_shift;

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

    type Driver = fn(&SmaFrames, &SmaConfig, Region) -> Result<SmaResult, SmaError>;

    /// Both entry points of the moment-sweep body.
    const SWEEPS: [(&str, Driver); 2] = [
        ("simd", track_all_simd),
        ("pruned", crate::pruned::track_all_pruned),
    ];

    #[test]
    fn moment_sweeps_are_bit_identical_to_scalar_fastpath() {
        // The load-bearing equivalence: every estimate field must match
        // the scalar integral driver to the bit, both models (SemiFluid
        // keeps pruned on the raster loop), region including the border
        // fallback ring.
        for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
            let cfg = SmaConfig::small_test(model);
            let f = frames_for_shift(1.0, 1.0, &cfg);
            let region = Region::Full;
            let scalar = track_all_integral(&f, &cfg, region).expect("fastpath");
            for (name, sweep) in SWEEPS {
                let r = sweep(&f, &cfg, region).expect(name);
                for (x, y) in scalar.region.pixels() {
                    assert_eq!(
                        scalar.estimates.at(x, y),
                        r.estimates.at(x, y),
                        "{name} {model:?} ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn moment_sweeps_track_known_shift() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(2.0, -1.0, &cfg);
        for (name, sweep) in SWEEPS {
            let r = sweep(&f, &cfg, Region::Interior { margin: 10 }).expect(name);
            for (x, y) in r.region.pixels() {
                let e = r.estimates.at(x, y);
                assert!(e.valid, "{name} ({x},{y})");
                assert_eq!(e.displacement, Vec2::new(2.0, -1.0), "{name} ({x},{y})");
            }
        }
    }

    #[test]
    fn flat_surface_untrackable_in_moment_sweeps() {
        // Singular per-pixel systems (lu = None, disarmed): every
        // hypothesis is skipped, matching the scalar outcome. The screen
        // finds every pixel unscreenable (inv_a = None, bound 0), so the
        // pruned search evaluates and skips every hypothesis too.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let flat = Grid::filled(30, 30, 1.0f32);
        let f = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
        for (name, sweep) in SWEEPS {
            let r = sweep(&f, &cfg, Region::Interior { margin: 10 }).expect(name);
            for (x, y) in r.region.pixels() {
                assert!(!r.estimates.at(x, y).valid, "{name} ({x},{y})");
            }
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
