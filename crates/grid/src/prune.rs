//! Bound kernels for the pruned-search fast path.
//!
//! The pruned driver family (`sma_core::pruned`) rejects hypothesis
//! offsets *before* building their full moment planes by comparing an
//! **admissible lower bound** on each candidate's minimized error
//! against the running best. The bound machinery lives here, beside the
//! summed-area tables it is built from:
//!
//! * [`DecimatedMoments`] — a summed-area table over the **stride-2
//!   even lattice** of a channel plane. A window sum over the even
//!   sub-lattice of a template window is a *subset* of the full window
//!   sum, and a sum of squared residuals over a subset of samples can
//!   never exceed the sum over all of them — which is exactly why the
//!   decimated lattice (and not a blurred pyramid level, whose samples
//!   are *mixtures*) yields an admissible bound.
//! * [`inv3`] / [`quad_min`] — the closed-form minimum of a 3-variable
//!   least-squares quadratic `theta^T A theta - 2 theta^T b + c`,
//!   namely `c - b^T A^-1 b`, clamped at zero. The SMA normal equations
//!   decouple into two such 3 x 3 blocks, so two of these evaluations
//!   bound a candidate's full 6-parameter minimum from below.

use crate::integral::MomentIntegral;

/// A summed-area table over the stride-2 even lattice of a `K`-channel
/// plane: cell `(cx, cy)` of the coarse table holds the channel values
/// of fine pixel `(2 cx, 2 cy)`, so any rectangle sum over the coarse
/// table is the sum over the even-coordinate subset of the
/// corresponding fine rectangle — at a quarter of the build cost of the
/// full-resolution table.
#[derive(Debug, Clone)]
pub struct DecimatedMoments<const K: usize> {
    sat: MomentIntegral<K>,
    fine_w: usize,
    fine_h: usize,
}

impl<const K: usize> DecimatedMoments<K> {
    /// Build from a per-fine-pixel channel function, sampled on the
    /// even lattice of a `w x h` plane in one pass.
    pub fn from_fn(w: usize, h: usize, mut f: impl FnMut(usize, usize) -> [f64; K]) -> Self {
        let cw = w.div_ceil(2).max(1);
        let ch = h.div_ceil(2).max(1);
        let sat = MomentIntegral::from_fn(cw, ch, |cx, cy| f(2 * cx, 2 * cy));
        Self {
            sat,
            fine_w: w,
            fine_h: h,
        }
    }

    /// Per-channel sum over the even-coordinate subset of the
    /// `(2 n + 1)^2` window centered at `(cx, cy)` of the fine plane,
    /// clipped to the plane. `None` when the window contains no even
    /// lattice point (possible only for `n == 0` at an odd coordinate).
    pub fn even_window_sum(&self, cx: usize, cy: usize, n: usize) -> Option<[f64; K]> {
        let x0 = cx.saturating_sub(n);
        let y0 = cy.saturating_sub(n);
        let x1 = (cx + n).min(self.fine_w.saturating_sub(1));
        let y1 = (cy + n).min(self.fine_h.saturating_sub(1));
        // Even x in [x0, x1]  <=>  coarse cx in [ceil(x0/2), floor(x1/2)].
        let cx0 = x0.div_ceil(2);
        let cy0 = y0.div_ceil(2);
        let cx1 = x1 / 2;
        let cy1 = y1 / 2;
        if cx0 > cx1 || cy0 > cy1 {
            return None;
        }
        Some(self.sat.rect_sum(cx0, cy0, cx1, cy1))
    }

    /// Number of even lattice points inside the (clipped) window — the
    /// subset's sample count, for diagnostics and tests.
    pub fn even_window_count(&self, cx: usize, cy: usize, n: usize) -> usize {
        let x0 = cx.saturating_sub(n);
        let y0 = cy.saturating_sub(n);
        let x1 = (cx + n).min(self.fine_w.saturating_sub(1));
        let y1 = (cy + n).min(self.fine_h.saturating_sub(1));
        let nx = (x1 / 2 + 1).saturating_sub(x0.div_ceil(2));
        let ny = (y1 / 2 + 1).saturating_sub(y0.div_ceil(2));
        nx * ny
    }
}

/// Relative determinant tolerance below which a 3 x 3 system is treated
/// as singular (the pixel is then unscreenable and its bound degrades
/// to zero, which never rejects anything).
pub const DET_RTOL: f64 = 1e-12;

/// Invert a symmetric 3 x 3 matrix (row-major) by the adjugate, or
/// `None` when the determinant is non-finite or small relative to the
/// matrix scale. The caller treats `None` as "no usable bound".
pub fn inv3(m: &[f64; 9]) -> Option<[f64; 9]> {
    let c00 = m[4] * m[8] - m[5] * m[7];
    let c01 = m[5] * m[6] - m[3] * m[8];
    let c02 = m[3] * m[7] - m[4] * m[6];
    let det = m[0] * c00 + m[1] * c01 + m[2] * c02;
    // Scale from the row 1-norms: det of a well-conditioned matrix is
    // comparable to their product; a det far below it is numerically
    // singular no matter the absolute magnitudes.
    let scale = (m[0].abs() + m[1].abs() + m[2].abs())
        * (m[3].abs() + m[4].abs() + m[5].abs())
        * (m[6].abs() + m[7].abs() + m[8].abs());
    if !det.is_finite() || !scale.is_finite() || det.abs() <= DET_RTOL * scale {
        return None;
    }
    let inv = [
        c00 / det,
        (m[2] * m[7] - m[1] * m[8]) / det,
        (m[1] * m[5] - m[2] * m[4]) / det,
        c01 / det,
        (m[0] * m[8] - m[2] * m[6]) / det,
        (m[2] * m[3] - m[0] * m[5]) / det,
        c02 / det,
        (m[1] * m[6] - m[0] * m[7]) / det,
        (m[0] * m[4] - m[1] * m[3]) / det,
    ];
    inv.iter().all(|v| v.is_finite()).then_some(inv)
}

/// The minimum of the least-squares quadratic
/// `theta^T A theta - 2 theta^T b + c` over `theta`, given `A^-1`:
/// `c - b^T A^-1 b`, clamped at zero (the quadratic is a sum of squared
/// residuals, so its true minimum is non-negative). Non-finite
/// intermediates collapse to `0.0` — a vacuous bound that rejects
/// nothing, never an unsound one.
#[inline]
pub fn quad_min(c: f64, b: &[f64; 3], inv: &[f64; 9]) -> f64 {
    let ib0 = inv[0] * b[0] + inv[1] * b[1] + inv[2] * b[2];
    let ib1 = inv[3] * b[0] + inv[4] * b[1] + inv[5] * b[2];
    let ib2 = inv[6] * b[0] + inv[7] * b[1] + inv[8] * b[2];
    let m = c - (b[0] * ib0 + b[1] * ib1 + b[2] * ib2);
    if m.is_finite() {
        m.max(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(x: usize, y: usize) -> [f64; 2] {
        let v = ((x * 13 + y * 7) % 11) as f64;
        [v * 0.5 - 2.0, (x as f64 - y as f64) * 0.25]
    }

    #[test]
    fn decimated_sums_match_even_lattice_brute_force() {
        for (w, h) in [(9usize, 7usize), (16, 16), (33, 5), (1, 1)] {
            let d = DecimatedMoments::<2>::from_fn(w, h, chan);
            for &(cx, cy, n) in &[(4usize, 3usize, 2usize), (0, 0, 3), (8, 6, 1), (2, 2, 0)] {
                if cx >= w || cy >= h {
                    continue;
                }
                let mut want = [0.0f64; 2];
                let mut count = 0usize;
                for y in cy.saturating_sub(n)..=(cy + n).min(h - 1) {
                    for x in cx.saturating_sub(n)..=(cx + n).min(w - 1) {
                        if x % 2 == 0 && y % 2 == 0 {
                            let v = chan(x, y);
                            want[0] += v[0];
                            want[1] += v[1];
                            count += 1;
                        }
                    }
                }
                assert_eq!(d.even_window_count(cx, cy, n), count, "({cx},{cy}) n={n}");
                match d.even_window_sum(cx, cy, n) {
                    Some(got) => {
                        assert!(count > 0);
                        for k in 0..2 {
                            assert!(
                                (got[k] - want[k]).abs() < 1e-9,
                                "({cx},{cy}) n={n} ch {k}: {got:?} vs {want:?}"
                            );
                        }
                    }
                    None => assert_eq!(count, 0, "({cx},{cy}) n={n}"),
                }
            }
        }
    }

    #[test]
    fn odd_pixel_zero_window_has_no_even_samples() {
        let d = DecimatedMoments::<1>::from_fn(8, 8, |x, y| [(x + y) as f64]);
        assert!(d.even_window_sum(3, 3, 0).is_none());
        assert_eq!(d.even_window_count(3, 3, 0), 0);
        assert!(d.even_window_sum(4, 4, 0).is_some());
    }

    #[test]
    fn inv3_inverts_well_conditioned_matrices() {
        let m = [4.0, 1.0, -0.5, 1.0, 3.0, 0.25, -0.5, 0.25, 2.0];
        let inv = inv3(&m).expect("invertible");
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += m[i * 3 + k] * inv[k * 3 + j];
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((s - want).abs() < 1e-12, "({i},{j}): {s}");
            }
        }
    }

    #[test]
    fn inv3_rejects_singular_and_non_finite() {
        // Rank-2: third row is the sum of the first two.
        let m = [1.0, 2.0, 3.0, 2.0, 5.0, 1.0, 3.0, 7.0, 4.0];
        assert!(inv3(&m).is_none());
        let mut nf = m;
        nf[0] = f64::NAN;
        assert!(inv3(&nf).is_none());
        // Scale invariance: a tiny well-conditioned matrix still inverts.
        let tiny = [4e-30, 1e-30, 0.0, 1e-30, 3e-30, 0.0, 0.0, 0.0, 2e-30];
        assert!(inv3(&tiny).is_some());
    }

    #[test]
    fn quad_min_is_the_quadratic_minimum() {
        let a = [4.0, 1.0, -0.5, 1.0, 3.0, 0.25, -0.5, 0.25, 2.0];
        let b = [1.0, -2.0, 0.5];
        let c = 7.0;
        let inv = inv3(&a).expect("invertible");
        let m = quad_min(c, &b, &inv);
        // Sample the quadratic around the analytic argmin: no sampled
        // value may fall below the closed-form minimum.
        let argmin = [
            inv[0] * b[0] + inv[1] * b[1] + inv[2] * b[2],
            inv[3] * b[0] + inv[4] * b[1] + inv[5] * b[2],
            inv[6] * b[0] + inv[7] * b[1] + inv[8] * b[2],
        ];
        let eval = |t: &[f64; 3]| {
            let mut q = c;
            for i in 0..3 {
                let mut row = 0.0;
                for j in 0..3 {
                    row += a[i * 3 + j] * t[j];
                }
                q += t[i] * row - 2.0 * t[i] * b[i];
            }
            q
        };
        assert!((eval(&argmin) - m).abs() < 1e-9);
        for dx in [-0.3, 0.0, 0.4] {
            for dy in [-0.2, 0.1] {
                let t = [argmin[0] + dx, argmin[1] + dy, argmin[2] - dx * dy];
                assert!(eval(&t) + 1e-12 >= m);
            }
        }
    }

    #[test]
    fn quad_min_clamps_at_zero_and_absorbs_non_finite() {
        let inv = inv3(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]).expect("identity");
        // c smaller than b^T b: exact-arithmetic negative, clamped.
        assert_eq!(quad_min(1.0, &[2.0, 0.0, 0.0], &inv), 0.0);
        assert_eq!(quad_min(f64::NAN, &[0.0; 3], &inv), 0.0);
        assert_eq!(quad_min(1.0, &[f64::INFINITY, 0.0, 0.0], &inv), 0.0);
    }
}
