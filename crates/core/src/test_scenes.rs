//! Scenes shared by the unit tests of the driver modules.

use sma_grid::warp::translate;
use sma_grid::{BorderPolicy, Grid};

use crate::config::SmaConfig;
use crate::motion::SmaFrames;

/// A smooth surface textured at three scales, with no periodic ties.
pub(crate) fn wavy(w: usize, h: usize) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
    })
}

/// A 30 x 30 [`wavy`] pair whose scene moves by `(dx, dy)`, edges
/// clamped, with the same pair as both intensity and surface.
pub(crate) fn frames_for_shift(dx: f32, dy: f32, cfg: &SmaConfig) -> SmaFrames {
    let before = wavy(30, 30);
    let after = translate(&before, -dx, -dy, BorderPolicy::Clamp);
    SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
}
