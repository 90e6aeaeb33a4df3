//! End-to-end §5.1 pipeline: synthetic GOES stereo pairs -> ASA height
//! maps -> semi-fluid motion analysis -> wind-barb accuracy, asserting
//! the paper's claims (fast drivers == sequential, RMS < 1 px vs the 32
//! reference vectors; the MasPar driver's parallel == sequential claim
//! is pinned in `drivers_and_machine.rs`).

use sma::core::motion::{MotionEstimate, SmaFrames};
use sma::core::sequential::{track_all_sequential, Region, SmaResult};
use sma::core::{track_all_planner, track_all_simd, MotionModel, SmaConfig, SmaError};
use sma::satdata::hurricane_frederic_analog;
use sma::satdata::tracers::{pick_tracers, tracer_points};
use sma::stereo::{Asa, AsaConfig};

fn asa_heights(seq: &sma::satdata::SceneSequence) -> Vec<sma::grid::Grid<f32>> {
    let asa = Asa::new(AsaConfig::default());
    (0..2)
        .map(|t| {
            let pair = seq.stereo_pair(t).expect("stereo sequence");
            let out = asa.run(&pair.left, &pair.right);
            pair.disparity_to_height(&out.disparity)
        })
        .collect()
}

#[test]
fn stereo_to_semifluid_tracking_is_subpixel_at_tracers() {
    let seq = hurricane_frederic_analog(96, 2, 1979);
    let heights = asa_heights(&seq);

    // ASA heights must track the generator's truth to ~1.5 km on a
    // 0-10 km field.
    for (t, h) in heights.iter().enumerate() {
        let rms = h.rms_diff(&seq.frames[t].height);
        assert!(rms < 2.0, "ASA height RMS {rms} at t={t}");
    }

    let cfg = SmaConfig {
        model: MotionModel::SemiFluid,
        nz: 2,
        nzs: 3,
        nzt: 5,
        nss: 1,
        nst: 2,
    };
    let frames = SmaFrames::prepare(
        &seq.frames[0].intensity,
        &seq.frames[1].intensity,
        &heights[0],
        &heights[1],
        &cfg,
    )
    .expect("prepare");
    let margin = cfg.margin() + 2;
    let result = track_all_sequential(&frames, &cfg, Region::Interior { margin }).expect("track");
    assert!(
        result.valid_fraction() > 0.9,
        "valid {}",
        result.valid_fraction()
    );

    // The paper's protocol: 32 manually-tracked wind barbs; RMS < 1 px.
    let truth = &seq.truth_flows[0];
    let tracers = pick_tracers(&seq.frames[0].intensity, truth, 32, 0.5, 5, margin, 912);
    assert_eq!(tracers.len(), 32, "scene must support 32 tracers");
    let stats = result.flow().compare_at(truth, &tracer_points(&tracers));
    assert!(
        stats.subpixel(),
        "RMS {} px >= 1 px against the 32 reference vectors",
        stats.rms_endpoint
    );
}

#[test]
fn parallel_equals_sequential_on_real_scene() {
    // §5.1: "The parallel algorithm obtained the same result as the
    // sequential implementation" — asserted on satellite-analog data,
    // not just synthetic waves, for the host fast drivers that stand in
    // for the PE array's data-parallel sweep.
    let seq = hurricane_frederic_analog(64, 2, 7);
    let cfg = SmaConfig {
        model: MotionModel::SemiFluid,
        nz: 2,
        nzs: 2,
        nzt: 3,
        nss: 1,
        nst: 2,
    };
    let frames = SmaFrames::prepare(
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
    let s = track_all_sequential(&frames, &cfg, region).expect("track");

    // The moment fast path on the same real Fsemi scene: most interior
    // pixels are near-ties here, re-routed through the banded exact
    // re-evaluation. Displacements match the sequential reference
    // everywhere, and every re-routed pixel's whole estimate matches it
    // to the bit.
    type Driver = fn(&SmaFrames, &SmaConfig, Region) -> Result<SmaResult, SmaError>;
    let (w, h) = frames.dims();
    for (name, driver) in [
        ("simd", track_all_simd as Driver),
        ("planner", track_all_planner),
    ] {
        // A 1-px telemetry atlas records exactly which pixels re-routed.
        sma_obs::atlas::arm(w, h, 1);
        let m = driver(&frames, &cfg, region).expect("track");
        let snap = sma_obs::atlas::snapshot().expect("atlas armed");
        sma_obs::atlas::disarm();
        let near_tie = snap.plane(sma_obs::atlas::AtlasChannel::NearTie);
        let mut ties = 0usize;
        for (x, y) in s.region.pixels() {
            let (a, b) = (s.estimates.at(x, y), m.estimates.at(x, y));
            assert_eq!(a.valid, b.valid, "{name} validity at ({x},{y})");
            assert_eq!(a.displacement, b.displacement, "{name} at ({x},{y})");
            if near_tie[y * w + x] > 0 {
                ties += 1;
                assert_eq!(bits(&a), bits(&b), "{name} near-tie pixel ({x},{y})");
            }
        }
        assert!(ties > 0, "{name} re-routed no near-tie on the Fsemi scene");
    }
}

/// Every field of an estimate as raw bits.
fn bits(e: &MotionEstimate) -> Vec<u64> {
    let a = &e.affine;
    let params = [
        a.ai, a.bi, a.aj, a.bj, a.ak, a.bk, a.x0, a.y0, a.z0, e.error,
    ];
    let mut out: Vec<u64> = params.iter().map(|v| v.to_bits()).collect();
    out.push(u64::from(e.displacement.u.to_bits()));
    out.push(u64::from(e.displacement.v.to_bits()));
    out.push(u64::from(e.valid));
    out
}
