//! The workloads and the timed (untraced) run.
//!
//! A run holds a fixed number of distinct scenes, each generated from
//! `(seed, scene index)` outside every timer, and executes them in
//! rounds. A *pass* is one execution of one scene: it sets the pipeline
//! up [`SETUP_REPEATS`] times, then streams or pairs through the scene.
//! What is checked and scored is fixed by the seed, so `attempted`,
//! `failed` and the accuracy metrics repeat exactly for a seed whatever
//! the host speed; only the number of rounds follows the clock.

use std::time::Instant;

use sma_core::sequential::{Region, SmaResult};
use sma_core::{track_all_planner, MotionModel, SmaConfig, SmaFrames};
use sma_grid::Grid;
use sma_satdata::{
    florida_thunderstorm_analog, hurricane_frederic_analog, hurricane_luis_analog, SceneSequence,
    StereoPair,
};
use sma_stereo::{Asa, AsaConfig};
use sma_stream::{sequence_frames, StreamEngine};

use crate::report::{result_fingerprint, score_pair, Accuracy, Failure, Tally};
use crate::stats::median;

/// Frame edge of every workload (the paper's scenes are 512²; 96² keeps
/// a Frederic Fsemi pair near ten seconds on one core).
pub const SIZE: usize = 96;

/// Rounds every run completes.
pub const MIN_ROUNDS: usize = 1;

/// What [`reference_s`] takes on a host of reference speed. Reported
/// times are scaled to such a host; see [`Timed::host_factor`].
pub const REFERENCE_NOMINAL_S: f64 = 0.010;

/// Set-ups timed per pass; the run reports the median over all of them.
pub const SETUP_REPEATS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hurricane Frederic analog, stereo, ASA heights, Fsemi, pairwise.
    FredericFsemi,
    /// As [`Workload::FredericFsemi`] with search radius 2 and a 7² template
    /// (`nzs 2, nzt 3`), so a pair costs a fifth as much.
    FredericFsemiNzt3,
    /// Hurricane Luis analog, monocular rapid scan, Fcont, streamed.
    LuisStream,
    /// GOES-9 Florida thunderstorm analog, Fcont, streamed.
    FloridaStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FredericFsemi,
        Workload::FredericFsemiNzt3,
        Workload::LuisStream,
        Workload::FloridaStream,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FredericFsemi => "frederic_fsemi",
            Workload::FredericFsemiNzt3 => "frederic_fsemi_nzs2_nzt3",
            Workload::LuisStream => "luis_stream",
            Workload::FloridaStream => "florida_stream",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed used when `--seed` is not given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FredericFsemi | Workload::FredericFsemiNzt3 => 1979,
            Workload::LuisStream => 1995,
            Workload::FloridaStream => 1996,
        }
    }

    /// A seed kept out of tuning, to confirm the checks hold on a scene
    /// nobody looked at while the benchmark was written.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::FredericFsemi | Workload::FredericFsemiNzt3 => 424_242,
            Workload::LuisStream => 777_001,
            Workload::FloridaStream => 31_337,
        }
    }

    /// The SMA configuration: Frederic's is `tests/pipeline_frederic.rs`'s
    /// Fsemi setting (search radius 3, template radius 5), or radii 2 and 3
    /// for the smaller variant; the streams use the paper's Luis and
    /// Table 3 ones.
    pub fn config(self) -> SmaConfig {
        let frederic = |nzs, nzt| SmaConfig {
            model: MotionModel::SemiFluid,
            nz: 2,
            nzs,
            nzt,
            nss: 1,
            nst: 2,
        };
        match self {
            Workload::FredericFsemi => frederic(3, 5),
            Workload::FredericFsemiNzt3 => frederic(2, 3),
            Workload::LuisStream => SmaConfig::hurricane_luis(),
            Workload::FloridaStream => SmaConfig::goes9_florida(),
        }
    }

    /// The tracked region: every pixel whose windows fit, plus two.
    pub fn region(self) -> Region {
        Region::Interior {
            margin: self.margin(),
        }
    }

    /// Border margin of [`Workload::region`].
    pub fn margin(self) -> usize {
        self.config().margin() + 2
    }

    /// True for the stereo workloads (ASA heights, pairwise preparation).
    pub fn is_stereo(self) -> bool {
        matches!(self, Workload::FredericFsemi | Workload::FredericFsemiNzt3)
    }

    /// Distinct scenes per run. A `frederic_fsemi` pair takes 8 to 15 s,
    /// a `frederic_fsemi_nzs2_nzt3` pair 1.5 to 3 s, and a stream pass
    /// about a second.
    pub fn scenes(self) -> usize {
        match self {
            Workload::FredericFsemi => 4,
            _ => 12,
        }
    }

    /// Frames per pass: one stereo pair for Frederic, a short rapid-scan
    /// sequence for the streams.
    pub fn frames_per_pass(self) -> usize {
        if self.is_stereo() {
            2
        } else {
            12
        }
    }

    /// The scene sequence of one pass.
    pub fn scene(self, seed: u64, frames: usize) -> SceneSequence {
        match self {
            Workload::FredericFsemi | Workload::FredericFsemiNzt3 => {
                hurricane_frederic_analog(SIZE, frames, seed)
            }
            Workload::LuisStream => hurricane_luis_analog(SIZE, frames, seed),
            Workload::FloridaStream => florida_thunderstorm_analog(SIZE, frames, seed),
        }
    }
}

/// The scene seed of scene `scene` of a run seeded `seed` (splitmix64),
/// so each scene brings a fresh cloud texture.
pub fn pass_seed(seed: u64, scene: usize) -> u64 {
    let mut z = seed ^ (scene as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The tracer-selection seed of pair `t` of scene `scene`, shared by the
/// timed and traced runs so both score a pair at the same tracers.
pub fn tracer_seed(scene: usize, t: usize) -> u64 {
    pass_seed(scene as u64, t)
}

/// Cloud-top heights from one stereo view pair through ASA.
pub fn asa_heights(asa: &Asa, views: &StereoPair) -> Grid<f32> {
    views.disparity_to_height(&asa.run(&views.left, &views.right).disparity)
}

/// One execution of a scene: its set-ups, each pair's latency, the wall
/// time of its pairs, and each pair's result.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Per-pair latency, seconds, in pair order.
    pub pair_s: Vec<f64>,
    /// Wall time producing the pairs, seconds (set-up excluded).
    pub run_s: f64,
    /// Each pair's wind field, or why there is none.
    pub results: Vec<Result<SmaResult, String>>,
}

/// What a timed run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-pair latency, seconds: for each distinct pair, the median of
    /// its rounds.
    pub pair_s: Vec<f64>,
    /// Every pair latency of every round, for the tail.
    pub all_pair_s: Vec<f64>,
    /// Every set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Pair time of one round over every scene, seconds: the sum over
    /// scenes of the median of each scene's rounds (set-up excluded).
    pub run_s: f64,
    /// Distinct pairs that produced a correct wind field; one that only
    /// missed the accuracy criterion still counts.
    pub pairs_completed: u64,
    /// Accuracy pooled over every distinct pair.
    pub accuracy: Accuracy,
    /// Every distinct pair, attempted once however many rounds ran.
    pub tally: Tally,
    /// Rounds run; each round executes every scene once.
    pub rounds: usize,
    /// [`reference_s`] before every pass.
    pub reference_s: Vec<f64>,
}

impl Timed {
    /// How much faster than measured this run's times would have been
    /// on a host of reference speed: [`REFERENCE_NOMINAL_S`] over the
    /// median [`reference_s`] of the run. A shared host slows down by up
    /// to 1.7x for minutes at a time; the reference kernel slows down
    /// with it, so a time multiplied by this factor keeps what the
    /// program did and drops most of what the host did.
    pub fn host_factor(&self) -> f64 {
        REFERENCE_NOMINAL_S / median(&self.reference_s)
    }
}

/// Per scene of a run: the times of every round and the first round's
/// checked output.
struct Scene {
    /// Each pair's latency in every round.
    pair_s: Vec<Vec<f64>>,
    /// The scene's pair time in every round.
    run_s: Vec<f64>,
    /// Fingerprint of each pair's first-round result (`None`: errored).
    first: Vec<Option<u64>>,
    /// Each pair's outcome; a later round that differs makes it wrong.
    outcome: Vec<Result<(), Failure>>,
}

/// The timed run. A run holds [`Workload::scenes`] distinct scenes and
/// executes them in rounds, every scene once per round, for at least
/// [`MIN_ROUNDS`] rounds and while another round fits in `seconds` of
/// measured time. A pair's latency is the median of its rounds; the
/// first round's outputs are scored against truth, and every later
/// round must reproduce them bit for bit.
pub fn run_timed(w: Workload, seed: u64, seconds: f64) -> Timed {
    run_rounds(w, seed, seconds, w.region())
}

/// [`run_timed`] over `region` instead of the workload's own.
fn run_rounds(w: Workload, seed: u64, seconds: f64, region: Region) -> Timed {
    let mut out = Timed::default();
    let mut scenes: Vec<Scene> = Vec::new();
    let mut measured = 0.0;
    while out.rounds < MIN_ROUNDS
        || measured * (out.rounds + 1) as f64 / out.rounds as f64 <= seconds
    {
        for u in 0..w.scenes() {
            let seq = w.scene(pass_seed(seed, u), w.frames_per_pass());
            out.reference_s.push(reference_s());
            let pass = if w.is_stereo() {
                stereo_pass(&seq, w, region)
            } else {
                stream_pass(&seq, w, region)
            };
            measured += pass.run_s + pass.setup_s.iter().sum::<f64>();
            out.setup_s.extend(&pass.setup_s);
            out.all_pair_s.extend(&pass.pair_s);
            if out.rounds == 0 {
                scenes.push(first_round(&mut out.accuracy, &seq, w, u, pass));
            } else {
                later_round(&mut scenes[u], pass);
            }
        }
        out.rounds += 1;
    }
    for (u, sc) in scenes.into_iter().enumerate() {
        out.pair_s.extend(sc.pair_s.iter().map(|r| median(r)));
        out.run_s += median(&sc.run_s);
        for (t, outcome) in sc.outcome.into_iter().enumerate() {
            out.pairs_completed += u64::from(!matches!(outcome, Err(Failure::Wrong(_))));
            out.tally
                .record(outcome.map_err(|e| e.within(&format!("scene {u} pair {t}"))));
        }
    }
    out
}

/// Score the first round of scene `u` against truth and remember its
/// outputs.
fn first_round(
    acc: &mut Accuracy,
    seq: &SceneSequence,
    w: Workload,
    u: usize,
    pass: Pass,
) -> Scene {
    let mut first = Vec::new();
    let mut outcome = Vec::new();
    for (t, r) in pass.results.into_iter().enumerate() {
        let (a, check) = match r {
            Ok(r) => {
                first.push(Some(result_fingerprint(&r)));
                score_pair(
                    &r,
                    &seq.frames[t].intensity,
                    &seq.truth_flows[t],
                    w.margin(),
                    tracer_seed(u, t),
                )
            }
            Err(e) => {
                first.push(None);
                (Accuracy::default(), Err(Failure::Wrong(e)))
            }
        };
        acc.add(&a);
        outcome.push(check);
    }
    Scene {
        pair_s: pass.pair_s.iter().map(|&s| vec![s]).collect(),
        run_s: vec![pass.run_s],
        first,
        outcome,
    }
}

/// Fold a later round of a scene in: add its times, and make a pair
/// wrong if its output differs from the first round's.
fn later_round(sc: &mut Scene, pass: Pass) {
    sc.run_s.push(pass.run_s);
    for (times, &s) in sc.pair_s.iter_mut().zip(&pass.pair_s) {
        times.push(s);
    }
    for (t, r) in pass.results.into_iter().enumerate() {
        let again = r.ok().map(|r| result_fingerprint(&r));
        if again != sc.first[t] && !matches!(sc.outcome[t], Err(Failure::Wrong(_))) {
            sc.outcome[t] = Err(Failure::Wrong("a later round gave another output".into()));
        }
    }
}

/// Seconds a fixed, program-independent kernel takes: sums of products
/// of a 96² plane against 25 shifted copies of another, the shape of a
/// matcher's inner loop. Timed between passes, it shows how fast the
/// host ran at that moment.
pub fn reference_s() -> f64 {
    let a: Vec<f32> = (0..SIZE * SIZE)
        .map(|i| ((i * 7919) % 251) as f32)
        .collect();
    let b: Vec<f32> = (0..SIZE * SIZE)
        .map(|i| ((i * 104_729) % 241) as f32)
        .collect();
    let t0 = Instant::now();
    let mut best = f32::MAX;
    for _ in 0..400 {
        for off in 0..25 {
            let (dx, dy) = (off % 5, off / 5);
            let mut acc = [0.0f32; 8];
            for y in 4..SIZE - 4 {
                let ra = &a[y * SIZE + 2..y * SIZE + SIZE - 6];
                let rb = &b[(y + dy - 2) * SIZE + dx..(y + dy - 2) * SIZE + dx + SIZE - 8];
                for (ca, cb) in ra.chunks_exact(8).zip(rb.chunks_exact(8)) {
                    for k in 0..8 {
                        let d = ca[k] - cb[k];
                        acc[k] += d * d;
                    }
                }
            }
            best = best.min(std::hint::black_box(acc.iter().sum()));
        }
    }
    std::hint::black_box(best);
    t0.elapsed().as_secs_f64()
}

/// One Frederic pass. Set-up is building `Asa` and the first frame's
/// ASA heights; a pair is the next frame's ASA, pairwise
/// `SmaFrames::prepare`, and `track_all_planner`.
fn stereo_pass(seq: &SceneSequence, w: Workload, region: Region) -> Pass {
    let cfg = w.config();
    let mut out = Pass::default();
    let views: Vec<StereoPair> = (0..seq.len())
        .map(|t| seq.stereo_pair(t).expect("Frederic is a stereo sequence"))
        .collect();
    let mut set_up = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let asa = Asa::new(AsaConfig::default());
        let h0 = asa_heights(&asa, &views[0]);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        set_up = Some((asa, h0));
    }
    let (asa, mut h_prev) = set_up.expect("SETUP_REPEATS > 0");
    for t in 0..seq.len() - 1 {
        let t0 = Instant::now();
        let h_next = asa_heights(&asa, &views[t + 1]);
        let result = SmaFrames::prepare(
            &seq.frames[t].intensity,
            &seq.frames[t + 1].intensity,
            &h_prev,
            &h_next,
            &cfg,
        )
        .and_then(|frames| track_all_planner(&frames, &cfg, region));
        let dt = t0.elapsed().as_secs_f64();
        out.pair_s.push(dt);
        out.run_s += dt;
        out.results.push(result.map_err(|e| e.to_string()));
        h_prev = h_next;
    }
    out
}

/// One stream pass. Set-up is building the `StreamEngine` (prefetch on)
/// and the first frame's artifacts; a pair's latency runs from the
/// previous pair's wind field (or the start of `run`) to this one's, so
/// preparation not hidden by prefetch is inside it.
fn stream_pass(seq: &SceneSequence, w: Workload, region: Region) -> Pass {
    let cfg = w.config();
    let mut out = Pass::default();
    let pairs = seq.len() - 1;
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut e =
            StreamEngine::with_goddard_budget(sequence_frames(seq), cfg).with_pipelining(true);
        let first = e.artifacts(0);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        engine = Some(first.map(|_| e));
    }
    let mut engine = match engine.expect("SETUP_REPEATS > 0") {
        Ok(e) => e,
        Err(e) => {
            out.results = vec![Err(format!("set-up: {e}")); pairs];
            out.pair_s = vec![0.0; pairs];
            return out;
        }
    };
    let start = Instant::now();
    let mut last = start;
    let results = engine.run(|_, pair| {
        let r = track_all_planner(pair, &cfg, region);
        let now = Instant::now();
        out.pair_s.push((now - last).as_secs_f64());
        last = now;
        Ok(r)
    });
    out.run_s = start.elapsed().as_secs_f64();
    out.pair_s.resize(pairs, 0.0);
    out.results = match results {
        Ok(rs) => rs
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect(),
        Err(e) => vec![Err(format!("stream: {e}")); pairs],
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::MotionEstimate;
    use sma_grid::WindowBounds;

    #[test]
    fn a_forced_pair_error_is_counted_in_fail_frac() {
        // A region outside the frame makes every pair's matcher return
        // an error; each distinct pair must be attempted and failed once,
        // none dropped, however many rounds ran.
        let w = Workload::LuisStream;
        let outside = Region::Rect(WindowBounds {
            x0: 0,
            y0: 0,
            x1: SIZE,
            y1: SIZE,
        });
        let out = run_rounds(w, 1, 0.0, outside);
        let pairs = w.scenes() * (w.frames_per_pass() - 1);
        assert_eq!(out.rounds, MIN_ROUNDS);
        assert_eq!(
            (out.tally.attempted, out.tally.failed),
            (pairs as u64, pairs as u64)
        );
        assert_eq!(out.tally.fail_frac(), 1.0);
        assert_eq!(out.pairs_completed, 0);
        assert_eq!(out.pair_s.len(), pairs, "failed pairs still spent time");
        assert_eq!(out.all_pair_s.len(), pairs * MIN_ROUNDS);
    }

    #[test]
    fn a_later_round_adds_its_times_and_must_repeat_the_output() {
        let result = |v: f32| {
            let mut estimates = Grid::filled(8, 8, MotionEstimate::invalid());
            let mut e = estimates.at(5, 6);
            e.displacement.u = v;
            estimates.set(5, 6, e);
            let region = WindowBounds {
                x0: 1,
                y0: 1,
                x1: 7,
                y1: 7,
            };
            SmaResult { estimates, region }
        };
        let pass = |s: f64, rs: Vec<Result<SmaResult, String>>| Pass {
            setup_s: vec![],
            pair_s: vec![s; rs.len()],
            run_s: s * rs.len() as f64,
            results: rs,
        };
        let mut sc = Scene {
            pair_s: vec![vec![2.0]; 3],
            run_s: vec![6.0],
            first: [0.0, 1.0, 2.0]
                .map(|v| Some(result_fingerprint(&result(v))))
                .to_vec(),
            outcome: vec![Ok(()), Ok(()), Err(Failure::Miss("far".into()))],
        };
        later_round(
            &mut sc,
            pass(1.0, vec![Ok(result(0.0)), Ok(result(1.0)), Ok(result(2.0))]),
        );
        assert_eq!(sc.pair_s, vec![vec![2.0, 1.0]; 3]);
        assert_eq!(sc.run_s, vec![6.0, 3.0]);
        assert!(sc.outcome[0].is_ok() && sc.outcome[1].is_ok());
        later_round(
            &mut sc,
            pass(
                4.0,
                vec![Ok(result(0.0)), Ok(result(1.5)), Err("gone".into())],
            ),
        );
        assert_eq!(sc.pair_s, vec![vec![2.0, 1.0, 4.0]; 3]);
        assert_eq!(median(&sc.run_s), 6.0);
        assert!(sc.outcome[0].is_ok());
        assert!(
            matches!(sc.outcome[1], Err(Failure::Wrong(_))),
            "changed output"
        );
        assert!(
            matches!(sc.outcome[2], Err(Failure::Wrong(_))),
            "errored repeat"
        );
    }

    #[test]
    fn host_factor_scales_times_to_the_reference_host() {
        let factor = |r: &[f64]| {
            Timed {
                reference_s: r.to_vec(),
                ..Timed::default()
            }
            .host_factor()
        };
        assert_eq!(factor(&[REFERENCE_NOMINAL_S; 3]), 1.0);
        assert_eq!(factor(&[0.5, 2.0 * REFERENCE_NOMINAL_S, 0.001]), 0.5);
        assert!(reference_s() > 0.0);
    }

    #[test]
    fn workload_names_round_trip_and_pass_seeds_differ() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("wavy"), None);
        assert_ne!(pass_seed(1, 0), pass_seed(1, 1));
        assert_ne!(pass_seed(1, 0), pass_seed(2, 0));
    }
}
