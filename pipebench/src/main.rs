//! `pipebench`: the SMA paper pipeline timed end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <frederic_fsemi|frederic_fsemi_nzs2_nzt3|luis_stream|florida_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures for `--seconds` with instrumentation off and
//! prints the end-to-end metrics; `--trace 1` prints the per-layer ones.
//! Either way the last stdout line is the JSON result, and the exit code
//! is non-zero if any correctness check failed. See `README.md`.

mod report;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;

use report::{metric, peak_rss_mb, result_line, Metric};
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or(
        "--workload is required (frederic_fsemi, frederic_fsemi_nzs2_nzt3, luis_stream or florida_stream)"
            .to_string(),
    )?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// The end-to-end metrics of a timed run, in `BENCHMARK.json` order.
/// Times are scaled to a host of reference speed ([`Timed::host_factor`]);
/// `main` prints the raw ones beside them.
///
/// [`Timed::host_factor`]: workload::Timed::host_factor
fn end_to_end(t: &workload::Timed) -> Vec<Metric> {
    let f = t.host_factor();
    vec![
        metric("pair_p50_s", "s", stats::median(&t.pair_s) * f),
        metric("pairs_per_s", "1/s", t.pairs_completed as f64 / t.run_s / f),
        metric("setup_s", "s", stats::median(&t.setup_s) * f),
        metric("dense_rms_px", "px", t.accuracy.dense_rms()),
        metric("valid_frac", "frac", t.accuracy.valid_frac()),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
}

/// Pin glibc's allocator in the regime its dynamic thresholds settle
/// into in a long-running process: buffers of a few MiB come from the
/// heap and freed memory stays there for the next pair. Left dynamic,
/// each process's allocation history decides when that regime starts:
/// two `luis_stream` seeds ran at 34% and 3% kernel time, a 1.5x gap in
/// pair latency that followed the seed, not the code, because one of
/// them returned the matcher's freed buffers to the kernel after every
/// pair. Returns whether the allocator accepted both settings.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only updates glibc's allocator tunables under the
    // allocator's own lock; it is called before this process starts any
    // thread, with documented parameters and in-range values (32 MiB is
    // the largest mmap threshold glibc accepts on 64-bit targets).
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() -> bool {
    false
}

fn main() -> ExitCode {
    let allocator_pinned = pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every timed number assumes instrumentation off; a stray SMA_OBS
    // would inflate them, so refuse to run rather than report it.
    let level = sma_obs::level();
    if level != sma_obs::ObsLevel::Off {
        eprintln!("pipebench: obs level is {level:?} (SMA_OBS set); timings need Off");
        return ExitCode::from(2);
    }
    let w = args.workload;
    println!(
        "pipebench workload={} seed={} (default {}, held out {}) seconds={} trace={} obs_level=off cpus={} allocator_pinned={allocator_pinned}",
        w.name(),
        args.seed,
        w.default_seed(),
        w.held_out_seed(),
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let (tally, metrics) = if args.trace {
        let t = traced::run_traced(w, args.seed, args.seconds);
        t.lines.iter().for_each(|l| println!("{l}"));
        print_metrics(&t.metrics);
        (t.tally, t.metrics)
    } else {
        let t = workload::run_timed(w, args.seed, args.seconds);
        let metrics = end_to_end(&t);
        print_metrics(&metrics);
        match stats::tail(&t.all_pair_s) {
            Some(tail) => println!(
                "pair_tail_s = {} s (p{} of {} pair latencies over every round, {} beyond)",
                tail.value, tail.percentile, tail.samples, tail.beyond
            ),
            None => println!(
                "pair_tail_s omitted: {} pair latencies, fewer than {} beyond any percentile",
                t.all_pair_s.len(),
                stats::TAIL_MIN_BEYOND
            ),
        }
        println!(
            "tracer_rms_px = {} px (32 tracers a pair; every pair is checked against 1 px)",
            t.accuracy.tracer_rms()
        );
        println!("fail_frac = {} frac", t.tally.fail_frac());
        let (q1, r, q3) = stats::quartiles(&t.reference_s);
        println!(
            "host: reference kernel {r} s (q1 {q1}, q3 {q3}, n={}), factor {} to a {} s host; as measured: pair_p50_s = {} s, pairs_per_s = {} 1/s, setup_s = {} s",
            t.reference_s.len(),
            t.host_factor(),
            workload::REFERENCE_NOMINAL_S,
            stats::median(&t.pair_s),
            t.pairs_completed as f64 / t.run_s,
            stats::median(&t.setup_s),
        );
        println!(
            "kernel_time_frac = {:.4} frac (system CPU time over all CPU time of this process)",
            report::kernel_time_frac()
        );
        println!(
            "scenes = {} rounds = {} distinct pairs = {} (latency: median of each pair's rounds; accuracy: every distinct pair)",
            w.scenes(),
            t.rounds,
            t.pair_s.len(),
        );
        (t.tally, metrics)
    };
    for r in &tally.reasons {
        println!("{r}");
    }
    println!("{}", result_line(&tally, &metrics));
    if tally.is_correct(&metrics) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each entry of one `BENCHMARK.json` list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start..start + text[start..].find(']').expect("list closed")];
        let field = |entry: &str, key: &str| {
            let k = entry.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
            let rest = &entry[k..];
            let open = rest.find('"').expect("value") + 1;
            rest[open..open + rest[open..].find('"').expect("quoted")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn names(ms: &[Metric]) -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn timed_metrics_match_the_declared_end_to_end_list() {
        let t = workload::Timed::default();
        assert_eq!(names(&end_to_end(&t)), declared("end_to_end"));
    }

    #[test]
    fn traced_metrics_match_the_declared_per_layer_list() {
        // The counting pass and audit run for real on the cheapest
        // workload; every declared metric must be present with its unit.
        let t = traced::run_traced(Workload::LuisStream, 3, 0.0);
        assert_eq!(names(&t.metrics), declared("per_layer"));
        assert_eq!(t.tally.failed, 0, "{:?}", t.tally.reasons);
        let line = result_line(&t.tally, &t.metrics);
        for (name, unit) in declared("per_layer") {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }
}
