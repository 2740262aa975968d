//! `concilium-perfbench`: end-to-end and per-layer benchmark of the
//! Concilium workspace.
//!
//! ```text
//! concilium-perfbench --workload dst-sweep|paper-world|serve-overload
//!                     --seed N --seconds S --trace 0|1 [size options]
//! ```
//!
//! One process runs one workload with one worker: set-up, then whole rounds
//! of the workload's stage until `--seconds` of stage time have passed, then
//! correctness checks. The last line of standard output is a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` beside this package for the workloads and metrics.

mod bfs;
mod dst;
mod mem;
mod metrics;
mod paper;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use metrics::Report;
use spans::Recorder;

/// Command-line options; every input size is one of them.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Minimum stage time of one run.
    pub seconds: Duration,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// Seed of the world the episodes or figures run on
    /// (default: 77 for `dst-sweep`, 2007 for `paper-world`).
    pub world_seed: Option<u64>,
    /// Set-ups per run; the median is reported (default 21; `paper-world`
    /// builds its world once).
    pub setups: usize,
    /// `dst-sweep`: episodes per grid arm in one round.
    pub seeds_per_arm: u64,
    /// `paper-world`: hosts whose forests Fig. 4 assembles.
    pub hosts: usize,
    /// `paper-world`: Fig. 5 triples per panel.
    pub triples: usize,
    /// `serve-overload`: reports offered per round.
    pub reports: usize,
    /// `serve-overload`: offered load relative to saturation.
    pub load: f64,
    /// Also print the reference figures recorded in the README.
    pub reference: bool,
    /// Traced runs: write every span here as JSON lines when the run ends.
    pub spans_out: Option<String>,
}

const USAGE: &str = "usage: concilium-perfbench --workload dst-sweep|paper-world|serve-overload \
--seed N --seconds S --trace 0|1 [--world-seed N] [--setups N] [--seeds-per-arm N] \
[--hosts N] [--triples N] [--reports N] [--load X] [--reference] [--spans-out PATH]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: Duration::ZERO,
        trace: false,
        world_seed: None,
        setups: 21,
        seeds_per_arm: 256,
        hosts: 200,
        triples: 60_000,
        reports: 131_072,
        load: 2.0,
        reference: false,
        spans_out: None,
    };
    let (mut seen_seed, mut seen_seconds, mut seen_trace) = (false, false, false);
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} expects a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: invalid value {v:?}"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = num("--workload", argv.next())?,
            "--seed" => {
                args.seed = num("--seed", argv.next())?;
                seen_seed = true;
            }
            "--seconds" => {
                let s: f64 = num("--seconds", argv.next())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                args.seconds = Duration::from_secs_f64(s);
                seen_seconds = true;
            }
            "--trace" => {
                args.trace = match argv.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                };
                seen_trace = true;
            }
            "--world-seed" => args.world_seed = Some(num("--world-seed", argv.next())?),
            "--setups" => args.setups = num("--setups", argv.next())?,
            "--seeds-per-arm" => args.seeds_per_arm = num("--seeds-per-arm", argv.next())?,
            "--hosts" => args.hosts = num("--hosts", argv.next())?,
            "--triples" => args.triples = num("--triples", argv.next())?,
            "--reports" => args.reports = num("--reports", argv.next())?,
            "--load" => args.load = num("--load", argv.next())?,
            "--reference" => args.reference = true,
            "--spans-out" => args.spans_out = Some(num("--spans-out", argv.next())?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seen_seed && seen_seconds && seen_trace) || args.workload.is_empty() {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    if args.setups == 0 || args.seeds_per_arm == 0 || args.hosts == 0 || args.triples == 0 {
        return Err("sizes must be positive".into());
    }
    if args.reports == 0 || !(args.load.is_finite() && args.load > 0.0) {
        return Err("--reports and --load must be positive".into());
    }
    Ok(args)
}

/// Runs `round` until the stage time it reports adds up to `seconds` (and
/// at least once), returning each round's stage time. The closure gets the
/// round index and returns the seconds its timed work took, which leaves
/// its correctness checks out of the count.
pub fn rounds(seconds: Duration, mut round: impl FnMut(u64) -> f64) -> Vec<f64> {
    let mut times = Vec::new();
    while times.is_empty() || times.iter().sum::<f64>() < seconds.as_secs_f64() {
        times.push(round(times.len() as u64));
    }
    times
}

/// The passes of one round, `true` meaning traced: the untraced pass alone,
/// or in a traced run both, untraced first on even rounds and traced first
/// on odd ones, so that order effects (warm caches, reused pages) cancel out
/// of the tracing overhead.
pub fn passes(traced_run: bool, round: u64) -> &'static [bool] {
    match (traced_run, round % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        _ => &[true, false],
    }
}

/// A seed for `stream` derived from the run seed (SplitMix64 finaliser), so
/// that the workload's inputs depend on `--seed` alone.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("concilium-perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut rec = Recorder::default();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    match args.workload.as_str() {
        "dst-sweep" => dst::run(&args, &mut report, &mut rec),
        "paper-world" => paper::run(&args, &mut report, &mut rec),
        "serve-overload" => serve::run(&args, &mut report, &mut rec),
        other => {
            eprintln!("concilium-perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if !args.trace {
        report.set("peak_rss_mb", mem::peak_rss_mb());
    }
    if let Some(path) = &args.spans_out {
        if let Err(err) = std::fs::write(path, rec.to_jsonl()) {
            eprintln!("concilium-perfbench: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
    }
    match report.to_json(args.trace) {
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("concilium-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_required_arguments() {
        let a = parse("--workload dst-sweep --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("dst-sweep", 7, true)
        );
        assert_eq!(a.seconds, Duration::from_secs(10));
        let a =
            parse("--workload serve-overload --seed 1 --seconds 2 --trace 0 --reports 64").unwrap();
        assert_eq!((a.reports, a.trace), (64, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload dst-sweep --seed 7 --seconds 10").is_err());
        assert!(parse("--workload dst-sweep --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload dst-sweep --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload dst-sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload dst-sweep --seed 1 --seconds 1 --trace 0 --bogus").is_err());
        assert!(parse("--workload dst-sweep --seed 1 --seconds 1 --trace 0 --hosts 0").is_err());
    }

    #[test]
    fn rounds_run_whole_rounds_past_the_deadline() {
        let mut seen = Vec::new();
        let times = rounds(Duration::from_millis(5), |r| {
            seen.push(r);
            0.002
        });
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!(times, [0.002; 3]);
        assert_eq!(rounds(Duration::from_nanos(1), |_| 1.0).len(), 1);
    }

    #[test]
    fn traced_rounds_alternate_the_pass_order() {
        assert_eq!(passes(false, 1), [false]);
        assert_eq!(passes(true, 0), [false, true]);
        assert_eq!(passes(true, 1), [true, false]);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
    }
}
