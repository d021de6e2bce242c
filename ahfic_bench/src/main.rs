//! `ahfic_bench`: the benchmark of the AHFIC workspace, end to end and
//! layer by layer.
//!
//! # Running
//!
//! ```text
//! cargo run --release --offline --manifest-path ahfic_bench/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace 0|1 | --traced] [--quick]
//! cargo run --release --offline --manifest-path ahfic_bench/Cargo.toml -- \
//!     --compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! With `--workload`, one workload runs in this process: set-up, then
//! timed units until `--seconds` (default 10) have passed. Without it,
//! every workload runs in turn, each in a child process of this binary,
//! so `peak_rss_mb` is per workload. `--quick` runs one set-up and one
//! unit per workload (20 batches on the tuner workloads), as a smoke
//! test. `--compare` labels each end-to-end metric of each workload
//! against the bounds in `BENCHMARK.json` (see [`compare`]);
//! `ahfic_bench/baseline.jsonl` holds the detail lines of the runs the
//! bounds were set from (see Bounds), as a parent to compare against.
//!
//! A run prints one detail line per workload — every metric by name,
//! unit, value, median, p10/p90 and sample count — and, with
//! `--workload`, a last line `{"correct", "attempted", "failed",
//! "metrics"}` holding the end-to-end metrics (untraced) or the
//! per-layer metrics (`--trace 1`). Any correctness miss makes the exit
//! status non-zero.
//!
//! The harness drives the program only through the public APIs of
//! `ahfic-rf`, `ahfic`, `ahfic-spice` and `ahfic-serve`, and reads only
//! the spans and counters the program already emits.
//!
//! # Workloads
//!
//! Two families that stress different layers: the paper's results, which
//! are transient-, behavioral- and small-signal-bound, and a tuner's
//! closed-loop traffic through the job queue, which is parse-, cache-
//! and dispatch-bound.
//!
//! | name | unit of work | why |
//! |---|---|---|
//! | `table1_ring` | Table 1: six 30 ns ring transients at 2.5 ps on the 87-unknown ECL ring | Transient-bound: step control, device evaluation and sparse LU; parse and compile are negligible. |
//! | `fig5_irr` | Fig. 5: 10 phase × 5 gain AHDL points (2 µs each), then four transistor-level IRRs by shooting PSS + PAC | The only workload on the behavioral simulator and on PSS/PAC. |
//! | `yield_mc` | one 10,000-sample yield study, 1% open-R1 defects, default (sequential) options | ~20k tiny op + AC calls on a 4-unknown deck: per-call overhead, not LU; defects exercise the lint-reject path. |
//! | `tuner_hot` | one `JobQueue::run` batch of 32 netlist jobs (24 op, 6 60-point AC, 2 50 ns transients, in seeded order) on seeded deck variants out of 4 | Every deck is cached: warm-started analyses, dispatch and the per-job parse. |
//! | `tuner_churn` | as `tuner_hot`, over 256 variants (4× the 64-deck cache) | ~1 job in 4 hits: lint, compile, eviction and cold starts. A cache or compile change that helps one tuner workload and costs the other shows up. |
//!
//! `--seed` drives the yield study's seed and the tuner's job order and
//! variants; the two paper sweeps have fixed inputs. The queue runs one
//! worker (see `tuner::WORKERS` for why).
//!
//! # End-to-end metrics (untraced runs)
//!
//! - `setup_s`: building inputs, compiling decks and an untimed,
//!   checked warm-up. Set-up is repeated between timed units, keeping
//!   its total near a tenth of the run (at least 5 times), and the
//!   fastest is reported, so work moved into set-up shows.
//! - `pass_s`: wall time of one unit, as the sum over its parts (a ring,
//!   an IRR point, a study, a batch) of each part's fastest time in the
//!   run.
//! - `ops_per_s`: operations per unit that completed and passed their
//!   checks, over `pass_s`: ring transients, IRR points, yield samples
//!   (lint rejections of defects are expected outcomes) or jobs.
//! - `peak_rss_mb`: the process's `VmHWM`.
//!
//! Why fastest and not median: the benchmark was defined on a 2-vCPU
//! virtual machine whose host slows it, invisibly to the guest (no steal
//! time, no run-queue wait), by up to 1.8× for seconds to minutes at a
//! time. Over ten seeds in such a spell the spread (interquartile
//! distance over median) of the median unit time reached 29% on
//! `fig5_irr` and 60% on `tuner_hot`, against 2.6–5.7% for the sum of
//! part minima on every workload. The workloads are deterministic
//! computations, so the fastest time is their cost with the least
//! interference; how the time is spread shows in the detail line's
//! `median`, `p10`, `p90` and `n` of `setup_s` and `pass_s` (over whole
//! units), in `tail_s` and in `mean_ops_per_s`.
//!
//! The detail line adds, ungated: `tail_s` (unit time at the highest
//! percentile with at least ten units beyond it, capped at p99 and
//! floored at the median), `p99_s` (from 1,000 units), `mean_ops_per_s`
//! (over the whole timed window), `failed_frac`, `startup_s` (process
//! start to the first timed unit) and `sched_wait_frac` (run-queue wait
//! of the main thread over wall time; above 5% the run is flagged
//! `contended` and `--compare` skips it). The tail and mean metrics are
//! ungated because they follow the host's slow spells.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Traced and untraced units alternate. Traced units install one
//! in-memory sink per unit (per job on the tuner workloads, so each sink
//! holds one thread's nested spans). Counts and seconds are per unit.
//! See [`layers`] for the layer list; `self_s` is a span's time minus
//! its nested spans and its own factor and solve seconds. The queue
//! parses and compiles inside each job, where no span covers the work,
//! so the harness replays those calls on the same texts outside the
//! queue. `traced_pass_s` is `pass_s` of the traced units;
//! `trace_overhead_frac` is `traced_pass_s` over `pass_s`, minus 1;
//! `layer_sum_frac` is the layer seconds over the traced units' time.
//!
//! # Bounds
//!
//! `BENCHMARK.json` fixes, per end-to-end metric, the share of the
//! parent's median by which it may worsen. On the 2-vCPU virtual machine
//! the benchmark was defined on, two sets of ten seeds per workload (20 s
//! runs) gave these spreads (interquartile distance over median, one
//! figure per set) and shifts of the second set's median:
//!
//! | workload | `pass_s` spread | shift | `setup_s` spread | shift |
//! |---|---|---|---|---|
//! | `table1_ring` | 5.4%, 13.1% | −8.0% | 11.9%, 11.2% | −11.6% |
//! | `fig5_irr` | 4.3%, 5.6% | −6.4% | 8.2%, 5.0% | −6.1% |
//! | `yield_mc` | 2.7%, 4.2% | −4.0% | 4.0%, 4.1% | −4.5% |
//! | `tuner_hot` | 3.4%, 3.7% | −9.0% | 3.8%, 2.9% | −8.3% |
//! | `tuner_churn` | 4.0%, 6.8% | −4.5% | 3.3%, 6.9% | −3.0% |
//!
//! The host's slow spells move even the fastest times by up to ~20%
//! between runs minutes apart, so `setup_s`, `pass_s` and `ops_per_s`
//! take the largest bound allowed, 25%. `peak_rss_mb` (spread at most
//! 3.8%, shift at most 2%) takes 15%.

mod compare;
mod layers;
mod paper;
mod stats;
mod tuner;

use layers::Layers;
use stats::{best_of_parts, fastest, ratio, summarize};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "table1_ring",
    "fig5_irr",
    "yield_mc",
    "tuner_hot",
    "tuner_churn",
];

/// Set-up repeats between timed units whenever its total time falls
/// below this share of the time measured so far, so the repeats spread
/// over the whole run rather than all landing in one slow spell of a
/// shared machine...
const SETUP_SHARE: f64 = 0.1;
/// ...and at least this many times (topped up at the end of the run).
const SETUP_MIN_REPS: usize = 5;
/// Run-queue wait above this share of wall time marks a run contended.
const CONTENDED_WAIT: f64 = 0.05;

/// What one timed unit did.
pub struct Unit {
    /// Wall seconds of each timed part of the unit (one ring, one IRR
    /// point, one study, one batch), in the same order in every unit.
    pub parts: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Unexpected errors plus correctness-check misses.
    pub failed: u64,
}

impl Unit {
    /// A unit; `failed` is clamped to `attempted`.
    pub fn new(parts: Vec<f64>, attempted: u64, failed: u64) -> Self {
        Unit {
            parts,
            attempted,
            failed: failed.min(attempted),
        }
    }

    /// Wall seconds of the whole unit.
    pub fn seconds(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// One benchmark workload, already set up.
pub trait Workload {
    /// Runs and checks one unit. With `layers`, the unit is traced and
    /// its per-layer quantities are added there.
    fn unit(&mut self, layers: Option<&mut Layers>) -> Unit;

    /// Units a `--quick` run times.
    fn quick_units(&self) -> usize {
        1
    }
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table1_ring" => Box::new(paper::Table1::setup()?),
        "fig5_irr" => Box::new(paper::Fig5::setup()?),
        "yield_mc" => Box::new(paper::YieldMc::setup(seed)?),
        "tuner_hot" => Box::new(tuner::Tuner::setup("tuner_hot", seed, tuner::HOT_VARIANTS)?),
        "tuner_churn" => Box::new(tuner::Tuner::setup(
            "tuner_churn",
            seed,
            tuner::CHURN_VARIANTS,
        )?),
        other => return Err(format!("unknown workload {other}")),
    })
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1996,
        seconds: 10.0,
        traced: false,
        quick: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; expected one of {WORKLOADS:?}"
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Times of a run's units, whole and by part.
#[derive(Default)]
struct Timings {
    units: Vec<f64>,
    /// `parts[k][u]`: part `k` of unit `u`.
    parts: Vec<Vec<f64>>,
}

impl Timings {
    fn push(&mut self, u: &Unit) {
        self.units.push(u.seconds());
        self.parts.resize_with(u.parts.len(), Vec::new);
        for (times, s) in self.parts.iter_mut().zip(&u.parts) {
            times.push(*s);
        }
    }
}

/// Everything measured after set-up.
#[derive(Default)]
struct Run {
    plain: Timings,
    traced: Timings,
    attempted: u64,
    failed: u64,
    /// Operations of untraced units that completed and passed.
    ok_plain: u64,
    layers: Layers,
    sched_wait_frac: f64,
}

/// Run-queue wait of this thread so far, from `/proc/self/schedstat`.
fn sched_wait_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns * 1e-9)
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times one set-up of `name`.
fn timed_setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    let t0 = Instant::now();
    let w = setup(name, seed)?;
    Ok((w, t0.elapsed().as_secs_f64()))
}

/// Runs units of `w` (and, between them, repeat set-ups of `name`) until
/// the run's time or unit count is reached.
fn measure(w: &mut dyn Workload, a: &Args, name: &str, setups: &mut Vec<f64>) -> Run {
    let mut r = Run::default();
    let t0 = Instant::now();
    let wait0 = sched_wait_s();
    let repeat_setup = |setups: &mut Vec<f64>, r: &mut Run| match timed_setup(name, a.seed) {
        Ok((_, s)) => setups.push(s),
        Err(e) => {
            eprintln!("{name}: repeated set-up failed: {e}");
            r.failed += 1;
        }
    };
    loop {
        let traced = a.traced && r.traced.units.len() < r.plain.units.len();
        let u = w.unit(if traced { Some(&mut r.layers) } else { None });
        r.attempted += u.attempted;
        r.failed += u.failed;
        if traced {
            r.traced.push(&u);
        } else {
            r.plain.push(&u);
            r.ok_plain += u.attempted - u.failed;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if !a.quick && setups.iter().sum::<f64>() < SETUP_SHARE * elapsed {
            repeat_setup(setups, &mut r);
        }
        let units = r.plain.units.len();
        let done = if a.quick {
            units >= w.quick_units()
        } else {
            elapsed >= a.seconds
        };
        if done && (!a.traced || r.traced.units.len() == units) {
            break;
        }
    }
    if !a.quick {
        for _ in setups.len()..SETUP_MIN_REPS {
            repeat_setup(setups, &mut r);
        }
    }
    r.sched_wait_frac = ratio(sched_wait_s() - wait0, t0.elapsed().as_secs_f64());
    r
}

/// One metric of the detail line: its value and, for a timed quantity,
/// the distribution of the samples behind it.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    median: f64,
    p10: f64,
    p90: f64,
    n: usize,
}

impl Metric {
    fn of(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            median: value,
            p10: value,
            p90: value,
            n: 1,
        }
    }

    /// `value` with the distribution of `samples`.
    fn timed(name: &str, unit: &'static str, value: f64, samples: &[f64]) -> Self {
        let s = summarize(samples);
        Metric {
            median: s.median,
            p10: s.p10,
            p90: s.p90,
            n: s.n,
            ..Metric::of(name, unit, value)
        }
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become `null` rather than invalid JSON).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn detail_json(m: &Metric) -> String {
    format!(
        "{{\"unit\":\"{}\",\"value\":{},\"median\":{},\"p10\":{},\"p90\":{},\"n\":{}}}",
        m.unit,
        num(m.value),
        num(m.median),
        num(m.p10),
        num(m.p90),
        m.n,
    )
}

fn value_json(m: &Metric) -> String {
    format!("{{\"value\":{},\"unit\":\"{}\"}}", num(m.value), m.unit)
}

fn metrics_json<'a>(
    ms: impl IntoIterator<Item = &'a Metric>,
    entry: impl Fn(&Metric) -> String,
) -> String {
    let body: Vec<String> = ms
        .into_iter()
        .map(|m| format!("\"{}\":{}", m.name, entry(m)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run_workload(a: &Args, name: &str) -> ExitCode {
    let started = Instant::now();
    let (mut w, first) = match timed_setup(name, a.seed) {
        Ok(built) => built,
        Err(e) => {
            eprintln!("{name}: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut setups = vec![first];
    let startup_s = started.elapsed().as_secs_f64();
    let run = measure(&mut *w, a, name, &mut setups);

    let pass = summarize(&run.plain.units);
    let pass_s = best_of_parts(&run.plain.parts);
    let ops_per_s = run.ok_plain as f64 / pass.n as f64 / pass_s;
    let end_to_end = vec![
        Metric::timed("setup_s", "s", fastest(&setups), &setups),
        Metric::timed("pass_s", "s", pass_s, &run.plain.units),
        Metric::of("ops_per_s", "1/s", ops_per_s),
        Metric::of("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    let plain_total: f64 = run.plain.units.iter().sum();
    let mut detail_only = vec![
        Metric {
            n: pass.n,
            ..Metric::of("tail_s", "s", pass.tail)
        },
        Metric::of("mean_ops_per_s", "1/s", run.ok_plain as f64 / plain_total),
        Metric::of(
            "failed_frac",
            "ratio",
            ratio(run.failed as f64, run.attempted as f64),
        ),
        Metric::of("startup_s", "s", startup_s),
        Metric::of("sched_wait_frac", "ratio", run.sched_wait_frac),
    ];
    if let Some(p99) = pass.p99 {
        detail_only.push(Metric::of("p99_s", "s", p99));
    }

    let per_layer: Vec<Metric> = if a.traced {
        let traced = Metric::timed(
            "traced_pass_s",
            "s",
            best_of_parts(&run.traced.parts),
            &run.traced.units,
        );
        let traced_total: f64 = run.traced.units.iter().sum();
        let overhead = traced.value / pass_s - 1.0;
        let mut ms: Vec<Metric> = run
            .layers
            .metrics(traced.n)
            .into_iter()
            .map(|(n, u, v)| Metric::of(&n, u, v))
            .collect();
        ms.extend([
            traced,
            Metric::of("trace_overhead_frac", "ratio", overhead),
            Metric::of("sched_wait_frac", "ratio", run.sched_wait_frac),
            Metric::of(
                "layer_sum_frac",
                "ratio",
                ratio(run.layers.layer_seconds(), traced_total),
            ),
        ]);
        ms
    } else {
        Vec::new()
    };

    let correct = run.failed == 0;
    let mut detail = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"traced\":{},\"quick\":{},\"correct\":{correct},\
         \"attempted\":{},\"failed\":{},\"contended\":{},\"metrics\":{}",
        a.seed,
        a.traced,
        a.quick,
        run.attempted,
        run.failed,
        run.sched_wait_frac > CONTENDED_WAIT,
        metrics_json(end_to_end.iter().chain(&detail_only), detail_json),
    );
    if a.traced {
        let _ = write!(
            detail,
            ",\"layers\":{}",
            metrics_json(&per_layer, value_json)
        );
    }
    detail.push('}');
    println!("{detail}");

    let reported = if a.traced { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.attempted,
        run.failed,
        metrics_json(reported, value_json)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one after another, and
/// forwards their detail lines.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }]);
        if a.quick {
            cmd.arg("--quick");
        }
        match cmd.stderr(Stdio::inherit()).output() {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                for line in text.lines().filter(|l| l.starts_with("{\"workload\"")) {
                    println!("{line}");
                }
                if !out.status.success() {
                    eprintln!("{name}: {}", out.status);
                    all_ok = false;
                }
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(parent: &str, change: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let result = (|| {
        let bounds = compare::parse_bounds(&read(bounds_path)?)?;
        Ok::<bool, String>(compare::compare(&bounds, &read(parent)?, &read(change)?))
    })();
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("--compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ahfic_bench: {e}");
            return ExitCode::from(2);
        }
    };
    match (&a.compare, &a.workload) {
        (Some((parent, change)), _) => run_compare(parent, change),
        (None, Some(name)) => run_workload(&a, name),
        (None, None) => run_all(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload tuner_hot --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("tuner_hot"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.quick),
            (7, 12.0, true, false)
        );
        assert!(!args("--trace 0").unwrap().traced);
        assert!(args("--traced --quick").unwrap().quick);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
