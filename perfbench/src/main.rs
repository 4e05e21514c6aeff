//! Layer-by-layer host-time benchmark of the XPC reproduction.
//!
//! ```text
//! perfbench --workload <ycsb|chain|guest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats rounds of one workload until `--seconds` have passed.
//! Each round first sets up its inputs (timed as set-up), then does a
//! fixed amount of simulated work (timed as work), so every round is a
//! replay of the first: its digest of simulated statistics must match
//! round 0's bit for bit. Round 0 also warms caches and is left out of
//! the throughput median.
//!
//! With `--trace 1`, odd rounds record spans around the benchmark's calls
//! into each crate and even rounds do not; the per-layer metrics come
//! from the traced rounds and `trace.overhead_pct` compares the two.
//! After the timed rounds, a traced run also makes one traced round of
//! each other workload, so every per-layer metric has a measured value.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The lines before it give the
//! host fingerprint, the digest, every metric with its unit and the
//! per-layer self times. A copy of the result (with fingerprint and
//! digest) goes to `perfbench/out/`, and a traced run also writes its
//! spans there as Chrome trace-event JSON.

#![forbid(unsafe_code)]

mod chain_wl;
mod digest;
mod guest_wl;
mod host;
mod layers;
mod trace;
mod ycsb_wl;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Rounds every run makes at least: a warm-up and, in a traced run, one
/// traced and one untraced round after it.
const MIN_ROUNDS: usize = 3;
/// Spans stored per traced run (the rest are aggregated only).
const SPAN_CAPACITY: usize = 1 << 16;
/// Where result copies and traces go, relative to the working directory.
const OUT_DIR: &str = "perfbench/out";

/// A named throughput inside a round, reported under the workload's own
/// metric name (e.g. `open_req_per_s`).
#[derive(Debug, Clone)]
pub struct Part {
    name: &'static str,
    unit: &'static str,
    scale: f64,
    units: u64,
    ns: u64,
}

impl Part {
    /// `units` of work done in `ns` of host time, reported × `scale`.
    pub fn new(name: &'static str, unit: &'static str, scale: f64, units: u64, ns: u64) -> Self {
        Part {
            name,
            unit,
            scale,
            units,
            ns,
        }
    }

    fn rate(&self) -> f64 {
        self.units as f64 / self.ns.max(1) as f64 * 1e9 * self.scale
    }
}

/// What one round did.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Host time setting the round up.
    pub setup_ns: u64,
    /// Host time of the measured work.
    pub work_ns: u64,
    /// Units of work (YCSB ops, chain requests, guest instructions).
    pub work_units: u64,
    /// Named throughputs making up the work.
    pub parts: Vec<Part>,
    /// Digest of every simulated statistic of the round.
    pub digest: u64,
    /// Cells (episodes, serve/load runs, guest loops) in the round.
    pub cells: u64,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed (panicked cells count whole).
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// Set up and run one round; spans go to `tr` when it is on.
    fn round(&mut self, tr: &mut Tracer, round: usize) -> Round;
    /// Mean |sim/paper − 1| (%) of round 0's simulated results.
    fn paper_err_pct(&self) -> f64;
    /// The same error on inputs drawn from the run seed, where the paper
    /// comparison itself uses fixed inputs.
    fn paper_err_heldout_pct(&self) -> Option<f64> {
        None
    }
    /// Per-layer metrics from the traced rounds and round 0's counts.
    fn layers(&self, tr: &Tracer) -> Vec<(&'static str, f64)>;
    /// Why checks failed, if they did.
    fn notes(&self) -> &[String];
    /// Defects the run observed in the program without failing an op
    /// (e.g. a verifier refusal of a recipe the engines still run).
    fn findings(&self) -> &[String] {
        &[]
    }
}

/// The workloads, in the order a traced run probes them.
const WORKLOADS: [&str; 3] = ["ycsb", "chain", "guest"];

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ycsb" => Box::new(ycsb_wl::Ycsb::new(seed)),
        "chain" => Box::new(chain_wl::Chain::new(seed)),
        "guest" => Box::new(guest_wl::Guest::new(seed)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A metric value as JSON: every digit Rust's shortest round-trip form
/// gives, and 0 for a value that is not finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ycsb|chain|guest> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut wl) = workload(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} ({})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let fp = host::Fingerprint::current();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", fp.to_json());

    // Rounds until the time is up; odd rounds traced in a traced run.
    let mut tr = Tracer::new(if args.trace { SPAN_CAPACITY } else { 0 });
    let start = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        tr.set_on(traced);
        let r = wl.round(&mut tr, rounds.len());
        tr.set_on(false);
        rounds.push((traced, r));
    }
    let wall_s = start.elapsed().as_secs_f64();

    // A traced run also makes one traced round of each other workload,
    // so every per-layer metric is measured, not only this workload's.
    let mut probes = Vec::new();
    if args.trace {
        for name in WORKLOADS.iter().filter(|n| **n != args.workload) {
            let mut p = workload(name, args.seed).expect("listed workload");
            tr.set_on(true);
            let r = p.round(&mut tr, 0);
            tr.set_on(false);
            probes.push((p, r));
        }
    }

    // Checks: every round must replay round 0's simulated statistics.
    let first = rounds[0].1.digest;
    let mut attempted = 0;
    let mut failed = 0;
    let mut diverged = 0;
    for (_, r) in &rounds {
        attempted += r.attempted;
        failed += r.failed;
        if r.digest != first {
            failed += r.attempted;
            diverged += 1;
        }
    }
    for (_, r) in &probes {
        attempted += r.attempted;
        failed += r.failed;
    }
    let correct = failed == 0 && diverged == 0 && attempted > 0;
    println!(
        "digest {} fnv1a64={first:016x} cells_per_round={} rounds={} replays_identical={}",
        args.workload,
        rounds[0].1.cells,
        rounds.len(),
        diverged == 0
    );
    for w in std::iter::once(&wl).chain(probes.iter().map(|(p, _)| p)) {
        for n in w.notes() {
            println!("check-failed {n}");
        }
        for f in w.findings() {
            println!("finding {f}");
        }
    }

    // End-to-end figures from the untraced rounds after the warm-up.
    let steady: Vec<&Round> = rounds
        .iter()
        .skip(1)
        .filter(|(t, _)| !t)
        .map(|(_, r)| r)
        .collect();
    let steady = if steady.is_empty() {
        vec![&rounds[0].1]
    } else {
        steady
    };
    let ops_per_s = median(
        steady
            .iter()
            .map(|r| r.work_units as f64 / r.work_ns.max(1) as f64 * 1e9)
            .collect(),
    );
    let setup_s = median(
        rounds
            .iter()
            .filter(|(t, _)| !t)
            .map(|(_, r)| r.setup_ns as f64 / 1e9)
            .collect(),
    );
    let peak_rss_mb = host::peak_rss_mib().unwrap_or(0.0);
    let paper_err_pct = wl.paper_err_pct();
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("ops_per_s", ops_per_s, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("paper_err_pct", paper_err_pct, "%"),
    ];
    for (n, v, u) in &e2e {
        println!("metric {n} {} {u}", num(*v));
    }
    if let Some(v) = wl.paper_err_heldout_pct() {
        println!("metric paper_err_heldout_pct {} %", num(v));
    }
    // The same throughput under the workload's own names.
    for (i, p) in rounds[0].1.parts.iter().enumerate() {
        let v = median(
            steady
                .iter()
                .filter_map(|r| r.parts.get(i).map(Part::rate))
                .collect(),
        );
        println!("metric {} {} {}", p.name, num(v), p.unit);
    }

    // Per-layer figures from the traced rounds.
    let mut layer_vals = wl.layers(&tr);
    for (p, _) in &probes {
        layer_vals.extend(p.layers(&tr));
    }
    let traced: Vec<f64> = rounds
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, r)| r.work_ns as f64)
        .collect();
    if !traced.is_empty() {
        let plain = median(steady.iter().map(|r| r.work_ns as f64).collect());
        layer_vals.push(("trace.overhead_pct", (median(traced) / plain - 1.0) * 100.0));
    }
    let layer_of = |name: &str| {
        layer_vals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    if args.trace {
        for l in layers::LAYERS {
            println!(
                "layer {} {} {} moves={} on={} flat_on={}",
                l.name,
                num(layer_of(l.name)),
                l.unit,
                l.moves,
                l.on,
                l.flat_on
            );
        }
        let mut by_self: Vec<_> = tr.aggs().collect();
        by_self.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
        for (name, a) in by_self {
            println!(
                "self-time {name} count={} total_ms={:.3} self_ms={:.3}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
    }

    let mut metrics = String::new();
    let chosen: Vec<(&str, f64, &str)> = if args.trace {
        layers::LAYERS
            .iter()
            .map(|l| (l.name, layer_of(l.name), l.unit))
            .collect()
    } else {
        e2e
    };
    for (i, (n, v, u)) in chosen.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
            num(*v)
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    write_outputs(&args, &fp, first, wall_s, &result, &tr);
    println!("{result}");
    ExitCode::SUCCESS
}

/// Keep a copy of the result with its fingerprint and digest (for
/// `run.py --compare`), and the spans of a traced run.
fn write_outputs(
    args: &Args,
    fp: &host::Fingerprint,
    digest: u64,
    wall_s: f64,
    result: &str,
    tr: &Tracer,
) {
    let dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return;
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let copy = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"wall_s\": {}, \"host\": {}, \
         \"digest\": \"{digest:016x}\", \"result\": {result}}}\n",
        args.workload,
        args.seed,
        args.trace,
        num(wall_s),
        fp.to_json()
    );
    let path = dir.join(format!("result-{stem}.json"));
    if let Err(e) = std::fs::write(&path, copy) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    if args.trace {
        let path = dir.join(format!("trace-{stem}.json"));
        match tr.write_chrome(&path) {
            Ok(()) => {
                let (stored, dropped) = tr.stored_and_dropped();
                println!(
                    "trace {} spans={stored} aggregated_only={dropped}",
                    path.display()
                );
            }
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}
