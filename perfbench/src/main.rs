//! The benchmark's worker program; `run.py` drives it.
//!
//! ```text
//! perfbench materialize WORKLOAD OUT           write the generator-named model
//! perfbench relabel     WORKLOAD SEED BASE OUT write the seed's fixture of it
//! perfbench reference   WORKLOAD FIXTURE OUT   batch single-threaded MOCUS answer
//! perfbench load        WORKLOAD FIXTURE       timed fixture loads
//! perfbench sample      WORKLOAD FIXTURE REF   one timed analysis, checked
//! perfbench trace       WORKLOAD FIXTURE REF   engine counters + traced replay
//! ```
//!
//! Every command prints one JSON object on standard output.

mod check;
mod replay;
mod trace;
mod workload;

use check::Outcome;
use sdft_core::{analyze, AnalysisOptions, AnalysisResult, Backend};
use sdft_ft::{format, FaultTree};
use sdft_mocus::MocusOptions;
use std::error::Error;
use std::time::{Duration, Instant};
use workload::{Workload, HORIZON};

/// Analysis threads of the timed runs, fixed so that results compare
/// across hosts with different core counts.
const THREADS: usize = 2;

/// Loads per `load` process: at least this many, spanning at least
/// [`MIN_LOAD_TIME`].
const MIN_LOADS: usize = 5;
const MIN_LOAD_TIME: Duration = Duration::from_millis(150);

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// The options of the workload's analysis on `threads` threads.
fn options(w: &Workload, threads: usize) -> AnalysisOptions {
    let mut o = AnalysisOptions::new(HORIZON);
    o.mocus = MocusOptions::with_cutoff(w.cutoff);
    o.backend = w.backend;
    o.threads = threads;
    o
}

/// The batch single-threaded path of the same analysis on `backend`.
fn serial_batch(w: &Workload, backend: Backend) -> AnalysisOptions {
    let mut o = options(w, 1);
    o.streaming = false;
    o.backend = backend;
    o
}

/// Read, parse and validate the fixture: what each model load costs.
fn load(path: &str) -> Result<FaultTree> {
    Ok(format::parse_str(&std::fs::read_to_string(path)?)?)
}

fn timed_loads(path: &str) -> Result<Vec<f64>> {
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_LOADS || begin.elapsed() < MIN_LOAD_TIME {
        let start = Instant::now();
        let tree = load(path)?;
        times.push(start.elapsed().as_secs_f64());
        drop(tree);
    }
    Ok(times)
}

/// Process counters from `/proc/self/stat`: (user ticks, system ticks,
/// minor faults) summed over all threads.
fn proc_stat() -> Result<(u64, u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesized command name; the first of them,
    // the state letter, is field 3 and is skipped.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // minflt is field 10, utime 14, stime 15.
    Ok((fields[10], fields[11], fields[6]))
}

/// Peak resident set of this process in KiB (`VmHWM`).
fn peak_rss_kib() -> Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(line
        .split_whitespace()
        .nth(1)
        .ok_or("malformed VmHWM")?
        .parse()?)
}

fn reference(w: &Workload, fixture: &str) -> Result<Outcome> {
    let tree = load(fixture)?;
    let mut outcome = Outcome::of(&analyze(&tree, &serial_batch(w, Backend::Mocus))?);
    if w.backend == Backend::Bdd {
        let exact = replay::direct_exact(&tree, &options(w, 1))?;
        outcome.exact_bits = Some(exact.to_bits());
    }
    Ok(outcome)
}

fn read_reference(path: &str) -> Result<Outcome> {
    Ok(Outcome::from_text(&std::fs::read_to_string(path)?)?)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_owned()
    }
}

/// The verdict of a check as JSON fields.
fn verdict(check: &std::result::Result<(), String>) -> String {
    match check {
        Ok(()) => "\"ok\": true, \"error\": null".to_owned(),
        Err(e) => format!("\"ok\": false, \"error\": {}", json_str(e)),
    }
}

/// A process that only loads the fixture and analyzes it once: the
/// analysis wall-clock, the output check, and the process's peak RSS.
fn sample(w: &Workload, fixture: &str, reference: &Outcome) -> Result<String> {
    let tree = load(fixture)?;
    let begin = Instant::now();
    let result = analyze(&tree, &options(w, THREADS));
    let analyze_s = begin.elapsed().as_secs_f64();
    let check = match &result {
        Ok(r) => Outcome::of(r).check(reference, w.backend == Backend::Bdd),
        Err(e) => Err(format!("analysis failed: {e}")),
    };
    Ok(format!(
        "{{\"analyze_s\": {}, \"peak_rss_kib\": {}, {}}}",
        json_num(analyze_s),
        peak_rss_kib()?,
        verdict(&check)
    ))
}

/// What an analysis reported, bit for bit: the frequency, the digest of
/// the (cutset, probability) list in reported order, and the exact
/// static probability.
type Answer = (u64, u64, Option<u64>);

fn analyze_answer(r: &AnalysisResult) -> Answer {
    let reports = r.cutsets.iter().map(|c| (&c.cutset, c.probability));
    (
        r.frequency.to_bits(),
        check::report_digest(reports),
        r.exact_static.map(f64::to_bits),
    )
}

fn replay_answer(r: &replay::Replayed) -> Answer {
    let reports = r.reports.iter().map(|&(i, p)| (&r.cutsets[i], p));
    (
        r.frequency.to_bits(),
        check::report_digest(reports),
        r.exact.map(f64::to_bits),
    )
}

/// The per-layer run: the timed analysis again with process counters
/// around it (the engine row), the untraced serial batch analysis the
/// replay mirrors, and the traced replay, each checked.
fn traced(w: &Workload, fixture: &str, reference: &Outcome) -> Result<String> {
    let bytes = std::fs::metadata(fixture)?.len();
    let loads = timed_loads(fixture)?;
    let tree = load(fixture)?;
    let exact = w.backend == Backend::Bdd;
    let mut checks = Vec::new();

    let (user0, sys0, faults0) = proc_stat()?;
    let begin = Instant::now();
    let engine = analyze(&tree, &options(w, THREADS))?;
    let wall = begin.elapsed().as_secs_f64();
    let (user1, sys1, faults1) = proc_stat()?;
    checks.push(Outcome::of(&engine).check(reference, exact));
    let cpu_s = (user1 + sys1 - user0 - sys0) as f64 / USER_HZ;
    let t = &engine.timings;
    let engine_metrics = [
        ("engine.generation_busy_s", t.generation_busy.as_secs_f64()),
        ("engine.filter_busy_s", t.filter_busy.as_secs_f64()),
        ("engine.quant_busy_s", t.quant_busy.as_secs_f64()),
        ("engine.overlap_s", t.stream_overlap.as_secs_f64()),
        (
            "engine.peak_pending_cutsets",
            engine.stats.peak_pending_cutsets as f64,
        ),
        ("engine.cpu_s", cpu_s),
        ("engine.cpu_per_wall", cpu_s / wall),
        ("proc.sys_s", (sys1 - sys0) as f64 / USER_HZ),
        ("proc.minor_faults", (faults1 - faults0) as f64),
    ];
    drop(engine);

    let serial = serial_batch(w, w.backend);
    let begin = Instant::now();
    let untraced = analyze(&tree, &serial)?;
    let untraced_s = begin.elapsed().as_secs_f64();
    checks.push(Outcome::of(&untraced).check(reference, exact));
    let expected = analyze_answer(&untraced);
    drop(untraced);
    let replayed = replay::replay(&tree, &serial)?;
    let got = replay_answer(&replayed);
    checks.push(if got == expected {
        Ok(())
    } else {
        Err(format!(
            "the replay answered {got:x?}, analyze {expected:x?}"
        ))
    });

    let mut m = replayed.metrics;
    m.set("ft.parse_s", median(&loads));
    m.set("ft.model_bytes", bytes as f64);
    m.set("ft.gates", tree.num_gates() as f64);
    m.set("ft.basic_events", tree.num_basic_events() as f64);
    for (name, value) in engine_metrics {
        m.set(name, value);
    }
    m.set(
        "trace.overhead_s",
        m.get("trace.serial_total_s") - untraced_s,
    );
    let metrics: Vec<String> =
        m.0.iter()
            .map(|(name, value)| format!("{}: {}", json_str(name), json_num(*value)))
            .collect();
    let failed = checks.iter().filter(|c| c.is_err()).count();
    let first_error = checks
        .iter()
        .find(|c| c.is_err())
        .cloned()
        .unwrap_or(Ok(()));
    Ok(format!(
        "{{\"checked\": {}, \"failed\": {failed}, {}, \"metrics\": {{{}}}, \"trace\": {}}}",
        checks.len(),
        verdict(&first_error),
        metrics.join(", "),
        json_str(&replayed.trace.dump())
    ))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run(args: &[String]) -> Result<String> {
    let usage = "usage: perfbench materialize|relabel|reference|load|sample|trace WORKLOAD ARGS...";
    let (command, name, rest) = match args {
        [command, name, rest @ ..] => (command.as_str(), name, rest),
        _ => return Err(usage.into()),
    };
    let w = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    match (command, rest) {
        ("materialize", [out]) => {
            let begin = Instant::now();
            let text = w.materialize()?;
            std::fs::write(out, &text)?;
            Ok(format!(
                "{{\"bytes\": {}, \"seconds\": {}}}",
                text.len(),
                json_num(begin.elapsed().as_secs_f64())
            ))
        }
        ("relabel", [seed, base, out]) => {
            let seed = if seed == "default" {
                w.default_seed()
            } else {
                seed.parse()?
            };
            let text = workload::relabel(&std::fs::read_to_string(base)?, seed);
            std::fs::write(out, &text)?;
            Ok(format!(
                "{{\"bytes\": {}, \"digest\": \"{:016x}\", \"seed\": {seed}}}",
                text.len(),
                check::Fnv::default().bytes(text.as_bytes()).finish()
            ))
        }
        ("reference", [fixture, out]) => {
            let begin = Instant::now();
            let outcome = reference(&w, fixture)?;
            std::fs::write(out, outcome.to_text())?;
            Ok(format!(
                "{{\"seconds\": {}}}",
                json_num(begin.elapsed().as_secs_f64())
            ))
        }
        ("load", [fixture]) => {
            let loads: Vec<String> = timed_loads(fixture)?.into_iter().map(json_num).collect();
            Ok(format!("{{\"loads_s\": [{}]}}", loads.join(", ")))
        }
        ("sample", [fixture, reference]) => sample(&w, fixture, &read_reference(reference)?),
        ("trace", [fixture, reference]) => traced(&w, fixture, &read_reference(reference)?),
        _ => Err(usage.into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
