//! Bench smoke: compare the batch analysis path against the streaming
//! engine on the 30%-dynamic industrial model 1 (the X1 preset) at the
//! default `1e-15` cutoff and the deep `1e-18` cutoff, and write
//! machine-readable numbers to a JSON file (default `BENCH_engine.json`)
//! so CI can track wall-clock and peak cutset residency across commits.
//!
//! Each preset runs three ways — batch single-threaded, streaming
//! single-threaded, streaming on all cores — and the streamed results
//! must be bitwise identical to the batch results (same frequency bits,
//! same cutset list, same schedule-independent counters). Streaming
//! runs must also keep peak pending-cutset residency strictly below the
//! total cutset count: the epoch plan exists to retire cutsets before
//! generation finishes, and holding every cutset at once means it
//! degenerated to batch with extra steps. The deep preset's streaming
//! runs must also report epochs minimized through the filter's batch
//! fallback, so the bitwise asserts cover the buffer-merge path.
//!
//! ```text
//! engine_smoke [output.json] [--scale X] [--repeat N] [--gate-multicore]
//! ```
//!
//! `--repeat N` runs every configuration N times in interleaved rounds
//! (batch, stream-1, stream-all, batch, …) and reports the fastest run
//! of each: host noise and thermal drift hit whole rounds rather than
//! whichever configuration happened to run last, so the reported
//! ratios compare like with like. Bitwise identity is asserted on
//! every run, not just the kept one.
//!
//! `--gate-multicore` additionally enforces the multicore regression
//! gates (meant for a >= 4-core CI runner, not a laptop in power-save):
//! streaming on all cores must beat batch on the deep preset
//! (`speedup_vs_batch >= 1.0`), single-quant-thread streaming must stay
//! within 5% of batch (`stream_1_thread.seconds <= 1.05 x
//! batch.seconds`), and the deep preset must report genuine stage
//! overlap (`overlap_seconds > 0`).

use sdft_core::{analyze, AnalysisOptions, AnalysisResult};
use sdft_ft::{EventProbabilities, FaultTree};
use sdft_importance::fussell_vesely_ranking;
use sdft_mocus::{minimal_cutsets, MocusOptions};
use sdft_models::annotate::{annotate, AnnotationConfig};
use sdft_models::industrial;
use std::time::Instant;

struct Run {
    seconds: f64,
    result: AnalysisResult,
}

impl Run {
    /// Sustained SpMV throughput in nonzeros per second (0 when the
    /// stepping loop never ran, e.g. every model was rateless).
    fn spmv_throughput(&self) -> f64 {
        let seconds = self.result.timings.spmv.as_secs_f64();
        if seconds <= 0.0 {
            0.0
        } else {
            self.result.stats.kernel_spmv_nonzeros as f64 / seconds
        }
    }
}

fn run(tree: &FaultTree, cutoff: f64, streaming: bool, threads: usize) -> Run {
    let mut options = AnalysisOptions::new(24.0);
    options.mocus = MocusOptions::with_cutoff(cutoff);
    options.mocus.threads = threads;
    options.threads = threads;
    options.streaming = streaming;
    let begin = Instant::now();
    let result = analyze(tree, &options).expect("analysis");
    Run {
        seconds: begin.elapsed().as_secs_f64(),
        result,
    }
}

fn assert_bitwise(batch: &AnalysisResult, stream: &AnalysisResult, label: &str) {
    assert_eq!(
        batch.frequency.to_bits(),
        stream.frequency.to_bits(),
        "{label}: frequency must be bitwise identical"
    );
    assert_eq!(
        batch.static_rea.to_bits(),
        stream.static_rea.to_bits(),
        "{label}: static REA must be bitwise identical"
    );
    assert_eq!(
        batch.cutsets.len(),
        stream.cutsets.len(),
        "{label}: cutset count must match"
    );
    for (b, s) in batch.cutsets.iter().zip(&stream.cutsets) {
        assert_eq!(b.cutset, s.cutset, "{label}: cutset order must match");
        assert_eq!(
            b.probability.to_bits(),
            s.probability.to_bits(),
            "{label}: per-cutset probability must be bitwise identical"
        );
    }
    assert_eq!(
        batch.stats.clone().deterministic(),
        stream.stats.clone().deterministic(),
        "{label}: schedule-independent counters must match"
    );
}

/// Streaming must retire cutsets while generation is still running;
/// holding the entire cutset list in the pending buffer means the
/// epoch plan failed to split the workload.
fn assert_bounded_residency(stream: &Run, label: &str) {
    let total = stream.result.stats.num_cutsets;
    let peak = stream.result.stats.peak_pending_cutsets;
    assert!(
        peak < total,
        "{label}: streaming peak pending cutsets ({peak}) must stay \
         strictly below the total cutset count ({total})"
    );
}

fn run_json(r: &Run, extra: &str) -> String {
    let t = &r.result.timings;
    let filter = &r.result.stats.filter_totals;
    format!(
        "{{ \"seconds\": {:.6}, \
         \"peak_pending_cutsets\": {}, \"peak_inflight_models\": {}, \
         \"peak_candidate_bytes\": {}, \
         \"generation_busy_seconds\": {:.6}, \"filter_busy_seconds\": {:.6}, \
         \"quant_busy_seconds\": {:.6}, \"spmv_seconds\": {:.6}, \
         \"spmv_nonzeros\": {}, \"spmv_nonzeros_per_second\": {:.0}, \
         \"filter_probes\": {}, \"filter_rejects\": {}, \
         \"filter_compactions\": {}, \"fallback_epochs\": {}{extra} }}",
        r.seconds,
        r.result.stats.peak_pending_cutsets,
        r.result.stats.peak_inflight_models,
        r.result.stats.mocus_peak_candidate_bytes,
        t.generation_busy.as_secs_f64(),
        t.filter_busy.as_secs_f64(),
        t.quant_busy.as_secs_f64(),
        t.spmv.as_secs_f64(),
        r.result.stats.kernel_spmv_nonzeros,
        r.spmv_throughput(),
        filter.probes,
        filter.rejects,
        filter.compactions,
        filter.fallback_epochs,
    )
}

fn preset_json(name: &str, cutoff: f64, batch: &Run, stream1: &Run, streamn: &Run) -> String {
    let overlap = |r: &Run| {
        format!(
            ", \"overlap_seconds\": {:.6}",
            r.result.timings.stream_overlap.as_secs_f64()
        )
    };
    format!(
        "  {{\n    \
         \"preset\": \"{name}\",\n    \
         \"cutoff\": {cutoff:e},\n    \
         \"cutsets\": {},\n    \
         \"frequency\": {:e},\n    \
         \"batch\": {},\n    \
         \"stream_1_thread\": {},\n    \
         \"stream_all_cores\": {}\n  }}",
        batch.result.stats.num_cutsets,
        batch.result.frequency,
        run_json(batch, ""),
        run_json(stream1, &overlap(stream1)),
        run_json(
            streamn,
            &format!(
                "{}, \"speedup_vs_batch\": {:.3}",
                overlap(streamn),
                batch.seconds / streamn.seconds.max(1e-12)
            )
        ),
    )
}

fn main() {
    let mut output = "BENCH_engine.json".to_owned();
    let mut scale = 0.15;
    let mut repeat = 1usize;
    let mut gate_multicore = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--scale" {
            let v = iter.next().expect("--scale needs a value");
            scale = v.parse().expect("--scale needs a number");
        } else if arg == "--repeat" {
            let v = iter.next().expect("--repeat needs a value");
            repeat = v.parse().expect("--repeat needs a count");
            assert!(repeat >= 1, "--repeat needs a count >= 1");
        } else if arg == "--gate-multicore" {
            gate_multicore = true;
        } else {
            output = arg.clone();
        }
    }

    // The X1 fixture: industrial model 1, 30% of basic events annotated
    // dynamic by Fussell-Vesely rank (same construction as the cutoff
    // sweep in the repro harness).
    let tree = industrial::generate(&industrial::model1().scaled(scale));
    let probs = EventProbabilities::from_static(&tree).expect("static model");
    let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
    let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
    let annotated =
        annotate(&tree, &ranking, &AnnotationConfig::percent_dynamic(30.0)).expect("annotation");

    let mut blocks = Vec::new();
    let mut summaries = Vec::new();
    let mut gate_failures = Vec::new();
    for (name, cutoff, deep) in [
        ("x1_default_1e-15", 1e-15, false),
        ("x1_deep_1e-18", 1e-18, true),
    ] {
        let mut batch = run(&annotated.tree, cutoff, false, 1);
        let mut stream1 = run(&annotated.tree, cutoff, true, 1);
        let mut streamn = run(&annotated.tree, cutoff, true, 0);
        assert_bitwise(&batch.result, &stream1.result, name);
        assert_bitwise(&batch.result, &streamn.result, name);
        // Further rounds interleave the three configurations and keep
        // the fastest run of each, so a noisy patch on the host costs a
        // whole round instead of skewing one configuration's number.
        let keep_min = |best: &mut Run, next: Run| {
            if next.seconds < best.seconds {
                *best = next;
            }
        };
        for _ in 1..repeat {
            let b = run(&annotated.tree, cutoff, false, 1);
            let s1 = run(&annotated.tree, cutoff, true, 1);
            let sn = run(&annotated.tree, cutoff, true, 0);
            assert_bitwise(&b.result, &s1.result, name);
            assert_bitwise(&b.result, &sn.result, name);
            keep_min(&mut batch, b);
            keep_min(&mut stream1, s1);
            keep_min(&mut streamn, sn);
        }
        assert_bounded_residency(&stream1, name);
        assert_bounded_residency(&streamn, name);
        if deep {
            // The buffer-merge path is easy to break silently; the deep
            // preset's churn must drive the adaptive filter into it, so
            // the bitwise asserts above cover it.
            for (label, stream) in [("stream-1", &stream1), ("stream-all", &streamn)] {
                assert!(
                    stream.result.stats.filter_totals.fallback_epochs > 0,
                    "{name} {label}: the adaptive filter must fall back on some epoch"
                );
            }
        }
        let speedup = batch.seconds / streamn.seconds.max(1e-12);
        let speedup1 = batch.seconds / stream1.seconds.max(1e-12);
        let overlap = streamn.result.timings.stream_overlap.as_secs_f64();
        if gate_multicore && deep {
            if speedup < 1.0 {
                gate_failures.push(format!(
                    "{name}: stream on all cores must not lose to batch \
                     (speedup_vs_batch {speedup:.3} < 1.0)"
                ));
            }
            if speedup1 < 1.0 {
                gate_failures.push(format!(
                    "{name}: stream at one quant thread must not lose to \
                     batch on a multicore host (speedup {speedup1:.3} < 1.0)"
                ));
            }
            if stream1.seconds > 1.05 * batch.seconds {
                gate_failures.push(format!(
                    "{name}: stream_1_thread must stay within 5% of batch \
                     ({:.3}s > 1.05 x {:.3}s)",
                    stream1.seconds, batch.seconds
                ));
            }
            if overlap <= 0.0 {
                gate_failures.push(format!(
                    "{name}: deep preset must overlap generation and \
                     quantification (overlap_seconds {overlap:.6} <= 0)"
                ));
            }
        }
        summaries.push(format!(
            "{name}: {} cutsets, batch {:.3}s, stream {:.3}s / {:.3}s \
             (peak {} of {} pending, overlap {:.3}s, quant busy {:.3}s, \
             spmv {:.1}M nz/s)",
            batch.result.stats.num_cutsets,
            batch.seconds,
            stream1.seconds,
            streamn.seconds,
            streamn.result.stats.peak_pending_cutsets,
            streamn.result.stats.num_cutsets,
            overlap,
            streamn.result.timings.quant_busy.as_secs_f64(),
            streamn.spmv_throughput() / 1e6,
        ));
        blocks.push(preset_json(name, cutoff, &batch, &stream1, &streamn));
    }

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \
         \"schema\": \"sdft-bench-engine-v4\",\n  \
         \"model\": \"industrial model 1 @ {scale}, 30% dynamic\",\n  \
         \"host_cores\": {host_cores},\n  \
         \"presets\": [\n{}\n]\n}}\n",
        blocks.join(",\n"),
    );
    std::fs::write(&output, &json).expect("write engine timings");
    for line in &summaries {
        println!("engine smoke: {line}");
    }
    println!("engine smoke: wrote {output}");
    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("engine smoke: GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
