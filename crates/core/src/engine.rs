//! The analysis engine: the one path from cutset generation to
//! per-cutset reports (DESIGN.md §7).
//!
//! Batch and streaming analyses differ only in where the minimal
//! cutsets come from. Streaming (the default) fuses generation,
//! subsumption and quantification into a bounded pipeline, so peak
//! memory stays far below O(all candidates):
//!
//! ```text
//! MOCUS workers ──GenMsg──▶ filter thread ──Cutset──▶ quant workers
//!  (generator)   (bounded)  (incremental    (bounded)  (FT_C models,
//!                 channel    subsumption     channel    shared cache,
//!                 of≤512-    per epoch)                 pooled kernel
//!                 batches)                              workspaces)
//! ```
//!
//! Batch runs no filter thread: the calling thread materializes the
//! whole minimal list with [`CutsetBackend::generate_batch`] and
//! releases it straight into the same quantification channel and
//! workers.
//!
//! Backpressure: both channels are bounded, so a slow consumer stalls
//! the producer instead of letting candidates pile up. The watermark
//! rule making early release sound is the generator's epoch contract
//! ([`sdft_mocus::CandidateSink`]): an epoch's candidates can only
//! subsume each other, and `epoch_complete` arrives after the epoch's
//! last delivery — the filter minimizes each epoch independently and
//! releases its surviving cutsets the moment it completes.
//!
//! Results are bitwise-identical across both sources and every thread
//! count: the candidate multiset is schedule-independent, minimal sets
//! of a multiset are unique, per-cutset quantification is a pure
//! function of the cutset (the [`QuantCache`] stores one canonical
//! solution per model class regardless of which member solved it), and
//! the final assembly re-sorts reports into canonical (order, events)
//! cutset order before the per-horizon summation.

use crate::backend::{BddGenStats, CutsetBackend, GenError};
use crate::canonical::QuantCache;
use crate::error::CoreError;
use crate::ftc::FtcContext;
use crate::pipeline::{AnalysisOptions, AnalysisStats, CutsetReport, FilterTotals, Timings};
use crate::quantify::{KernelUsage, QuantifyOptions};
use crate::translate::Translated;
use sdft_ctmc::{SolverWorkspace, WorkspacePool};
use sdft_ft::{Cutset, EventProbabilities, FaultTree, IncrementalMinimizer};
use sdft_mocus::{CandidateSink, MocusError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Generator→filter channel capacity, in delivery batches (a batch
/// holds at most the generator's flush threshold of 512 candidates).
const GEN_CHANNEL_BATCHES: usize = 64;

/// Cutsets per release→quantification delivery batch (one channel
/// send and one wakeup per batch instead of per cutset).
const QUANT_BATCH: usize = 256;

/// Release→quantification channel capacity, in batches. Together with
/// [`QUANT_BATCH`] this bounds minimal cutsets awaiting quantification
/// to 4096.
const QUANT_CHANNEL_BATCHES: usize = 16;

/// What the engine hands back to the pipeline: per-horizon reports in
/// canonical cutset order plus the run-wide timings and statistics.
pub(crate) struct EngineOutput {
    /// One report vector per horizon, in canonical (order, events)
    /// cutset order.
    pub(crate) per_horizon: Vec<Vec<CutsetReport>>,
    /// The BDD and hybrid backends' by-products (`None` under MOCUS).
    pub(crate) bdd: Option<BddGenStats>,
    /// Generation, quantification and per-stage timings; the caller
    /// fills in the setup phases and the total.
    pub(crate) timings: Timings,
    /// Run-wide statistics; the caller fills in the per-horizon cutset
    /// counts, histograms and chain peak.
    pub(crate) stats: AnalysisStats,
}

/// A bounded MPMC channel on `Mutex` + `Condvar` (std only). `send`
/// blocks while full (backpressure), `recv` blocks while empty;
/// `close` ends the stream after draining, `abort` ends it immediately
/// and discards queued items (error propagation).
struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
    aborted: bool,
}

impl<T> Channel<T> {
    fn new(capacity: usize) -> Self {
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
                aborted: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Returns the time spent blocked on a full queue, or `None` when
    /// the channel was aborted (the item is dropped); the caller should
    /// then unwind.
    fn send(&self, item: T) -> Option<Duration> {
        let mut state = self.state.lock().expect("channel poisoned");
        let mut waited = Duration::ZERO;
        loop {
            if state.aborted {
                return None;
            }
            if state.queue.len() < self.capacity {
                break;
            }
            let begin = Instant::now();
            state = self.not_full.wait(state).expect("channel poisoned");
            waited += begin.elapsed();
        }
        state.queue.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Some(waited)
    }

    /// `None` once the channel is closed and drained, or aborted.
    fn recv(&self) -> Option<T> {
        let mut state = self.state.lock().expect("channel poisoned");
        loop {
            if state.aborted {
                return None;
            }
            if let Some(item) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("channel poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("channel poisoned").closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    fn abort(&self) {
        let mut state = self.state.lock().expect("channel poisoned");
        state.aborted = true;
        state.queue.clear();
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Generator-side messages: candidate batches and epoch watermarks.
enum GenMsg {
    Batch(u32, Vec<Cutset>),
    EpochComplete(u32),
}

/// Adapts the generator's [`CandidateSink`] to the bounded channel; a
/// failed send (pipeline aborted) stops generation promptly.
struct ChannelSink<'a> {
    channel: &'a Channel<GenMsg>,
    candidates: &'a AtomicU64,
}

impl CandidateSink for ChannelSink<'_> {
    fn deliver(&self, epoch: u32, batch: &mut Vec<Cutset>) -> bool {
        self.candidates
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.channel
            .send(GenMsg::Batch(epoch, std::mem::take(batch)))
            .is_some()
    }

    fn epoch_complete(&self, epoch: u32) -> bool {
        self.channel.send(GenMsg::EpochComplete(epoch)).is_some()
    }
}

/// What the filter thread hands back when it joins.
#[derive(Default)]
struct FilterOutput {
    peak_pending: usize,
    first_release: Option<Instant>,
    /// Time spent processing messages (minimizing, releasing), not
    /// counting waits on either channel.
    busy: Duration,
    /// Time releases spent blocked on a full quantification channel;
    /// taken out of `busy` when the filter stage ends.
    blocked: Duration,
    totals: FilterTotals,
}

/// Live progress counters, shared by all stages. Updated with relaxed
/// increments whether or not a monitor is attached (batch-granular on
/// the generator side, per-model elsewhere — unmeasurable overhead).
#[derive(Default)]
struct Progress {
    candidates: AtomicU64,
    finalized: AtomicU64,
    quantified: AtomicU64,
    /// Cutsets currently resident in the filter stage.
    pending: AtomicUsize,
}

/// First-error slot: quantification failures race, the smallest
/// (order, events) cutset key wins so the reported error is
/// deterministic regardless of scheduling.
type ErrorSlot = Mutex<Option<(Cutset, CoreError)>>;

fn record_error(slot: &ErrorSlot, cutset: Cutset, error: CoreError) {
    let mut guard = slot.lock().expect("error slot poisoned");
    let replace = match &*guard {
        None => true,
        Some((held, _)) => (cutset.order(), cutset.events()) < (held.order(), held.events()),
    };
    if replace {
        *guard = Some((cutset, error));
    }
}

/// Everything a quantification worker needs besides the cutset itself.
struct QuantContext<'a> {
    tree: &'a FaultTree,
    ctx: &'a FtcContext,
    horizons: &'a [f64],
    qopts: &'a QuantifyOptions,
    cache: Option<&'a QuantCache>,
    probs_per_horizon: &'a [EventProbabilities],
    gen_tx: &'a Channel<GenMsg>,
    errors: &'a ErrorSlot,
}

impl QuantContext<'_> {
    /// Quantify one cutset against every horizon: build its `FT_C`
    /// model once, solve it (through the cache when given), and expand
    /// into one [`CutsetReport`] per horizon. Pure in the cutset, which
    /// is why every schedule produces bitwise-identical reports.
    fn solve(
        &self,
        cutset: &Cutset,
        workspace: &mut SolverWorkspace,
    ) -> Result<(Vec<CutsetReport>, KernelUsage), CoreError> {
        let begin = Instant::now();
        let model = crate::ftc::build_ftc_with(self.tree, self.ctx, cutset, self.qopts.treatment)?;
        // Model construction is shared by every horizon and split
        // evenly; the quantifier attributes the solve cost per horizon
        // (zero on cache hits).
        let build_share = begin.elapsed() / u32::try_from(self.horizons.len()).unwrap_or(1);
        let (quantified, _, usage) = crate::quantify::quantify_model_many_with(
            self.tree,
            &model,
            self.horizons,
            self.qopts,
            self.cache,
            workspace,
        )?;
        let reports = quantified
            .into_iter()
            .zip(self.probs_per_horizon)
            .map(|(q, probs)| CutsetReport {
                probability: q.probability,
                static_probability: cutset.probability_with(|e| probs.get(e)),
                cutset_dynamic: q.cutset_dynamic,
                added_dynamic: q.added_dynamic,
                added_static: q.added_static,
                chain_states: q.chain_states,
                used_general: q.used_general,
                quantification_time: build_share + q.quantification_time,
                cutset: cutset.clone(),
            })
            .collect();
        Ok((reports, usage))
    }
}

/// Hands minimal cutsets — a finished epoch's, or the whole batch
/// list — to the quantification channel in [`QUANT_BATCH`] chunks,
/// mapping ids back to the original tree and keeping the
/// inflight-model accounting.
struct Releaser<'a> {
    quant_tx: &'a Channel<Vec<Cutset>>,
    translated: &'a Translated,
    progress: &'a Progress,
    inflight: &'a AtomicUsize,
    peak_inflight: &'a AtomicUsize,
}

impl Releaser<'_> {
    /// `false` when the pipeline was aborted mid-release; the caller
    /// should unwind.
    fn release(&self, sorted: Vec<Cutset>, out: &mut FilterOutput) -> bool {
        self.progress
            .finalized
            .fetch_add(sorted.len() as u64, Ordering::Relaxed);
        if out.first_release.is_none() && !sorted.is_empty() {
            out.first_release = Some(Instant::now());
        }
        let mut send_batch = |batch: Vec<Cutset>| -> bool {
            let n = batch.len();
            let now = self.inflight.fetch_add(n, Ordering::Relaxed) + n;
            self.peak_inflight.fetch_max(now, Ordering::Relaxed);
            match self.quant_tx.send(batch) {
                Some(waited) => {
                    out.blocked += waited;
                    true
                }
                None => {
                    self.inflight.fetch_sub(n, Ordering::Relaxed);
                    false
                }
            }
        };
        let mut batch: Vec<Cutset> = Vec::with_capacity(QUANT_BATCH);
        for cutset in sorted {
            batch.push(self.translated.cutset_into_original(cutset));
            if batch.len() == QUANT_BATCH
                && !send_batch(std::mem::replace(
                    &mut batch,
                    Vec::with_capacity(QUANT_BATCH),
                ))
            {
                return false;
            }
        }
        batch.is_empty() || send_batch(batch)
    }

    /// Finish an epoch's minimizer and release its antichain.
    fn finish_epoch(&self, minimizer: IncrementalMinimizer, out: &mut FilterOutput) -> bool {
        let (sorted, stats) = minimizer.finish();
        out.totals.absorb(stats);
        self.release(sorted, out)
    }
}

/// The filter stage: one adaptive incremental minimizer per epoch, fed
/// from the generator channel, each released the moment its watermark
/// arrives.
fn filter_stage(gen_rx: &Channel<GenMsg>, releaser: &Releaser<'_>) -> FilterOutput {
    let mut out = FilterOutput::default();
    let mut minimizers: HashMap<u32, IncrementalMinimizer> = HashMap::new();
    let mut live = 0usize;
    let pending = &releaser.progress.pending;
    let mut aborted = false;
    while let Some(msg) = gen_rx.recv() {
        let work_begin = Instant::now();
        match msg {
            GenMsg::Batch(epoch, cutsets) => {
                let minimizer = minimizers.entry(epoch).or_default();
                for cutset in cutsets {
                    let before = minimizer.len();
                    minimizer.absorb(cutset);
                    live = live - before + minimizer.len();
                    out.peak_pending = out.peak_pending.max(live);
                }
                pending.store(live, Ordering::Relaxed);
            }
            // Epochs that never delivered a candidate have no minimizer
            // and nothing to release.
            GenMsg::EpochComplete(epoch) => {
                if let Some(minimizer) = minimizers.remove(&epoch) {
                    live -= minimizer.len();
                    pending.store(live, Ordering::Relaxed);
                    aborted = !releaser.finish_epoch(minimizer, &mut out);
                }
            }
        }
        out.busy += work_begin.elapsed();
        if aborted {
            break;
        }
    }
    if !aborted {
        // A successful generation completes every epoch before it ends;
        // leftovers only exist on the abort path, where results are
        // discarded — finalize them anyway (sorted by epoch) so the
        // counters stay meaningful.
        let drain_begin = Instant::now();
        let mut rest: Vec<(u32, IncrementalMinimizer)> = minimizers.into_iter().collect();
        rest.sort_unstable_by_key(|&(epoch, _)| epoch);
        let released = rest
            .into_iter()
            .all(|(_, minimizer)| releaser.finish_epoch(minimizer, &mut out));
        if released {
            releaser.quant_tx.close();
        }
        out.busy += drain_begin.elapsed();
    }
    out.busy = out.busy.saturating_sub(out.blocked);
    out
}

/// One quantification worker: drain cutsets, build and solve their
/// models against all horizons, abort the whole pipeline on error.
fn quant_stage(
    quant_rx: &Channel<Vec<Cutset>>,
    qctx: &QuantContext<'_>,
    pool: &WorkspacePool,
    progress: &Progress,
    inflight: &AtomicUsize,
) -> (Vec<Vec<CutsetReport>>, KernelUsage, Duration) {
    let mut workspace = pool.acquire();
    // One report vector per horizon.
    let mut local: Vec<Vec<CutsetReport>> = vec![Vec::new(); qctx.horizons.len()];
    let mut usage = KernelUsage::default();
    let mut busy = Duration::ZERO;
    'drain: while let Some(batch) = quant_rx.recv() {
        let work_begin = Instant::now();
        for cutset in batch {
            let quantified = qctx.solve(&cutset, &mut workspace);
            inflight.fetch_sub(1, Ordering::Relaxed);
            match quantified {
                Ok((reports, u)) => {
                    usage.absorb(u);
                    for (h, report) in reports.into_iter().enumerate() {
                        local[h].push(report);
                    }
                    progress.quantified.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => {
                    record_error(qctx.errors, cutset, error);
                    // Stall everything upstream: the generator's next
                    // send fails, the filter's (or the batch release's)
                    // next recv/send fails.
                    quant_rx.abort();
                    qctx.gen_tx.abort();
                    busy += work_begin.elapsed();
                    break 'drain;
                }
            }
        }
        busy += work_begin.elapsed();
    }
    pool.release(workspace);
    (local, usage, busy)
}

/// Run the analysis from cutset generation to per-horizon reports:
/// generation on the calling thread, the filter thread when streaming,
/// `threads` quantification workers, and (when enabled) a progress
/// monitor — all joined before returning.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    tree: &FaultTree,
    translated: &Translated,
    static_probs: &EventProbabilities,
    backend: &dyn CutsetBackend,
    exact_probe: &[EventProbabilities],
    horizons: &[f64],
    options: &AnalysisOptions,
    probs_per_horizon: &[EventProbabilities],
    ctx: &FtcContext,
) -> Result<EngineOutput, CoreError> {
    let threads = if options.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        options.threads
    };
    let qopts = QuantifyOptions {
        horizon: horizons[0],
        epsilon: options.epsilon,
        max_states: options.max_chain_states,
        treatment: options.treatment,
        steady_state_detection: options.steady_state_detection,
    };
    let cache = options.cache.then(QuantCache::new);
    let pool = WorkspacePool::new();
    let gen_channel: Channel<GenMsg> = Channel::new(GEN_CHANNEL_BATCHES);
    let quant_channel: Channel<Vec<Cutset>> = Channel::new(QUANT_CHANNEL_BATCHES);
    let progress = Progress::default();
    let inflight = AtomicUsize::new(0);
    let peak_inflight = AtomicUsize::new(0);
    let errors: ErrorSlot = Mutex::new(None);
    let monitor_done = (Mutex::new(false), Condvar::new());
    let qctx = QuantContext {
        tree,
        ctx,
        horizons,
        qopts: &qopts,
        cache: cache.as_ref(),
        probs_per_horizon,
        gen_tx: &gen_channel,
        errors: &errors,
    };
    let releaser = Releaser {
        quant_tx: &quant_channel,
        translated,
        progress: &progress,
        inflight: &inflight,
        peak_inflight: &peak_inflight,
    };

    let pipeline_start = Instant::now();
    let (gen_result, generation_span, filter_out, worker_outputs, quant_end) =
        std::thread::scope(|scope| {
            let filter_handle = options.streaming.then(|| {
                std::thread::Builder::new()
                    .name("sdft-filter".into())
                    .spawn_scoped(scope, || filter_stage(&gen_channel, &releaser))
                    .expect("spawn filter thread")
            });
            let quant_handles: Vec<_> = (0..threads)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("sdft-quant-{i}"))
                        .spawn_scoped(scope, || {
                            quant_stage(&quant_channel, &qctx, &pool, &progress, &inflight)
                        })
                        .expect("spawn quant worker")
                })
                .collect();
            if let Some(interval) = options.progress {
                let monitor_done = &monitor_done;
                let progress = &progress;
                let cache = cache.as_ref();
                scope.spawn(move || {
                    let (lock, condvar) = monitor_done;
                    let mut done = lock.lock().expect("monitor flag poisoned");
                    loop {
                        let (guard, _) = condvar
                            .wait_timeout(done, interval)
                            .expect("monitor flag poisoned");
                        done = guard;
                        if *done {
                            break;
                        }
                        let stats = cache.map(QuantCache::stats).unwrap_or_default();
                        let consultations = stats.hits + stats.misses;
                        let rate = if consultations == 0 {
                            0.0
                        } else {
                            100.0 * stats.hits as f64 / consultations as f64
                        };
                        eprintln!(
                            "progress: {} candidates, {} cutsets pending, {} cutsets \
                             finalized, {} models quantified, cache hit rate {rate:.1}%",
                            progress.candidates.load(Ordering::Relaxed),
                            progress.pending.load(Ordering::Relaxed),
                            progress.finalized.load(Ordering::Relaxed),
                            progress.quantified.load(Ordering::Relaxed),
                        );
                    }
                });
            }

            // Generation runs on the calling thread (its own worker pool
            // lives inside the backend).
            let gen_start = Instant::now();
            let (gen_result, generation_span, filter_out) = match filter_handle {
                Some(filter_handle) => {
                    let sink = ChannelSink {
                        channel: &gen_channel,
                        candidates: &progress.candidates,
                    };
                    let gen_result = backend.generate_streaming(
                        &translated.tree,
                        static_probs,
                        exact_probe,
                        &sink,
                    );
                    let generation_span = gen_start.elapsed();
                    if gen_result.is_ok() {
                        gen_channel.close();
                    } else {
                        // Real generation failure: tear the pipeline
                        // down. (On Aborted the teardown already
                        // happened downstream.)
                        gen_channel.abort();
                        quant_channel.abort();
                    }
                    let filter_out = filter_handle.join().expect("filter thread does not panic");
                    (gen_result, generation_span, filter_out)
                }
                None => {
                    let generated =
                        backend.generate_batch(&translated.tree, static_probs, exact_probe);
                    let generation_span = gen_start.elapsed();
                    let mut out = FilterOutput::default();
                    let gen_result = match generated {
                        Ok((mcs, stats)) => {
                            progress
                                .candidates
                                .store(stats.mocus.cutset_candidates, Ordering::Relaxed);
                            // Every candidate was resident before the
                            // one-pass minimize, and the whole minimal
                            // list is materialized before release.
                            out.peak_pending = usize::try_from(stats.mocus.cutset_candidates)
                                .unwrap_or(usize::MAX);
                            out.busy = stats.mocus.minimize_time;
                            peak_inflight.store(mcs.len(), Ordering::Relaxed);
                            if releaser.release(mcs.into_iter().collect(), &mut out) {
                                quant_channel.close();
                            }
                            Ok(stats)
                        }
                        Err(error) => {
                            quant_channel.abort();
                            Err(GenError::Failed(error))
                        }
                    };
                    (gen_result, generation_span, out)
                }
            };

            let worker_outputs: Vec<(Vec<Vec<CutsetReport>>, KernelUsage, Duration)> =
                quant_handles
                    .into_iter()
                    .map(|h| h.join().expect("quant worker does not panic"))
                    .collect();
            let quant_end = Instant::now();

            *monitor_done.0.lock().expect("monitor flag poisoned") = true;
            monitor_done.1.notify_all();

            (
                gen_result,
                generation_span,
                filter_out,
                worker_outputs,
                quant_end,
            )
        });
    let pipeline_span = pipeline_start.elapsed();

    // Error priority: a real generation error (budget, invalid cutoff)
    // outranks downstream failures; `Aborted` means the cause lives in
    // the error slot (deterministically the smallest failing cutset).
    let quant_error = errors
        .into_inner()
        .expect("error slot poisoned")
        .map(|(_, error)| error);
    let gen_stats = match gen_result {
        Ok(stats) => {
            if let Some(error) = quant_error {
                return Err(error);
            }
            stats
        }
        Err(GenError::Aborted) => {
            return Err(quant_error.unwrap_or_else(|| MocusError::Aborted.into()));
        }
        Err(GenError::Failed(error)) => return Err(error),
    };

    // Deterministic final assembly: reports arrive in scheduling order,
    // the canonical (order, events) sort restores the generation order
    // (the translation keeps basic-event ids monotone, so original-id
    // order equals translated-id order). Cutsets are unique, so every
    // horizon sorts into the same order. The first worker's vectors are
    // reused so a single worker's reports are never copied.
    let mut kernel_usage = KernelUsage::default();
    let mut quant_busy = Duration::ZERO;
    let mut per_horizon: Vec<Vec<CutsetReport>> = Vec::new();
    for (local, usage, busy) in worker_outputs {
        kernel_usage.absorb(usage);
        quant_busy += busy;
        if per_horizon.is_empty() {
            per_horizon = local;
        } else {
            for (all, mine) in per_horizon.iter_mut().zip(local) {
                all.extend(mine);
            }
        }
    }
    for reports in &mut per_horizon {
        reports.sort_unstable_by(|a, b| {
            let (ca, cb) = (&a.cutset, &b.cutset);
            ca.order()
                .cmp(&cb.order())
                .then_with(|| ca.events().cmp(cb.events()))
        });
    }

    let quantification_span = filter_out
        .first_release
        .map_or(Duration::ZERO, |first| quant_end.duration_since(first));
    let mocus = &gen_stats.mocus;
    // Streaming: generation is pure enumeration and the filter counts
    // its own probes. Batch: the one-pass minimize inside generation is
    // attributed to the filter stage so the two compare directly.
    let (generation_busy, subsumption_comparisons) = if options.streaming {
        (generation_span, filter_out.totals.probes)
    } else {
        (
            generation_span.saturating_sub(filter_out.busy),
            mocus.subsumption_comparisons,
        )
    };
    let cache_stats = cache.as_ref().map(QuantCache::stats).unwrap_or_default();
    let mut stats = AnalysisStats {
        distinct_model_classes: cache_stats.distinct_classes,
        cache_hits: cache_stats.hits,
        cache_misses: cache_stats.misses,
        kernel_solves: kernel_usage.stats.solves,
        kernel_steps: kernel_usage.stats.steps_taken,
        kernel_steps_saved: kernel_usage.stats.steps_saved,
        steady_state_solves: kernel_usage.stats.steady_state_solves,
        kernel_spmv_nonzeros: kernel_usage.stats.spmv_nonzeros,
        kernel_csr_reuses: kernel_usage.stats.csr_reuses,
        mocus_partials_processed: mocus.partials_processed,
        mocus_partials_pruned: mocus.partials_pruned,
        mocus_subsumption_comparisons: subsumption_comparisons,
        mocus_stolen_tasks: mocus.stolen_tasks,
        peak_pending_cutsets: filter_out.peak_pending,
        peak_inflight_models: peak_inflight.into_inner(),
        mocus_peak_live_partials: mocus.peak_live_partials,
        mocus_peak_partial_bytes: mocus.peak_partial_bytes,
        mocus_peak_live_candidates: mocus.peak_live_candidates,
        mocus_peak_candidate_bytes: mocus.peak_candidate_bytes,
        filter_totals: filter_out.totals,
        backend: options.backend,
        ..AnalysisStats::default()
    };
    if let Some(bdd) = &gen_stats.bdd {
        stats.bdd_modules = bdd.stats.modules;
        stats.bdd_total_nodes = bdd.stats.total_nodes;
        stats.bdd_max_module_nodes = bdd.stats.max_module_nodes;
        stats.bdd_per_module_nodes = bdd.stats.per_module.iter().map(|m| m.nodes).collect();
        stats.bdd_weighted_orders = bdd.stats.weighted_orders;
        stats.bdd_apply_hits = bdd.stats.apply_hits;
        stats.bdd_apply_misses = bdd.stats.apply_misses;
        stats.bdd_external_modules = bdd.stats.external_modules;
        stats.bdd_sift_passes = bdd.stats.sift_passes;
        stats.bdd_sift_swaps = bdd.stats.sift_swaps;
        stats.bdd_exact_modules = match &bdd.plan {
            Some(plan) => plan.exact_modules(),
            // The pure BDD backend builds every module exactly.
            None => bdd.stats.modules,
        };
    }
    Ok(EngineOutput {
        per_horizon,
        bdd: gen_stats.bdd,
        timings: Timings {
            mcs_generation: generation_span,
            quantification: quantification_span,
            quantification_saved: cache_stats.time_saved,
            csr_build: kernel_usage.csr_build,
            // Zero for batch: its release starts after generation ends.
            stream_overlap: (generation_span + quantification_span).saturating_sub(pipeline_span),
            generation_busy,
            filter_busy: filter_out.busy,
            quant_busy,
            spmv: kernel_usage.spmv_time,
            ..Timings::default()
        },
        stats,
    })
}
