//! The traced replay: the analysis pipeline run single-threaded through
//! each layer's public functions, with a span around every call.
//!
//! The replay follows the batch path of `analyze_horizons` step for
//! step — worst-case probabilities, translation, cutset generation by
//! the workload's backend, `FT_C` construction and cached
//! quantification per cutset in canonical order, then the stable
//! descending-probability sort and the summation — so its cutset list
//! and frequency must equal `analyze`'s bit for bit.
//!
//! Product-chain construction and the CTMC solve happen inside
//! `quantify_model_many_with`, which exposes no span. A separate
//! attribution pass afterwards builds and solves the chain of each distinct
//! model class once through `ProductChain::build` and
//! `failure_probability_many_with`; those spans sit outside the replay's
//! root and are not part of `trace.serial_total_s`.

use crate::trace::{SpanId, Trace};
use sdft_bdd::{BddError, CutsetLimits, ModularBdd, ModularBddBuilder, ModularBddStats};
use sdft_core::{
    build_ftc_with, draft_plan, quantify_model_many_with, translate, worst_case_probabilities,
    AnalysisOptions, Backend, BackendChoice, CacheLookup, FtcContext, QuantCache, QuantifyOptions,
    Translated,
};
use sdft_ctmc::{SolverOptions, SolverWorkspace};
use sdft_ft::{module_profiles, Cutset, CutsetList, EventProbabilities, FaultTree, NodeId};
use sdft_mocus::{minimal_cutsets_with_stats, module_cutsets, MocusOptions, MocusStats};
use sdft_product::{ProductChain, ProductOptions};
use std::collections::HashMap;
use std::error::Error;
use std::time::Duration;

/// The cutoff slack the hybrid backend gives its module-scoped MOCUS
/// runs (a private constant of `sdft-core`, mirrored here).
const SUBMODULE_SLACK: f64 = 1e-9;

/// Named per-layer values in emission order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Set `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What the replay answered, and what it measured.
pub struct Replayed {
    /// Minimal cutsets in original ids, canonical order.
    pub cutsets: Vec<Cutset>,
    /// (index into `cutsets`, probability), sorted as `analyze` reports
    /// them.
    pub reports: Vec<(usize, f64)>,
    /// The rare-event sum in reported order.
    pub frequency: f64,
    /// The exact static probability (BDD and hybrid backends, when the
    /// composition is exact).
    pub exact: Option<f64>,
    /// The span record.
    pub trace: Trace,
    /// The per-layer values derived from it.
    pub metrics: Metrics,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The probabilities over `FT̄` under which the pipeline evaluates the
/// exact static probability: the translated tree's own probabilities
/// with every original basic event set to its worst case.
fn exact_probe(
    tree: &FaultTree,
    translated: &Translated,
    probs: &EventProbabilities,
) -> Result<EventProbabilities, Box<dyn Error>> {
    let mut probe = EventProbabilities::from_static(&translated.tree)?;
    for event in tree.basic_events() {
        probe.set(translated.from_original[&event], probs.get(event))?;
    }
    Ok(probe)
}

/// The exact static probability computed directly through the BDD
/// layer (the reference for the BDD workload).
pub fn direct_exact(tree: &FaultTree, options: &AnalysisOptions) -> Result<f64, Box<dyn Error>> {
    let probs = worst_case_probabilities(tree, options.horizon, options.epsilon)?;
    let translated = translate(tree, &probs)?;
    let probe = exact_probe(tree, &translated, &probs)?;
    Ok(ModularBdd::with_options(&translated.tree, &options.bdd)?.exact_probability(&probe))
}

/// Whether a cutset survives the cutoff and order limits (the BDD
/// backends' post-filter, which restores MOCUS parity).
fn keeps(options: &MocusOptions, cutset: &Cutset, probs: &EventProbabilities) -> bool {
    if options.max_order.is_some_and(|max| cutset.order() > max) {
        return false;
    }
    !options
        .cutoff
        .is_some_and(|cutoff| cutset.probability_with(|e| probs.get(e)) <= cutoff)
}

/// Enumerate a built composition's cutsets within the limits, in
/// canonical (order, events) order.
fn enumerate(
    modular: &mut ModularBdd,
    options: &MocusOptions,
    probs: &EventProbabilities,
) -> Result<CutsetList, BddError> {
    let limits = CutsetLimits {
        cutoff: options.cutoff,
        max_order: options.max_order,
    };
    let mut cutsets: Vec<Cutset> = Vec::new();
    modular.stream_minimal_cutsets_bounded(
        usize::MAX,
        |e| probs.get(e),
        &limits,
        |batch| {
            cutsets.extend(batch.drain(..).filter(|c| keeps(options, c, probs)));
            true
        },
    )?;
    cutsets.sort_unstable_by(|a, b| {
        a.order()
            .cmp(&b.order())
            .then_with(|| a.events().cmp(b.events()))
    });
    Ok(cutsets.into_iter().collect())
}

fn record_mocus(m: &mut Metrics, stats: &MocusStats, cutsets: usize) {
    m.set("mocus.partials", stats.partials_processed as f64);
    m.set("mocus.pruned", stats.partials_pruned as f64);
    m.set("mocus.candidates", stats.cutset_candidates as f64);
    m.set("mocus.cutsets", cutsets as f64);
    m.set(
        "mocus.useful_ratio",
        ratio(cutsets as f64, stats.cutset_candidates as f64),
    );
    m.set(
        "mocus.subsumption_comparisons",
        stats.subsumption_comparisons as f64,
    );
    m.set("mocus.minimize_s", secs(stats.minimize_time));
}

fn record_bdd(m: &mut Metrics, stats: &ModularBddStats) {
    m.set("bdd.total_nodes", stats.total_nodes as f64);
    m.set("bdd.max_module_nodes", stats.max_module_nodes as f64);
    m.set("bdd.sift_passes", stats.sift_passes as f64);
    m.set("bdd.sift_swaps", stats.sift_swaps as f64);
    m.set(
        "bdd.apply_hit_rate",
        ratio(
            stats.apply_hits as f64,
            (stats.apply_hits + stats.apply_misses) as f64,
        ),
    );
}

/// The hybrid backend's composition, through its public pieces: the
/// planner, per-module BDD builds (re-planned to MOCUS on a node-budget
/// failure) and module-scoped MOCUS runs. Everything else in the loop is
/// glue and lands in the `generate` span's self time.
fn hybrid(
    t: &mut Trace,
    gen: SpanId,
    tree: &FaultTree,
    probs: &EventProbabilities,
    options: &AnalysisOptions,
    mocus_options: &MocusOptions,
    m: &mut Metrics,
) -> Result<ModularBdd, Box<dyn Error>> {
    let (profiles, mut plan) = t.span("planner.plan", Some(gen), || {
        (
            module_profiles(tree),
            draft_plan(tree, options.bdd.max_nodes),
        )
    });
    let mut builder = t.time("bdd.build", gen, || {
        ModularBddBuilder::new(tree, &options.bdd)
    });
    let sub_options = MocusOptions {
        cutoff: mocus_options.cutoff.map(|c| c * (1.0 - SUBMODULE_SLACK)),
        ..*mocus_options
    };
    let mut weights: HashMap<NodeId, f64> = HashMap::new();
    let mut mocus = MocusStats::default();
    let mut mocus_sets = 0usize;
    for (i, profile) in profiles.iter().enumerate() {
        let entry = &mut plan.entries[i];
        let mut external = entry.choice == BackendChoice::Mocus;
        if !external {
            match t.time("bdd.build", gen, || builder.build_module(i)) {
                Ok(_) => {}
                Err(BddError::NodeBudget { .. }) => {
                    entry.choice = BackendChoice::Mocus;
                    external = true;
                }
                Err(error) => return Err(error.into()),
            }
        }
        if external {
            let boundary: Vec<(NodeId, f64)> =
                profile.nested.iter().map(|&n| (n, weights[&n])).collect();
            let out = t.time("mocus.generate", gen, || {
                module_cutsets(tree, profile.gate, &boundary, probs, &sub_options)
            })?;
            mocus.partials_processed += out.stats.partials_processed;
            mocus.partials_pruned += out.stats.partials_pruned;
            mocus.cutset_candidates += out.stats.cutset_candidates;
            mocus.subsumption_comparisons += out.stats.subsumption_comparisons;
            mocus.minimize_time += out.stats.minimize_time;
            mocus_sets += out.sets.len();
            t.time("bdd.build", gen, || builder.set_external(i, out.sets))?;
        }
        let weight = |e: NodeId| weights.get(&e).copied().unwrap_or_else(|| probs.get(e));
        let w = t.time("bdd.build", gen, || {
            builder.max_solution_probability(i, &weight)
        })?;
        weights.insert(profile.gate, w);
    }
    let modular = t.time("bdd.build", gen, || builder.finish())?;
    let exact_modules = modular
        .module_probabilities_with(|e| probs.get(e))
        .iter()
        .filter(|mp| mp.exact)
        .count();
    record_mocus(m, &mocus, mocus_sets);
    m.set("planner.modules", plan.entries.len() as f64);
    m.set("planner.bdd_modules", plan.built_modules() as f64);
    m.set("planner.mocus_modules", plan.external_modules() as f64);
    m.set("planner.exact_modules", exact_modules as f64);
    m.set(
        "planner.max_estimate_nodes",
        plan.entries
            .iter()
            .map(|e| e.score.estimated_nodes)
            .max()
            .unwrap_or(0) as f64,
    );
    Ok(modular)
}

/// Every per-layer metric the traced run emits, so a layer a workload
/// never enters still reports 0.
pub const LAYER_METRICS: [&str; 47] = [
    "ft.parse_s",
    "ft.model_bytes",
    "ft.gates",
    "ft.basic_events",
    "translate.worst_case_s",
    "translate.translate_s",
    "planner.plan_s",
    "planner.modules",
    "planner.bdd_modules",
    "planner.mocus_modules",
    "planner.exact_modules",
    "planner.max_estimate_nodes",
    "mocus.generate_s",
    "mocus.partials",
    "mocus.pruned",
    "mocus.candidates",
    "mocus.cutsets",
    "mocus.useful_ratio",
    "mocus.subsumption_comparisons",
    "mocus.minimize_s",
    "bdd.build_s",
    "bdd.enumerate_s",
    "bdd.total_nodes",
    "bdd.max_module_nodes",
    "bdd.sift_passes",
    "bdd.sift_swaps",
    "bdd.apply_hit_rate",
    "ftc.context_s",
    "ftc.build_s",
    "ftc.per_cutset_us",
    "ftc.dynamic_models",
    "ftc.avg_model_dynamic",
    "quant.s",
    "quant.self_s",
    "cache.classes",
    "cache.hits",
    "cache.misses",
    "cache.hit_rate",
    "product.build_s",
    "product.states",
    "product.max_states",
    "ctmc.solve_s",
    "ctmc.steps",
    "ctmc.steps_saved",
    "ctmc.spmv_nonzeros",
    "ctmc.nonzeros_per_s",
    "trace.serial_total_s",
];

/// Replay the single-threaded batch analysis of `tree` under `options`.
pub fn replay(tree: &FaultTree, options: &AnalysisOptions) -> Result<Replayed, Box<dyn Error>> {
    let horizons = [options.horizon];
    let mut m = Metrics::default();
    for name in LAYER_METRICS {
        m.set(name, 0.0);
    }
    let mut t = Trace::new();
    let root = t.open("replay", None);

    let probs = t.span("translate.worst_case", Some(root), || {
        worst_case_probabilities(tree, options.horizon, options.epsilon)
    })?;
    let translated = t.span("translate.translate", Some(root), || {
        translate(tree, &probs)
    })?;
    let ctx = t.span("ftc.context", Some(root), || FtcContext::new(tree))?;

    let gen = t.open("generate", Some(root));
    let static_probs = EventProbabilities::from_static(&translated.tree)?;
    let mocus_options = MocusOptions {
        threads: 1,
        ..options.mocus
    };
    let (mcs, exact) = match options.backend {
        Backend::Mocus => {
            let (mcs, stats) = t.span("mocus.generate", Some(gen), || {
                minimal_cutsets_with_stats(&translated.tree, &static_probs, &mocus_options)
            })?;
            record_mocus(&mut m, &stats, mcs.len());
            (mcs, None)
        }
        Backend::Bdd | Backend::Hybrid => {
            let probe = exact_probe(tree, &translated, &probs)?;
            let (mut modular, exact) = if options.backend == Backend::Bdd {
                let modular = t.span("bdd.build", Some(gen), || {
                    ModularBdd::with_options(&translated.tree, &options.bdd)
                })?;
                let exact = modular.exact_probability(&probe);
                (modular, Some(exact))
            } else {
                let modular = hybrid(
                    &mut t,
                    gen,
                    &translated.tree,
                    &static_probs,
                    options,
                    &mocus_options,
                    &mut m,
                )?;
                let exact = modular
                    .module_probabilities_with(|e| probe.get(e))
                    .last()
                    .and_then(|mp| mp.exact.then_some(mp.probability));
                (modular, exact)
            };
            record_bdd(&mut m, &modular.stats());
            let mcs = t.span("bdd.enumerate", Some(gen), || {
                enumerate(&mut modular, &mocus_options, &static_probs)
            })?;
            (mcs, exact)
        }
    };
    let cutsets: Vec<Cutset> = translated.cutsets_to_original(&mcs).into_iter().collect();
    t.close(gen);

    let quant = t.open("quantify", Some(root));
    let qopts = QuantifyOptions {
        horizon: options.horizon,
        epsilon: options.epsilon,
        max_states: options.max_chain_states,
        treatment: options.treatment,
        steady_state_detection: options.steady_state_detection,
    };
    let cache = QuantCache::new();
    let mut workspace = SolverWorkspace::new();
    let mut probabilities: Vec<f64> = Vec::with_capacity(cutsets.len());
    // The model trees of the cutsets that solved a class, kept for the
    // attribution pass.
    let mut misses: Vec<FaultTree> = Vec::new();
    let (mut dynamic_models, mut model_dynamic) = (0usize, 0usize);
    for cutset in &cutsets {
        let model = t.time("ftc.build", quant, || {
            build_ftc_with(tree, &ctx, cutset, options.treatment)
        })?;
        let (quantified, lookup, _) = t.time("quant", quant, || {
            quantify_model_many_with(
                tree,
                &model,
                &horizons,
                &qopts,
                Some(&cache),
                &mut workspace,
            )
        })?;
        let dynamic = model.dynamic_events.len() + model.added_dynamic;
        if dynamic > 0 {
            dynamic_models += 1;
            model_dynamic += dynamic;
        }
        probabilities.push(quantified[0].probability);
        if lookup == CacheLookup::Miss {
            misses.extend(model.tree);
        }
    }
    t.close(quant);

    let assemble = t.open("assemble", Some(root));
    let mut reports: Vec<(usize, f64)> = probabilities.into_iter().enumerate().collect();
    // Stable, like the pipeline's sort of its canonical-order reports.
    reports.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    // `Sum for f64` folds from -0.0, as in the pipeline.
    let frequency = reports.iter().map(|&(_, p)| p).sum::<f64>() + 0.0;
    t.close(assemble);
    t.close(root);

    let attribution = t.open("attribution", None);
    let solver = SolverOptions {
        steady_state_detection: options.steady_state_detection,
    };
    let product_options = ProductOptions {
        max_states: options.max_chain_states,
    };
    let (mut states, mut max_states) = (0usize, 0usize);
    let (mut steps, mut saved, mut nonzeros) = (0u64, 0u64, 0u64);
    let mut spmv = Duration::ZERO;
    for ftc in &misses {
        let chain = t.time("product.build", attribution, || {
            ProductChain::build(ftc, &product_options)
        })?;
        states += chain.num_states();
        max_states = max_states.max(chain.num_states());
        let (_, stats) = t.time("ctmc.solve", attribution, || {
            chain.failure_probability_many_with(&horizons, options.epsilon, &solver, &mut workspace)
        })?;
        steps += stats.steps_taken as u64;
        saved += stats.steps_saved() as u64;
        nonzeros += stats.spmv_nonzeros;
        spmv += stats.spmv_time;
    }
    t.close(attribution);

    m.set(
        "translate.worst_case_s",
        secs(t.total("translate.worst_case")),
    );
    m.set(
        "translate.translate_s",
        secs(t.total("translate.translate")),
    );
    m.set("planner.plan_s", secs(t.total("planner.plan")));
    m.set("mocus.generate_s", secs(t.total("mocus.generate")));
    m.set("bdd.build_s", secs(t.total("bdd.build")));
    m.set("bdd.enumerate_s", secs(t.total("bdd.enumerate")));
    m.set("ftc.context_s", secs(t.total("ftc.context")));
    let ftc_build = secs(t.total("ftc.build"));
    m.set("ftc.build_s", ftc_build);
    m.set(
        "ftc.per_cutset_us",
        ratio(ftc_build * 1e6, cutsets.len() as f64),
    );
    m.set("ftc.dynamic_models", dynamic_models as f64);
    m.set(
        "ftc.avg_model_dynamic",
        ratio(model_dynamic as f64, dynamic_models as f64),
    );
    let cache_stats = cache.stats();
    m.set("cache.classes", cache_stats.distinct_classes as f64);
    m.set("cache.hits", cache_stats.hits as f64);
    m.set("cache.misses", cache_stats.misses as f64);
    m.set("cache.hit_rate", cache_stats.hit_rate());
    let product = secs(t.total("product.build"));
    let ctmc = secs(t.total("ctmc.solve"));
    let quant_s = secs(t.total("quant"));
    m.set("quant.s", quant_s);
    m.set("quant.self_s", quant_s - product - ctmc);
    m.set("product.build_s", product);
    m.set("product.states", states as f64);
    m.set("product.max_states", max_states as f64);
    m.set("ctmc.solve_s", ctmc);
    m.set("ctmc.steps", steps as f64);
    m.set("ctmc.steps_saved", saved as f64);
    m.set("ctmc.spmv_nonzeros", nonzeros as f64);
    m.set("ctmc.nonzeros_per_s", ratio(nonzeros as f64, secs(spmv)));
    m.set("trace.serial_total_s", secs(t.duration(root)));
    let glue: Duration = ["replay", "generate", "quantify", "assemble"]
        .iter()
        .flat_map(|name| t.spans_named(name).collect::<Vec<_>>())
        .map(|span| t.self_time(span))
        .sum();
    m.set("trace.unattributed_s", secs(glue));

    Ok(Replayed {
        cutsets,
        reports,
        frequency,
        exact,
        trace: t,
        metrics: m,
    })
}
