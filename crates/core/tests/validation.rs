//! Cross-validation of the scalable analysis against the exact product
//! chain semantics (§III-C) and the Monte-Carlo simulator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdft_core::{analyze, quantify_cutset, AnalysisOptions, QuantifyOptions};
use sdft_ctmc::erlang;
use sdft_ft::{Cutset, FaultTree, FaultTreeBuilder, NodeId};
use sdft_mocus::MocusOptions;
use sdft_product::{ProductChain, ProductOptions};

fn example3() -> FaultTree {
    let mut b = FaultTreeBuilder::new();
    let a = b.static_event("a", 3e-3).unwrap();
    let bb = b
        .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
        .unwrap();
    let c = b.static_event("c", 3e-3).unwrap();
    let d = b
        .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
        .unwrap();
    let e = b.static_event("e", 3e-6).unwrap();
    let p1 = b.or("pump1", [a, bb]).unwrap();
    let p2 = b.or("pump2", [c, d]).unwrap();
    let pumps = b.and("pumps", [p1, p2]).unwrap();
    let top = b.or("cooling", [pumps, e]).unwrap();
    b.trigger(p1, d).unwrap();
    b.top(top);
    b.build().unwrap()
}

fn ids(tree: &FaultTree, names: &[&str]) -> Vec<NodeId> {
    names
        .iter()
        .map(|n| tree.node_by_name(n).unwrap())
        .collect()
}

#[test]
fn example3_frequency_brackets_the_exact_probability() {
    let t = example3();
    let exact = sdft_product::failure_probability(&t, 24.0, &ProductOptions::default()).unwrap();
    let mut opts = AnalysisOptions::new(24.0);
    opts.mocus = MocusOptions::exhaustive();
    let result = analyze(&t, &opts).unwrap();
    // Rare-event approximation over cutsets: close to and not far below
    // the exact value.
    assert!(
        result.frequency >= exact * 0.999,
        "frequency {} vs exact {exact}",
        result.frequency
    );
    assert!(
        result.frequency <= exact * 1.05,
        "frequency {} vs exact {exact}",
        result.frequency
    );
    // And strictly sharper than the static worst-case analysis.
    assert!(result.frequency < result.static_rea);
}

#[test]
fn per_cutset_quantification_matches_exact_reference() {
    // For cutsets whose triggering is decided inside the cutset, p̃(C)
    // equals Pr[Reach≤t(Failed(C))] on the full product chain.
    let t = example3();
    let ctx = sdft_core::FtcContext::new(&t).unwrap();
    let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
    let qopts = QuantifyOptions::new(24.0);

    // {a, d}: trigger fired at 0 by the static a ∈ C.
    let c = Cutset::new(ids(&t, &["a", "d"]));
    let ours = quantify_cutset(&t, &ctx, &c, &qopts).unwrap().probability;
    let reference = pc
        .reach_events_failed_probability(&ids(&t, &["a", "d"]), 24.0, 1e-12)
        .unwrap();
    assert!(
        (ours - reference).abs() / reference < 1e-6,
        "{{a,d}}: {ours} vs {reference}"
    );

    // {b, c}: no triggering involved at all.
    let c = Cutset::new(ids(&t, &["b", "c"]));
    let ours = quantify_cutset(&t, &ctx, &c, &qopts).unwrap().probability;
    let reference = pc
        .reach_events_failed_probability(&ids(&t, &["b", "c"]), 24.0, 1e-12)
        .unwrap();
    assert!(
        (ours - reference).abs() / reference < 1e-6,
        "{{b,c}}: {ours} vs {reference}"
    );

    // {e}: purely static.
    let c = Cutset::new(ids(&t, &["e"]));
    let ours = quantify_cutset(&t, &ctx, &c, &qopts).unwrap().probability;
    assert!((ours - 3e-6).abs() < 1e-15);

    // {b, d}: the static-branching rule conditions the guard static a
    // out (assumed functional); the result is a slight under-count of
    // the reference, bounded by p(a) (those worlds are covered by the
    // {a, d} cutset).
    let c = Cutset::new(ids(&t, &["b", "d"]));
    let ours = quantify_cutset(&t, &ctx, &c, &qopts).unwrap().probability;
    let reference = pc
        .reach_events_failed_probability(&ids(&t, &["b", "d"]), 24.0, 1e-12)
        .unwrap();
    assert!(
        ours <= reference * (1.0 + 1e-9),
        "{{b,d}}: {ours} vs {reference}"
    );
    assert!(
        (reference - ours) / reference < 3e-3 * 2.0,
        "under-count must be bounded by the guard probability"
    );
}

#[test]
fn quantify_cutset_matches_analyze_bitwise() {
    // The public per-cutset entry point runs the same solve as the
    // analysis, so it must honour steady-state detection exactly as
    // `analyze` does. At h = 1000 detection fires on the dynamic cutsets.
    let t = example3();
    let ctx = sdft_core::FtcContext::new(&t).unwrap();
    for steady_state_detection in [true, false] {
        let mut opts = AnalysisOptions::new(1000.0);
        opts.steady_state_detection = steady_state_detection;
        let result = analyze(&t, &opts).unwrap();
        let mut qopts = QuantifyOptions::new(1000.0);
        qopts.steady_state_detection = steady_state_detection;
        assert_eq!(result.cutsets.len(), 5);
        for report in &result.cutsets {
            let q = quantify_cutset(&t, &ctx, &report.cutset, &qopts).unwrap();
            assert_eq!(
                q.probability.to_bits(),
                report.probability.to_bits(),
                "cutset {:?}, steady-state detection {steady_state_detection}: {} vs {}",
                report.cutset.events(),
                q.probability,
                report.probability
            );
            assert_eq!(q.chain_states, report.chain_states);
        }
    }
}

#[test]
fn general_case_quantification_is_exact() {
    // Trigger gate = OR(AND(b, dstat), b2): the general case keeps every
    // subtree event, so p̃({e}) must equal the exact reference.
    let mut b = FaultTreeBuilder::new();
    let bb = b
        .dynamic_event("b", erlang::repairable(1, 5e-3, 0.1).unwrap())
        .unwrap();
    let dstat = b.static_event("dstat", 0.2).unwrap();
    let b2 = b
        .dynamic_event("b2", erlang::repairable(1, 3e-3, 0.05).unwrap())
        .unwrap();
    let inner = b.and("inner", [bb, dstat]).unwrap();
    let g = b.or("g", [inner, b2]).unwrap();
    let e = b
        .triggered_event("e", erlang::spare(4e-3, 0.02).unwrap())
        .unwrap();
    let top = b.and("top", [g, e]).unwrap();
    b.trigger(g, e).unwrap();
    b.top(top);
    let t = b.build().unwrap();

    let ctx = sdft_core::FtcContext::new(&t).unwrap();
    let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
    let c = Cutset::new(ids(&t, &["e"]));
    let ours = quantify_cutset(&t, &ctx, &c, &QuantifyOptions::new(48.0)).unwrap();
    assert!(ours.used_general);
    let reference = pc
        .reach_events_failed_probability(&ids(&t, &["e"]), 48.0, 1e-12)
        .unwrap();
    assert!(
        (ours.probability - reference).abs() / reference < 1e-6,
        "{} vs {reference}",
        ours.probability
    );
}

#[test]
fn static_joins_chain_quantification_matches_reference() {
    // Figure 1 right (3): train1 = OR(p1, g1) (both dynamic, static
    // joins) triggers both events of train2 = OR(p2, g2) — uniform
    // triggering. Quantify the all-dynamic cutset and compare.
    let mut b = FaultTreeBuilder::new();
    let p1 = b
        .dynamic_event("p1", erlang::repairable(1, 4e-3, 0.1).unwrap())
        .unwrap();
    let g1 = b
        .dynamic_event("g1", erlang::repairable(1, 6e-3, 0.08).unwrap())
        .unwrap();
    let train1 = b.or("train1", [p1, g1]).unwrap();
    let p2 = b
        .triggered_event("p2", erlang::spare(5e-3, 0.09).unwrap())
        .unwrap();
    let g2 = b
        .triggered_event("g2", erlang::spare(7e-3, 0.07).unwrap())
        .unwrap();
    let train2 = b.or("train2", [p2, g2]).unwrap();
    let top = b.and("top", [train1, train2]).unwrap();
    b.trigger(train1, p2).unwrap();
    b.trigger(train1, g2).unwrap();
    b.top(top);
    let t = b.build().unwrap();

    let ctx = sdft_core::FtcContext::new(&t).unwrap();
    let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
    for cutset_names in [["p1", "p2"], ["p1", "g2"], ["g1", "p2"], ["g1", "g2"]] {
        let events = ids(&t, &cutset_names);
        let c = Cutset::new(events.clone());
        let ours = quantify_cutset(&t, &ctx, &c, &QuantifyOptions::new(48.0)).unwrap();
        // Static joins: the sibling dynamic event must be in the model.
        assert_eq!(ours.cutset_dynamic, 2);
        assert_eq!(ours.added_dynamic, 1, "{cutset_names:?}");
        let reference = pc
            .reach_events_failed_probability(&events, 48.0, 1e-12)
            .unwrap();
        assert!(
            (ours.probability - reference).abs() / reference < 1e-6,
            "{cutset_names:?}: {} vs {reference}",
            ours.probability
        );
    }
}

/// Random small SD fault trees: the analysis must stay within a tight
/// band around the exact product-chain probability.
#[test]
fn randomized_trees_stay_close_to_exact() {
    let mut rng = StdRng::seed_from_u64(20150622);
    let mut checked = 0;
    for attempt in 0..60 {
        let Some(tree) = random_sd_tree(&mut rng, attempt) else {
            continue;
        };
        let exact = match sdft_product::failure_probability(
            &tree,
            24.0,
            &ProductOptions {
                max_states: 200_000,
            },
        ) {
            Ok(p) => p,
            Err(_) => continue, // state budget: skip oversized draws
        };
        if exact < 1e-10 {
            continue;
        }
        let mut opts = AnalysisOptions::new(24.0);
        opts.mocus = MocusOptions::exhaustive();
        opts.threads = 1;
        let result = analyze(&tree, &opts).unwrap();
        let ratio = result.frequency / exact;
        assert!(
            (0.95..=1.35).contains(&ratio),
            "attempt {attempt}: frequency {} vs exact {exact} (ratio {ratio})",
            result.frequency
        );
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} random trees checked");
}

/// Build a random SD fault tree with 3-6 statics, 1-2 plain dynamics and
/// 0-2 triggered events, shaped like a two-layer system-of-trains model.
fn random_sd_tree(rng: &mut StdRng, salt: usize) -> Option<FaultTree> {
    let mut b = FaultTreeBuilder::new();
    let num_static = rng.gen_range(3..=6);
    let num_plain = rng.gen_range(1..=2);
    let num_triggered = rng.gen_range(0..=2);

    let mut leaves = Vec::new();
    for i in 0..num_static {
        let p = rng.gen_range(0.005..0.08);
        leaves.push(b.static_event(&format!("s{salt}_{i}"), p).unwrap());
    }
    for i in 0..num_plain {
        let lambda = rng.gen_range(1e-3..8e-3);
        let mu = if rng.gen_bool(0.5) {
            rng.gen_range(0.01..0.1)
        } else {
            0.0
        };
        let chain = erlang::repairable(rng.gen_range(1..=2), lambda, mu).unwrap();
        leaves.push(b.dynamic_event(&format!("p{salt}_{i}"), chain).unwrap());
    }
    let mut triggered = Vec::new();
    for i in 0..num_triggered {
        let lambda = rng.gen_range(1e-3..2e-2);
        let mu = rng.gen_range(0.01..0.1);
        let chain = erlang::spare(lambda, mu).unwrap();
        triggered.push(b.triggered_event(&format!("d{salt}_{i}"), chain).unwrap());
    }

    // Two trains over the untriggered leaves.
    let half = leaves.len() / 2;
    let (left, right) = leaves.split_at(half.max(1));
    let t1 = b.or(&format!("t1_{salt}"), left.iter().copied()).unwrap();
    let t2 = if right.is_empty() {
        t1
    } else {
        b.or(&format!("t2_{salt}"), right.iter().copied()).unwrap()
    };
    // Triggered events form a backup train, triggered by train 1.
    let top = if triggered.is_empty() {
        b.and(&format!("top_{salt}"), [t1, t2]).unwrap()
    } else {
        let backup = b
            .or(&format!("bk_{salt}"), triggered.iter().copied())
            .unwrap();
        for &d in &triggered {
            b.trigger(t1, d).unwrap();
        }
        b.and(&format!("top_{salt}"), [t1, t2, backup]).unwrap()
    };
    b.top(top);
    b.build().ok()
}

/// Chained triggering (the step-3 recursion of §V-C): a primary train
/// triggers the first backup, whose own demand gate triggers the second
/// backup. Every dynamic cutset must match the exact reference.
#[test]
fn chained_triggering_matches_reference() {
    let mut b = FaultTreeBuilder::new();
    let p0 = b
        .dynamic_event("p0", erlang::repairable(1, 6e-3, 0.1).unwrap())
        .unwrap();
    let t0 = b.or("t0", [p0]).unwrap();
    let p1 = b
        .triggered_event("p1", erlang::spare(5e-3, 0.08).unwrap())
        .unwrap();
    let t1 = b.or("t1", [p1]).unwrap();
    let p2 = b
        .triggered_event("p2", erlang::spare(4e-3, 0.06).unwrap())
        .unwrap();
    let t2 = b.or("t2", [p2]).unwrap();
    let top = b.and("top", [t0, t1, t2]).unwrap();
    b.trigger(t0, p1).unwrap();
    b.trigger(t1, p2).unwrap();
    b.top(top);
    let tree = b.build().unwrap();

    let horizon = 96.0;
    let pc = ProductChain::build(&tree, &ProductOptions::default()).unwrap();
    let ctx = sdft_core::FtcContext::new(&tree).unwrap();
    let events = ids(&tree, &["p0", "p1", "p2"]);
    let cutset = Cutset::new(events.clone());
    let ours = quantify_cutset(&tree, &ctx, &cutset, &QuantifyOptions::new(horizon)).unwrap();
    let reference = pc
        .reach_events_failed_probability(&events, horizon, 1e-12)
        .unwrap();
    assert!(
        (ours.probability - reference).abs() / reference < 1e-6,
        "{} vs {reference}",
        ours.probability
    );
    // The whole pipeline agrees with the exact top probability (single
    // cutset, so no REA slack at all).
    let mut opts = AnalysisOptions::new(horizon);
    opts.mocus = MocusOptions::exhaustive();
    let result = analyze(&tree, &opts).unwrap();
    assert_eq!(result.stats.num_cutsets, 1);
    let exact = pc
        .reach_events_failed_probability(&events, horizon, 1e-12)
        .unwrap();
    assert!((result.frequency - exact).abs() / exact < 1e-6);
}

/// Uniform triggering chains (Figure 1 right (3)): two trains of two
/// dynamic components each, the whole second train triggered by the
/// first; the third stage triggered by the second train. The per-cutset
/// models stay small (no general-case fallback) and exact.
#[test]
fn uniform_triggering_chain_is_exact_without_general_fallback() {
    let mut b = FaultTreeBuilder::new();
    let p1 = b
        .dynamic_event("p1", erlang::repairable(1, 5e-3, 0.1).unwrap())
        .unwrap();
    let g1 = b
        .dynamic_event("g1", erlang::repairable(1, 6e-3, 0.12).unwrap())
        .unwrap();
    let train1 = b.or("train1", [p1, g1]).unwrap();
    let p2 = b
        .triggered_event("p2", erlang::spare(5e-3, 0.09).unwrap())
        .unwrap();
    let g2 = b
        .triggered_event("g2", erlang::spare(6e-3, 0.11).unwrap())
        .unwrap();
    let train2 = b.or("train2", [p2, g2]).unwrap();
    let p3 = b
        .triggered_event("p3", erlang::spare(4e-3, 0.07).unwrap())
        .unwrap();
    let train3 = b.or("train3", [p3]).unwrap();
    let top = b.and("top", [train1, train2, train3]).unwrap();
    b.trigger(train1, p2).unwrap();
    b.trigger(train1, g2).unwrap();
    b.trigger(train2, p3).unwrap();
    b.top(top);
    let tree = b.build().unwrap();

    // train2 has static joins with uniform triggering: modeling p3's
    // trigger pulls in p2/g2, whose shared gate is then just referenced.
    let train2_id = tree.node_by_name("train2").unwrap();
    assert_eq!(
        sdft_core::classify_gate(&tree, train2_id),
        sdft_core::TriggerClass::StaticJoinsUniform
    );

    let horizon = 72.0;
    let pc = ProductChain::build(&tree, &ProductOptions::default()).unwrap();
    let ctx = sdft_core::FtcContext::new(&tree).unwrap();
    for names in [
        ["p1", "p2", "p3"],
        ["g1", "g2", "p3"],
        ["p1", "g2", "p3"],
        ["g1", "p2", "p3"],
    ] {
        let events = ids(&tree, &names);
        let cutset = Cutset::new(events.clone());
        let ours = quantify_cutset(&tree, &ctx, &cutset, &QuantifyOptions::new(horizon)).unwrap();
        assert!(!ours.used_general, "{names:?} must avoid the general case");
        let reference = pc
            .reach_events_failed_probability(&events, horizon, 1e-12)
            .unwrap();
        assert!(
            (ours.probability - reference).abs() / reference < 1e-6,
            "{names:?}: {} vs {reference}",
            ours.probability
        );
    }
}
