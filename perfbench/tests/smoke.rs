//! Smoke test of the benchmark at tiny sizes: every workload runs once
//! untraced and once traced with no wrong answer, the emitted metric
//! names and units match `BENCHMARK.json` both ways, `layer_map.json`
//! maps exactly the per-layer metrics, and the workload texts are the
//! queries the repository's generators build.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use oorq_datagen::{ChainDb, ClosureConfig, ClosureDb, MusicDb};
use oorq_obs::json::Json;
use oorq_perfbench::workload::{chain_config, music_config, Scale, Workload, ALL};
use oorq_perfbench::{run, Options, Outcome};
use oorq_query::paper::{fig3_query, influencer_view, music_catalog, sec45_pushjoin_query};
use oorq_query::{parse_query, QueryGraph};
use oorq_schema::Catalog;
use oorq_serve::canonical_text;

fn read_json(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&src).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn listed(bench: &Json, key: &str) -> BTreeMap<String, String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(out: &Outcome) -> BTreeMap<String, String> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let o = Options {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        out_dir: None,
    };
    let out = run(&o).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(out.attempted > 0, "{}: no request sent", workload.name());
    assert_eq!(
        out.error_rate(),
        0.0,
        "{}: {:?}",
        workload.name(),
        out.notes
    );
    out
}

#[test]
fn every_workload_runs_correctly_and_matches_the_ledger() {
    let bench = read_json("../BENCHMARK.json");
    let end_to_end = listed(&bench, "end_to_end");
    let per_layer = listed(&bench, "per_layer");
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours, "BENCHMARK.json workloads");

    for w in ALL {
        assert_eq!(
            emitted(&tiny(w, false)),
            end_to_end,
            "{}: end-to-end metrics",
            w.name()
        );
        assert_eq!(
            emitted(&tiny(w, true)),
            per_layer,
            "{}: per-layer metrics",
            w.name()
        );
    }
}

#[test]
fn layer_map_covers_exactly_the_per_layer_metrics() {
    let bench = read_json("../BENCHMARK.json");
    let per_layer = listed(&bench, "per_layer");
    let end_to_end = listed(&bench, "end_to_end");
    let map = read_json("layer_map.json");
    let Some(Json::Obj(entries)) = map.get("per_layer") else {
        panic!("layer_map.json: no per_layer object");
    };
    let mapped: Vec<&String> = entries.iter().map(|(k, _)| k).collect();
    let want: Vec<&String> = per_layer.keys().collect();
    let mut sorted = mapped.clone();
    sorted.sort();
    assert_eq!(sorted, want, "layer_map.json per_layer keys");
    for (name, e) in entries {
        let moves = e.get("moves").and_then(Json::as_arr).expect("moves");
        assert!(!moves.is_empty(), "{name}: moves nothing");
        for m in moves {
            let metric = m.get("metric").and_then(Json::as_str).expect("metric");
            assert!(
                end_to_end.contains_key(metric),
                "{name}: unknown metric {metric}"
            );
            for w in m.get("on").and_then(Json::as_arr).expect("on") {
                let w = w.as_str().expect("workload name");
                assert!(Workload::parse(w).is_some(), "{name}: unknown workload {w}");
            }
        }
    }
}

fn same(text: &str, graph: &QueryGraph, catalog: &Catalog) {
    let parsed = parse_query(catalog, text).expect("workload text parses");
    assert_eq!(canonical_text(&parsed), canonical_text(graph), "{text}");
}

#[test]
fn workload_texts_are_the_generators_queries() {
    let w = Workload::MusicWarm;
    let plan = w.plan(7, Scale::Tiny);
    let m = MusicDb::generate(Arc::new(music_catalog()), music_config(w, 7, Scale::Tiny));
    let cat = m.db.catalog();
    let expanded = |mut q: QueryGraph| {
        influencer_view(cat)
            .expand(&mut q, cat)
            .expect("view expands");
        q
    };
    same(&plan.queries[0], &expanded(fig3_query(cat)), cat);
    same(&plan.queries[1], &expanded(sec45_pushjoin_query(cat)), cat);

    let plan = Workload::ChainJoin.plan(7, Scale::Tiny);
    let chain = ChainDb::generate(chain_config(7, Scale::Tiny));
    let d = chain.config.domain;
    let cat = chain.db.catalog();
    same(&plan.queries[0], &chain.chain_query(d), cat);
    same(
        &plan.queries[3],
        &chain.selective_tail_query(d * 3 / 4),
        cat,
    );

    let plan = Workload::ClosureSpill.plan(7, Scale::Tiny);
    let closure = ClosureDb::generate(ClosureConfig { nodes: 4 });
    same(
        &plan.queries[0],
        &closure.closure_query(),
        closure.db.catalog(),
    );
}
