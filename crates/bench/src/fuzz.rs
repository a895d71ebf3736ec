//! A seeded plan-mutation soundness fuzzer.
//!
//! Starting from the optimizer's chosen plans for the music corpus, the
//! fuzzer applies random local mutations (access-method and
//! join-algorithm toggles, predicate rewrites, projection edits,
//! wrapper insertion) and demands, for every mutant, one of exactly two
//! outcomes:
//!
//! - the static verifier or the analyzer *rejects* the plan
//!   (lint errors, or a typing error from [`oorq_analysis::Analyzer`]);
//! - the plan executes without panicking, and every observed counter
//!   lies inside the analyzer's static interval.
//!
//! Anything else — a panic, or an observed counter escaping its bound —
//! is a soundness bug and fails the run. So is a cross-layer
//! disagreement ([`layer_disagreements`]): every mutant the analyzer
//! accepts is also lowered and priced, and the lowering, the analyzer
//! and the cost model must resolve each node to the same operator. The walk is [`Prng`]-seeded
//! and fully deterministic: a failing `(seed, iteration)` pair is a
//! reproducible bug report. CI runs a fixed smoke (`reproduce fuzz`);
//! longer sweeps are one flag away (`reproduce fuzz 2000 <seed>`).

use std::fmt::Write as _;

use oorq_analysis::{check_observed, Analysis, Analyzer, ObservedFix, ObservedOp};
use oorq_core::OptimizerConfig;
use oorq_cost::{CostModel, CostParams, PlanCost};
use oorq_exec::{Executor, MethodRegistry};
use oorq_prng::Prng;
use oorq_pt::{AccessMethod, JoinAlgo, PhysOp, PhysPlan, Pt, PtEnv};
use oorq_query::{Expr, Literal};
use oorq_storage::{DbStats, IndexId};

use crate::reports::fig7_config;
use crate::scenarios::PaperSetup;

/// Outcome tally of one fuzz run.
#[derive(Debug, Default)]
pub struct FuzzStats {
    /// Mutants rejected by the static verifier.
    pub rejected_lint: usize,
    /// Mutants the analyzer could not type (rejected pre-execution).
    pub rejected_analysis: usize,
    /// Mutants that executed and passed every bound check.
    pub executed_ok: usize,
    /// Mutants that executed but failed at runtime with a clean error
    /// (e.g. a diverging fixpoint hitting its iteration cap).
    pub exec_error: usize,
    /// Soundness violations (bound escapes) — must stay zero.
    pub violations: usize,
}

/// Default CI smoke parameters.
pub const SMOKE_ITERS: u64 = 200;
/// See [`SMOKE_ITERS`].
pub const SMOKE_SEED: u64 = 0x0f52_a11d_0000_0007;

/// Run `iters` seeded mutations; returns the report, or an error
/// describing the first soundness violation.
pub fn fuzz_report(iters: u64, seed: u64) -> Result<String, String> {
    let mut setup = PaperSetup::new(fig7_config());
    let methods = MethodRegistry::new();
    let base: Vec<Pt> = {
        let fig3 = setup.fig3();
        let push = setup.pushjoin();
        vec![
            setup.optimize(&fig3, OptimizerConfig::never_push()).pt,
            setup
                .optimize(&fig3, OptimizerConfig::deductive_heuristic())
                .pt,
            setup.optimize(&push, OptimizerConfig::never_push()).pt,
        ]
    };
    let index_ids: Vec<IndexId> = setup
        .m
        .db
        .physical()
        .indexes()
        .iter()
        .map(|d| d.id)
        .collect();
    let mut rng = Prng::new(seed);
    let mut stats = FuzzStats::default();
    let mut out =
        format!("=== Plan-mutation soundness fuzz ({iters} iterations, seed {seed:#x}) ===\n");

    for i in 0..iters {
        let pt = &base[rng.index(base.len())];
        let target = rng.index(pt.size());
        let kind = rng.range_u32(0, 8);
        let mutant = {
            let mut counter = 0usize;
            mutate(pt, &mut counter, target, kind, &mut rng, &index_ids)
        };

        // Scope the immutable borrows (lint env, stats, analyzer) so the
        // executor can take the store mutably afterwards.
        let analysis = {
            let env = PtEnv {
                catalog: setup.m.db.catalog(),
                physical: setup.m.db.physical(),
                temp_fields: Default::default(),
            };
            if !oorq_lint::verify_pt(&env, &mutant).is_clean() {
                stats.rejected_lint += 1;
                continue;
            }
            let db_stats = DbStats::collect(&setup.m.db);
            let analyzer = Analyzer::new(
                setup.m.db.catalog(),
                setup.m.db.physical(),
                &db_stats,
                Default::default(),
            );
            let analysis = match analyzer.analyze(&mutant) {
                Ok(a) => a,
                Err(_) => {
                    stats.rejected_analysis += 1;
                    continue;
                }
            };
            let model = CostModel::new(
                setup.m.db.catalog(),
                setup.m.db.physical(),
                &db_stats,
                CostParams::calibrated(),
            )
            .with_temp("Influencer", setup.m.influencer_fields());
            let disagreements = match (oorq_pt::lower(&env, &mutant), model.cost(&mutant)) {
                (Ok(plan), Ok(cost)) => layer_disagreements(&plan, &analysis, &cost),
                (plan, cost) => vec![format!(
                    "analyzed, but lowering {:?} / pricing {:?} failed",
                    plan.err(),
                    cost.err()
                )],
            };
            if !disagreements.is_empty() {
                return Err(format!(
                    "{out}\ncross-layer disagreement at iteration {i} (seed {seed:#x}, \
                     mutation kind {kind}, node {target}):\n{}",
                    disagreements.join("\n")
                ));
            }
            analysis
        };

        setup.m.db.cold_cache();
        let mut ex = Executor::new(&mut setup.m.db, &setup.idx, &methods);
        if ex.run(&mutant).is_err() {
            stats.exec_error += 1;
            continue;
        }
        let report = ex.report();
        let ops: Vec<ObservedOp> = report
            .ops
            .iter()
            .map(|o| ObservedOp {
                pt_node: o.pt_node,
                label: o.label.clone(),
                rows_out: o.rows_out,
                page_reads: o.page_reads,
                page_hits: o.page_hits,
                index_reads: o.index_reads,
                page_writes: o.page_writes,
            })
            .collect();
        let fixes: Vec<ObservedFix> = report
            .fix_deltas
            .iter()
            .map(|c| ObservedFix {
                pt_node: c.pt_node,
                iterations: (c.deltas.len() as u64).saturating_sub(1),
            })
            .collect();
        let check = check_observed(&analysis, &ops, &fixes);
        if check.is_clean() {
            stats.executed_ok += 1;
        } else {
            // A violation aborts the run; the tally stays at zero in
            // every report the caller ever prints.
            return Err(format!(
                "{out}\nsoundness violation at iteration {i} (seed {seed:#x}, mutation kind \
                 {kind}, node {target}):\n{}",
                check.render()
            ));
        }
    }

    let _ = writeln!(
        out,
        "rejected by lint: {}\nrejected by analysis: {}\nexecuted within bounds: {}\nclean \
         runtime errors: {}\nsoundness violations: {}",
        stats.rejected_lint,
        stats.rejected_analysis,
        stats.executed_ok,
        stats.exec_error,
        stats.violations
    );
    let _ = writeln!(
        out,
        "(longer sweeps: `reproduce fuzz <iterations> <seed>`; a failure reports its \
         reproducible seed/iteration pair)"
    );
    Ok(out)
}

/// Where the lowered plan, the analyzer and the cost model disagree
/// about what a PT node runs as, one line each. Every lowered operator
/// (the `Exchange`/`Merge` wrappers aside) must carry the label the
/// analyzer and the cost model gave its PT node, and a nested-loop join
/// must materialize its inner exactly when the cost model prices the
/// materialization writes (an inner estimated empty prices none either
/// way). Needs residency modeling on, which gates those writes.
pub fn layer_disagreements(plan: &PhysPlan, analysis: &Analysis, cost: &PlanCost) -> Vec<String> {
    let cost_line = |node: usize| cost.breakdown.iter().find(|l| l.node == Some(node));
    let mut out = Vec::new();
    plan.root.visit(&mut |op| {
        if matches!(op, PhysOp::Exchange { .. } | PhysOp::Merge { .. }) {
            return;
        }
        let meta = op.meta();
        let analyzed = analysis.node(meta.pt_node).map(|b| b.label.as_str());
        let line = cost_line(meta.pt_node);
        // A fixpoint's priced label appends its modeled pass count.
        let priced = line.map(|l| match (&l.fix, l.label.rsplit_once(" x")) {
            (Some(_), Some((label, _))) => label,
            _ => l.label.as_str(),
        });
        if analyzed != Some(meta.label.as_str()) || priced != Some(meta.label.as_str()) {
            out.push(format!(
                "node {}: lowered `{}`, analyzed {analyzed:?}, priced {priced:?}",
                meta.pt_node, meta.label
            ));
        }
        if let (
            PhysOp::NlJoin {
                rescan_inner,
                right,
                ..
            },
            Some(line),
        ) = (op, line)
        {
            let priced_mat = line.feat.write_pages > 0.0;
            let inner_rows = cost_line(right.meta().pt_node).map_or(0.0, |l| l.rows);
            if priced_mat == *rescan_inner && (priced_mat || inner_rows > 0.0) {
                out.push(format!(
                    "node {}: `{}` rescans its inner: {rescan_inner}, priced materialized: \
                     {priced_mat}",
                    meta.pt_node, meta.label
                ));
            }
        }
    });
    out
}

/// Rebuild the tree, applying mutation `kind` at pre-order `target`.
fn mutate(
    pt: &Pt,
    counter: &mut usize,
    target: usize,
    kind: u32,
    rng: &mut Prng,
    index_ids: &[IndexId],
) -> Pt {
    let my = *counter;
    *counter += 1;
    if my == target {
        if let Some(m) = mutate_here(pt, kind, rng, index_ids) {
            return m;
        }
    }
    match pt {
        Pt::Entity { .. } | Pt::Temp { .. } => pt.clone(),
        Pt::Sel {
            pred,
            method,
            input,
        } => Pt::Sel {
            pred: pred.clone(),
            method: *method,
            input: Box::new(mutate(input, counter, target, kind, rng, index_ids)),
        },
        Pt::Proj { cols, input } => Pt::Proj {
            cols: cols.clone(),
            input: Box::new(mutate(input, counter, target, kind, rng, index_ids)),
        },
        Pt::IJ {
            on,
            step,
            out,
            input,
            target: tgt,
        } => Pt::IJ {
            on: on.clone(),
            step: step.clone(),
            out: out.clone(),
            input: Box::new(mutate(input, counter, target, kind, rng, index_ids)),
            target: Box::new(mutate(tgt, counter, target, kind, rng, index_ids)),
        },
        Pt::PIJ {
            index,
            on,
            outs,
            input,
            targets,
        } => Pt::PIJ {
            index: *index,
            on: on.clone(),
            outs: outs.clone(),
            input: Box::new(mutate(input, counter, target, kind, rng, index_ids)),
            targets: targets
                .iter()
                .map(|t| mutate(t, counter, target, kind, rng, index_ids))
                .collect(),
        },
        Pt::EJ {
            pred,
            algo,
            left,
            right,
        } => Pt::EJ {
            pred: pred.clone(),
            algo: *algo,
            left: Box::new(mutate(left, counter, target, kind, rng, index_ids)),
            right: Box::new(mutate(right, counter, target, kind, rng, index_ids)),
        },
        Pt::Union { left, right } => Pt::Union {
            left: Box::new(mutate(left, counter, target, kind, rng, index_ids)),
            right: Box::new(mutate(right, counter, target, kind, rng, index_ids)),
        },
        Pt::Fix { temp, body } => Pt::Fix {
            temp: temp.clone(),
            body: Box::new(mutate(body, counter, target, kind, rng, index_ids)),
        },
    }
}

/// The mutation menu; `None` when the kind does not apply to this node
/// (the iteration then executes the unmutated plan, which must also
/// stay inside its bounds).
fn mutate_here(pt: &Pt, kind: u32, rng: &mut Prng, index_ids: &[IndexId]) -> Option<Pt> {
    match (kind, pt) {
        // Toggle a selection's access method.
        (
            0,
            Pt::Sel {
                pred,
                method,
                input,
            },
        ) => {
            let method = match method {
                AccessMethod::Scan if !index_ids.is_empty() => {
                    AccessMethod::Index(index_ids[rng.index(index_ids.len())])
                }
                AccessMethod::Scan => return None,
                AccessMethod::Index(_) => AccessMethod::Scan,
            };
            Some(Pt::Sel {
                pred: pred.clone(),
                method,
                input: input.clone(),
            })
        }
        // Toggle a join's algorithm.
        (
            1,
            Pt::EJ {
                pred,
                algo,
                left,
                right,
            },
        ) => {
            let algo = match algo {
                JoinAlgo::NestedLoop if !index_ids.is_empty() => {
                    JoinAlgo::IndexJoin(index_ids[rng.index(index_ids.len())])
                }
                JoinAlgo::NestedLoop => return None,
                JoinAlgo::IndexJoin(_) => JoinAlgo::NestedLoop,
            };
            Some(Pt::EJ {
                pred: pred.clone(),
                algo,
                left: left.clone(),
                right: right.clone(),
            })
        }
        // Drop a selection's predicate.
        (2, Pt::Sel { method, input, .. }) => Some(Pt::Sel {
            pred: Expr::True,
            method: *method,
            input: input.clone(),
        }),
        // Swap a join's operands.
        (
            3,
            Pt::EJ {
                pred,
                algo,
                left,
                right,
            },
        ) => Some(Pt::EJ {
            pred: pred.clone(),
            algo: *algo,
            left: right.clone(),
            right: left.clone(),
        }),
        // Drop a projection column.
        (4, Pt::Proj { cols, input }) if cols.len() > 1 => {
            let mut cols = cols.clone();
            cols.remove(rng.index(cols.len()));
            Some(Pt::Proj {
                cols,
                input: input.clone(),
            })
        }
        // Rename a projection column (breaks consumers; lint's job).
        (5, Pt::Proj { cols, input }) if !cols.is_empty() => {
            let mut cols = cols.clone();
            let i = rng.index(cols.len());
            cols[i].0 = format!("fz_{}", rng.range_u32(0, 1 << 16));
            Some(Pt::Proj {
                cols,
                input: input.clone(),
            })
        }
        // Wrap the node in a pass-through selection.
        (6, _) => Some(Pt::Sel {
            pred: Expr::True,
            method: AccessMethod::Scan,
            input: Box::new(pt.clone()),
        }),
        // Perturb the integer literals of a selection predicate.
        (
            7,
            Pt::Sel {
                pred,
                method,
                input,
            },
        ) => {
            let delta = rng.range_i64(-3, 4);
            let pred = pred.map_leaves(&mut |e| match e {
                Expr::Lit(Literal::Int(v)) => Some(Expr::Lit(Literal::Int(v + delta))),
                _ => None,
            });
            Some(Pt::Sel {
                pred,
                method: *method,
                input: input.clone(),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short seeded run must complete with zero soundness violations
    /// and classify every iteration. (CI runs the longer smoke via
    /// `reproduce fuzz`.)
    #[test]
    fn fuzz_short_run_is_sound() {
        let out = fuzz_report(25, SMOKE_SEED).expect("no soundness violations");
        assert!(out.contains("soundness violations: 0"), "{out}");
        // Every iteration lands in exactly one bucket.
        let count = |prefix: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("missing `{prefix}` in:\n{out}"))
        };
        assert_eq!(
            count("rejected by lint:")
                + count("rejected by analysis:")
                + count("executed within bounds:")
                + count("clean runtime errors:"),
            25
        );
    }

    /// An index selection over a path-index join cannot probe (its input
    /// is not an entity): lowering runs it as a filter, and the analyzer
    /// and the cost model must bound and price that filter.
    #[test]
    fn layers_agree_on_index_selection_fallback() {
        let setup = PaperSetup::new(fig7_config());
        let pt = setup
            .optimize(&setup.fig3(), OptimizerConfig::never_push())
            .pt;
        let (path, sel) = oorq_pt::subtrees(&pt)
            .into_iter()
            .find(|(_, n)| {
                matches!(n, Pt::Sel { input, .. } if matches!(input.as_ref(), Pt::PIJ { .. }))
            })
            .expect("the Figure 3 plan selects over a path-index join");
        let Pt::Sel { pred, input, .. } = sel else {
            unreachable!("matched a selection");
        };
        let name_index = setup
            .m
            .db
            .physical()
            .selection_index(setup.m.composer, setup.m.name_attr)
            .expect("the paper setup builds the name index")
            .id;
        let mut fallback = pt.clone();
        fallback
            .replace_at(
                &path,
                Pt::Sel {
                    pred: pred.clone(),
                    method: AccessMethod::Index(name_index),
                    input: input.clone(),
                },
            )
            .unwrap();

        let db = &setup.m.db;
        let env = PtEnv::new(db.catalog(), db.physical());
        let analysis = Analyzer::new(
            db.catalog(),
            db.physical(),
            &setup.stats,
            Default::default(),
        )
        .analyze(&fallback)
        .unwrap();
        let model = CostModel::new(
            db.catalog(),
            db.physical(),
            &setup.stats,
            CostParams::calibrated(),
        )
        .with_temp("Influencer", setup.m.influencer_fields());
        let cost = model.cost(&fallback).unwrap();
        let plan = oorq_pt::lower(&env, &fallback).unwrap();
        assert!(
            plan.explain().contains(&format!("Sel[{pred}]")),
            "{}",
            plan.explain()
        );
        let disagreements = layer_disagreements(&plan, &analysis, &cost);
        assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
    }
}
