//! Benchmark harness reproducing every figure of the paper.
//!
//! The [`scenarios`] module builds the standard experimental setups; the
//! [`reports`] module produces the tables printed by the `reproduce`
//! binary (one section per figure / worked example). Wall-clock
//! measurement lives in the standalone `perfbench` package at the
//! repository root.

pub mod analyze;
pub mod calibrate;
pub mod feedback;
pub mod fuzz;
pub mod metrics;
pub mod parallel;
pub mod reports;
pub mod scenarios;
pub mod serve;
pub mod spill;
pub mod tracing;

pub use scenarios::PaperSetup;

#[cfg(test)]
mod tests {
    use crate::reports::{fig5_report, fig7_symbol_env, fig7_symbolic};
    use crate::scenarios::PaperSetup;
    use oorq_datagen::MusicConfig;

    #[test]
    fn fig7_symbolic_rows_evaluate_under_stats_env() {
        let setup = PaperSetup::new(MusicConfig {
            chains: 4,
            chain_len: 4,
            ..PaperSetup::paper_scale()
        });
        let mut env = fig7_symbol_env(&setup);
        // Derived sizes for the T-symbols the table references.
        for (k, v) in [
            ("|Inf_i|", 2.0),
            ("|T1|", 8.0),
            ("|T2|", 3.0),
            ("||T2||", 40.0),
        ] {
            env.insert(k.to_string(), v);
        }
        let rows = fig7_symbolic();
        assert_eq!(rows.len(), 15, "T1..T15");
        // Every row with fully bound symbols evaluates to a finite,
        // non-negative number.
        for r in &rows {
            let v = r.formula.eval(&env);
            assert!(v.is_finite() && v >= 0.0, "{}: {v}", r.node);
        }
        // T1 matches its closed form.
        let t1 = rows[0].formula.eval(&env);
        let n = env["||Cpr||"];
        let p = env["|Cpr|"];
        let n1 = env["n1"];
        let expected = p + n * p * 2.0 + (n1 - 1.0) * (p + n * 2.0 * 2.0);
        assert!((t1 - expected).abs() < 1e-9, "{t1} vs {expected}");
    }

    #[test]
    fn fig5_report_lists_all_operators() {
        let r = fig5_report();
        for op in [
            "Sel_selpred",
            "EJ_pred",
            "IJ_Ai",
            "PIJ_pathInd",
            "Fix(T, P)",
        ] {
            assert!(r.contains(op), "missing {op}:\n{r}");
        }
    }

    #[test]
    fn paper_setup_has_paper_physical_design() {
        let setup = PaperSetup::new(MusicConfig {
            chains: 2,
            chain_len: 3,
            ..PaperSetup::paper_scale()
        });
        let m = &setup.m;
        assert!(m
            .db
            .physical()
            .path_index(&[
                (m.composer, m.works_attr),
                (m.composition, m.instruments_attr)
            ])
            .is_some());
        assert!(m
            .db
            .physical()
            .selection_index(m.composer, m.name_attr)
            .is_some());
    }
}
