//! The `--scale` family's two load-bearing invariants.
//!
//! 1. `page_metadata_budget` is a *capacity* knob, not a semantic one:
//!    a run with every page-keyed pre-allocation capped (lazy
//!    materialization beyond the budget) must produce a report
//!    bit-identical to the historical dense pre-sizing, at any budget,
//!    over any seed.
//! 2. Scale presets are deterministic: a `ScaleRun` executed twice
//!    yields the same report and observations.

use dbshare_model::{CouplingMode, RoutingStrategy, UpdateStrategy};
use dbshare_sim::experiments::{
    debit_credit_run_with, DebitCreditRun, RunLength, RunSpec, ScaleRun,
};
use dbshare_sim::Observe;

const QUICK: RunLength = RunLength {
    warmup: 200,
    measured: 2_000,
};

/// Dense (budget `None`) vs sparse (budget capped far below the hot
/// page count) runs of the same configuration: every metric bit must
/// match. Sweeps both protocols and several seeds — the sparse path
/// must not leak into results through any of them.
#[test]
fn sparse_page_metadata_matches_dense_baseline() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        for seed in [0xDB5_4A6E_u64, 1, 0xFFFF_FFFF] {
            let p = DebitCreditRun {
                coupling,
                routing: RoutingStrategy::Random,
                update: UpdateStrategy::NoForce,
                seed,
                ..DebitCreditRun::baseline(3, QUICK)
            };
            let dense = debit_credit_run_with(p, |_| {});
            // Budget 8 is far below hot_pages (2 * buffer 200), so
            // every page-metadata structure takes the lazy path.
            for budget in [8usize, 1] {
                let sparse =
                    debit_credit_run_with(p, |cfg| cfg.page_metadata_budget = Some(budget));
                assert_eq!(
                    format!("{sparse:?}"),
                    format!("{dense:?}"),
                    "budget {budget} drifted from dense (coupling {coupling:?}, seed {seed:#x})"
                );
                assert_eq!(sparse.metric_fingerprint(), dense.metric_fingerprint());
            }
        }
    }
}

/// A miniature `ScaleRun` (the same spec shape `--scale` executes,
/// shrunk to test size) must run and repeat bit-identically.
#[test]
fn scale_runs_are_identical_across_repeats() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        let spec = RunSpec::Scale(ScaleRun {
            nodes: 4,
            accounts: 4_000,
            coupling,
            tps_per_node: 100.0,
            page_metadata_budget: 64,
            run: QUICK,
            seed: 0xDB5_4A6E,
        });
        let (base_report, base_obs) = spec.execute_observed(Observe::full());
        assert!(
            base_report.measured_txns > 0,
            "scale spec must actually run"
        );
        let (report, obs) = spec.execute_observed(Observe::full());
        assert_eq!(
            format!("{report:?}"),
            format!("{base_report:?}"),
            "scale report drifted between repeats (coupling {coupling:?})"
        );
        assert_eq!(obs, base_obs, "observations drifted between repeats");
    }
}
