//! `--explain` determinism at the library level: attribution, the
//! rendered table, and the JSON sidecar are pure functions of the
//! (bit-identical) reports, so they must be byte-identical across
//! runs; and the progress gauge is observe-only, so publishing through
//! one must not perturb the simulation's results.

use std::sync::Arc;

use dbshare_model::{CouplingMode, RoutingStrategy, UpdateStrategy};
use dbshare_sim::experiments::{DebitCreditRun, RunLength, RunSpec, Series};
use dbshare_sim::explain::{self, SATURATION_THRESHOLD};
use dbshare_sim::{Observe, ProgressGauge};

fn spec(coupling: CouplingMode, nodes: u16) -> RunSpec {
    RunSpec::DebitCredit(DebitCreditRun {
        nodes,
        coupling,
        update: UpdateStrategy::NoForce,
        routing: RoutingStrategy::Random,
        ..DebitCreditRun::baseline(nodes, RunLength::quick())
    })
}

fn figure() -> explain::FigureExplain {
    let mut series = Vec::new();
    for (label, coupling) in [
        ("GEM/NOFORCE", CouplingMode::GemLocking),
        ("PCL/NOFORCE", CouplingMode::Pcl),
    ] {
        let mut points = Vec::new();
        for nodes in [2u16, 4] {
            points.push((nodes, spec(coupling, nodes).execute()));
        }
        series.push(Series {
            label: label.into(),
            points,
        });
    }
    explain::explain_figure("explain-test", &series, SATURATION_THRESHOLD)
}

/// The rendered table and the sidecar must be byte-identical across
/// independent runs of the same figure.
#[test]
fn explain_render_and_sidecar_are_byte_identical_across_runs() {
    let base = figure();
    let fig = figure();
    assert_eq!(fig.render(), base.render(), "explain table drifted");
    assert_eq!(
        explain::sidecar_json(&[fig]),
        explain::sidecar_json(&[base]),
        "explain sidecar drifted"
    );
}

/// The progress gauge is a pure observer: wiring one in must leave the
/// report bit-identical, and its final snapshot must agree with the
/// report's event count.
#[test]
fn progress_gauge_does_not_perturb_results() {
    let s = spec(CouplingMode::GemLocking, 2);
    let baseline = s.execute();
    let gauge = Arc::new(ProgressGauge::default());
    let (report, _) = s.execute_instrumented(Observe::default(), Some(Arc::clone(&gauge)));
    assert_eq!(
        format!("{report:?}"),
        format!("{baseline:?}"),
        "gauge perturbed the report"
    );
    let snap = gauge.snapshot();
    assert_eq!(
        snap.events, report.events_processed,
        "final gauge publish must agree with the report"
    );
    assert!(snap.fraction() >= 1.0, "run completed, fraction < 1");
}
