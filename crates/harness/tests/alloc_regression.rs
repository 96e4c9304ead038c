//! Allocation-regression test: the measured phase of the engine must
//! stay (near-)allocation-free. This test binary installs the counting
//! allocator, runs one quick figure through the job pool, and pins the
//! allocations-per-event ratio under a ceiling with plenty of headroom
//! over today's number but far below where it was before buffer
//! pooling — a hot-path change that reintroduces per-transaction or
//! per-message allocation trips it immediately.
//!
//! Allocation counts are deterministic for a given build (the
//! simulation is single-threaded per job and allocator traffic is
//! counted thread-locally), so the ceiling does not flake.

#[global_allocator]
static ALLOC: dbshare_harness::CountingAlloc = dbshare_harness::CountingAlloc;

use dbshare_harness::{Harness, Sweep};
use dbshare_sim::experiments::{fig41_grid, CurveGrid, RunLength, RunSpec, ScalePreset};

/// Generous ceiling: the release build measures ~0.03 allocs/event on
/// this figure; before the pooling work it was ~0.47.
const MAX_ALLOCS_PER_EVENT: f64 = 0.10;

/// Ceiling of the 64-node scale point below. Lock queues on the hot
/// pages grow with node count, so a per-scan cost that is O(queue²) in
/// allocations hides at 2 nodes and shows here: this point measured
/// 0.337 allocs/event (debug and release builds alike) while every
/// deadlock scan built an explicit waits-for edge list, 0.187 since
/// scans test a reusable compact graph first.
const MAX_SCALE_ALLOCS_PER_EVENT: f64 = 0.25;

/// `(allocs, events)` of `sweeps` run on one worker.
fn allocs_and_events(sweeps: Vec<Sweep>) -> (u64, u64) {
    let outcome = Harness::new().workers(1).run(sweeps);
    assert!(!outcome.results.is_empty());

    let mut allocs = 0u64;
    let mut events = 0u64;
    for r in &outcome.results {
        allocs += r.report.profile.host_allocs;
        events += r.report.events_processed;
    }
    // The allocator is installed in this binary, so the counters must
    // actually move — engine construction alone allocates.
    assert!(allocs > 0, "counting allocator not active");
    assert!(events > 0);
    (allocs, events)
}

#[test]
fn steady_state_allocations_stay_bounded() {
    let (allocs, events) = allocs_and_events(vec![Sweep {
        figure: "fig4.1".into(),
        grid: fig41_grid(&[2], RunLength::quick()),
    }]);
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "allocation regression: {per_event:.4} allocs/event over {events} events \
         (ceiling {MAX_ALLOCS_PER_EVENT}) — a hot path started allocating"
    );
}

/// GEM and PCL at 64 nodes on the `--scale smoke` geometry, cut to a
/// tenth of its run length: long enough for six deadlock scans per run
/// over the long hot-page queues of a large system.
#[test]
fn allocations_stay_bounded_at_scale() {
    let nodes = 64;
    let grid = ScalePreset::CURVES
        .iter()
        .map(|&(label, coupling)| {
            let RunSpec::Scale(mut spec) = ScalePreset::SMOKE.spec(coupling, nodes) else {
                unreachable!("scale presets build scale runs")
            };
            spec.run = RunLength {
                warmup: nodes as u64 * 50,
                measured: nodes as u64 * 100,
            };
            CurveGrid {
                label: label.to_string(),
                points: vec![(nodes, RunSpec::Scale(spec))],
            }
        })
        .collect();
    let (allocs, events) = allocs_and_events(vec![Sweep {
        figure: "scale-alloc".into(),
        grid,
    }]);
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_SCALE_ALLOCS_PER_EVENT,
        "allocation regression at {nodes} nodes: {per_event:.4} allocs/event over \
         {events} events (ceiling {MAX_SCALE_ALLOCS_PER_EVENT})"
    );
}
