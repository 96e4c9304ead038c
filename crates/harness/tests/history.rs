//! The persistence hook: each grid run appends one store row per job,
//! the simulated content of those rows (fingerprints, events,
//! metrics — everything except host timing) is identical for any
//! worker count, and the run's `BENCH_repro.json` rows are exactly the
//! rows it appended.

use dbshare_harness::{provenance, Harness, History, Json, Record, Store, Sweep};
use dbshare_sim::experiments::{fig41_grid, RunLength};
use std::path::PathBuf;

const TINY: RunLength = RunLength {
    warmup: 20,
    measured: 100,
};

fn sweeps() -> Vec<Sweep> {
    vec![Sweep {
        figure: "fig41".into(),
        grid: fig41_grid(&[1, 2], TINY),
    }]
}

fn temp_store(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "dbshare-harness-history-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn each_run_appends_rows_that_agree_across_worker_counts() {
    let path = temp_store("append.jsonl");
    let history = History { path: path.clone() };

    let first = Harness::new()
        .workers(1)
        .history(history.clone())
        .run(sweeps());
    let second = Harness::new().workers(4).history(history).run(sweeps());
    assert_ne!(first.run_id, second.run_id, "run ids must not collide");

    let read = Store::new(&path).read().expect("store reads back");
    std::fs::remove_file(&path).ok();
    assert!(read.recovery.is_none());
    assert_eq!(read.records.len(), first.results.len() * 2);

    let (a, b) = read.records.split_at(first.results.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.run, first.run_id);
        assert_eq!(y.run, second.run_id);
        assert_eq!(x.provenance, provenance());
        // Same grid => same configs, and the simulator is
        // deterministic => bit-identical metrics, at any worker count.
        assert_eq!(x.config_fingerprint, y.config_fingerprint);
        assert_eq!(x.metric_fingerprint, y.metric_fingerprint);
        assert_eq!(x.events_processed, y.events_processed);
        assert_eq!(x.mean_response_ms, y.mean_response_ms);
        assert_eq!(x.throughput_tps, y.throughput_tps);
        assert!(x.metric_fingerprint.len() == 16);
    }

    // One schema: the artifact's rows, read back as store records, are
    // the rows the same run appended.
    let doc = Json::parse(&second.artifact().render()).expect("artifact parses");
    let rows: Vec<Record> = doc
        .get("records")
        .and_then(Json::as_arr)
        .expect("records array")
        .iter()
        .map(|row| Record::from_json(row).expect("artifact row is a store record"))
        .collect();
    assert_eq!(rows, b);
}
