//! Run artifacts: the `BENCH_repro.json` document.
//!
//! One record per executed job, capturing what you need to audit or
//! diff a reproduction run: which figure/curve/point it was, the seed
//! and a fingerprint of the full configuration, the host wall-clock it
//! cost, and the headline simulated metrics. The document is built
//! from the in-repo [`Json`] value, so it round-trips through
//! [`Json::parse`] — the determinism regression test relies on that.

use crate::json::Json;
use crate::pool::JobResult;
use dbshare_sim::experiments::RunSpec;
use std::io::Write as _;
use std::path::Path;

/// Artifact schema identifier, bumped on incompatible layout changes.
pub const SCHEMA: &str = "dbshare-bench/1";

/// A 64-bit FNV-1a hash of the spec's full `Debug` rendering, as
/// 16 hex digits. Two jobs share a fingerprint iff their complete
/// configuration (every parameter, including seed and run length) is
/// identical — cheap to compare across artifact files.
pub fn fingerprint(spec: &RunSpec) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{spec:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Builds the artifact document for one harness run.
///
/// `created_unix` is seconds since the Unix epoch (pass `None` in
/// tests for a reproducible document).
pub fn artifact(
    results: &[JobResult],
    workers: usize,
    host_cpus: u32,
    total_wall_secs: f64,
    created_unix: Option<u64>,
) -> Json {
    let records: Vec<Json> = results.iter().map(record).collect();
    let total_events: u64 = results.iter().map(|r| r.report.events_processed).sum();
    let total_allocs: u64 = results.iter().map(|r| r.report.profile.host_allocs).sum();
    let peak_rss = results
        .iter()
        .filter_map(|r| r.peak_rss_mb)
        .fold(None::<f64>, |acc, mb| Some(acc.map_or(mb, |a| a.max(mb))));
    Json::obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        (
            "created_unix",
            match created_unix {
                Some(t) => Json::Num(t as f64),
                None => Json::Null,
            },
        ),
        ("workers", Json::Num(workers as f64)),
        ("host_cpus", Json::Num(f64::from(host_cpus))),
        ("jobs", Json::Num(results.len() as f64)),
        ("total_wall_secs", Json::Num(total_wall_secs)),
        ("total_events", Json::Num(total_events as f64)),
        (
            "events_per_sec",
            Json::Num(total_events as f64 / total_wall_secs.max(1e-9)),
        ),
        ("total_allocs", Json::Num(total_allocs as f64)),
        (
            "allocs_per_event",
            Json::Num(total_allocs as f64 / (total_events.max(1)) as f64),
        ),
        (
            "peak_rss_mb",
            match peak_rss {
                Some(mb) => Json::Num(mb),
                None => Json::Null,
            },
        ),
        ("records", Json::Arr(records)),
    ])
}

/// The per-job record inside the artifact's `records` array.
fn record(result: &JobResult) -> Json {
    let r = &result.report;
    let disks = r
        .disk_utilizations
        .iter()
        .map(|(name, util)| (name.clone(), Json::Num(*util)))
        .collect();
    Json::obj(vec![
        ("figure", Json::Str(result.job.figure.clone())),
        ("curve", Json::Str(result.job.curve.clone())),
        ("nodes", Json::Num(f64::from(result.job.nodes))),
        ("seed", Json::Num(result.job.spec.seed() as f64)),
        (
            "config_fingerprint",
            Json::Str(fingerprint(&result.job.spec)),
        ),
        ("metric_fingerprint", Json::Str(r.metric_fingerprint())),
        ("wall_secs", Json::Num(result.wall_secs)),
        (
            "peak_rss_mb",
            match result.peak_rss_mb {
                Some(mb) => Json::Num(mb),
                None => Json::Null,
            },
        ),
        ("events_processed", Json::Num(r.events_processed as f64)),
        (
            "events_per_sec",
            Json::Num(r.events_processed as f64 / result.wall_secs.max(1e-9)),
        ),
        ("host_allocs", Json::Num(r.profile.host_allocs as f64)),
        (
            "host_alloc_bytes",
            Json::Num(r.profile.host_alloc_bytes as f64),
        ),
        ("allocs_per_event", Json::Num(r.profile.allocs_per_event())),
        ("sim_seconds", Json::Num(r.sim_seconds)),
        ("measured_txns", Json::Num(r.measured_txns as f64)),
        ("mean_response_ms", Json::Num(r.mean_response_ms)),
        ("norm_response_ms", Json::Num(r.norm_response_ms)),
        ("throughput_tps", Json::Num(r.throughput_tps)),
        (
            "tps_per_node_at_80pct_cpu",
            Json::Num(r.tps_per_node_at_80pct_cpu),
        ),
        ("cpu_utilization", Json::Num(r.cpu_utilization)),
        ("gem_utilization", Json::Num(r.gem_utilization)),
        ("disk_utilizations", Json::Obj(disks)),
    ])
}

/// Renders `doc` to `path` (with a trailing newline).
pub fn write_artifact(path: &Path, doc: &Json) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(doc.render().as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_sim::experiments::{DebitCreditRun, RunLength};

    const TINY: RunLength = RunLength {
        warmup: 10,
        measured: 50,
    };

    #[test]
    fn fingerprint_separates_specs_and_is_stable() {
        let a = RunSpec::DebitCredit(DebitCreditRun::baseline(2, TINY));
        let mut changed = DebitCreditRun::baseline(2, TINY);
        changed.seed ^= 1;
        let b = RunSpec::DebitCredit(changed);
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a).len(), 16);
    }

    #[test]
    fn artifact_has_one_record_per_job_with_headline_fields() {
        let spec = RunSpec::DebitCredit(DebitCreditRun::baseline(1, TINY));
        let results: Vec<JobResult> = (0..3)
            .map(|i| JobResult {
                job: crate::Job {
                    figure: format!("fig{i}"),
                    curve: "c".into(),
                    nodes: 1,
                    spec,
                    observe: crate::Observe::default(),
                },
                report: spec.execute(),
                observations: crate::Observations::default(),
                wall_secs: 0.25,
                peak_rss_mb: Some(128.0),
            })
            .collect();
        let doc = artifact(&results, 2, 8, 1.5, Some(1_700_000_000));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("host_cpus").and_then(Json::as_f64), Some(8.0));
        assert_eq!(doc.get("jobs").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("peak_rss_mb").and_then(Json::as_f64), Some(128.0));
        let records = doc.get("records").and_then(Json::as_arr).expect("records");
        assert_eq!(records.len(), 3);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(
                rec.get("figure").and_then(Json::as_str),
                Some(&*format!("fig{i}"))
            );
            assert_eq!(rec.get("wall_secs").and_then(Json::as_f64), Some(0.25));
            for key in [
                "seed",
                "config_fingerprint",
                "metric_fingerprint",
                "sim_seconds",
                "mean_response_ms",
                "throughput_tps",
                "cpu_utilization",
                "gem_utilization",
                "disk_utilizations",
            ] {
                assert!(rec.get(key).is_some(), "missing {key}");
            }
        }
    }
}
