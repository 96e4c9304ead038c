//! Run artifacts: the `BENCH_repro.json` document.
//!
//! The document is a small header of run-level totals followed by
//! `records`: one store [`Record`] per job, rendered with
//! [`Record::to_json`] — exactly the row the same run appends to the
//! experiment store. The store's row schema is the only per-job
//! schema; [`read_artifact`] reads the rows back with
//! [`Record::from_json`], so a consumer of the artifact (`perfgate`)
//! rejects any row the store would reject.

use crate::json::Json;
use crate::pool::JobResult;
use dbshare_expstore::Record;
use dbshare_sim::experiments::RunSpec;
use std::io::Write as _;
use std::path::Path;

/// Artifact schema identifier, bumped on incompatible layout changes.
/// Version 2 made every row a store [`Record`].
pub const SCHEMA: &str = "dbshare-bench/2";

/// A 64-bit FNV-1a hash of the spec's full `Debug` rendering, as
/// 16 hex digits. Two jobs share a fingerprint iff their complete
/// configuration (every parameter, including seed and run length) is
/// identical — cheap to compare across artifact files.
pub fn fingerprint(spec: &RunSpec) -> String {
    dbshare_expstore::fnv1a_hex(&format!("{spec:?}"))
}

/// Builds the artifact document from a run's job results and the store
/// rows of those jobs: the suite's allocations per event and peak RSS,
/// then the rows.
pub fn document(results: &[JobResult], records: &[Record]) -> Json {
    let total_events: u64 = results.iter().map(|r| r.report.events_processed).sum();
    let total_allocs: u64 = results.iter().map(|r| r.report.profile.host_allocs).sum();
    let peak_rss = records
        .iter()
        .filter_map(|r| r.peak_rss_mb)
        .reduce(f64::max)
        .map_or(Json::Null, Json::Num);
    Json::obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        (
            "allocs_per_event",
            Json::Num(total_allocs as f64 / total_events.max(1) as f64),
        ),
        ("peak_rss_mb", peak_rss),
        (
            "records",
            Json::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ])
}

/// Renders `doc` to `path` (with a trailing newline).
pub fn write_artifact(path: &Path, doc: &Json) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(doc.render().as_bytes())?;
    file.write_all(b"\n")
}

/// Reads an artifact's rows back as store records. An unreadable file,
/// another schema, or a row the store would reject is an error naming
/// the file: a gate that silently read nothing would pass vacuously.
pub fn read_artifact(path: &Path) -> Result<Vec<Record>, String> {
    let name = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {name}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{name} is not a valid artifact: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("{name}: schema {schema:?} is not {SCHEMA:?}"));
    }
    let rows = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{name}: artifact has no records array"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| Record::from_json(row).map_err(|e| format!("{name}: record {i}: {e}")))
        .collect()
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

    /// A three-job run's outcome, every job sampling a 128 MB RSS.
    fn outcome() -> crate::Outcome {
        let spec = RunSpec::DebitCredit(DebitCreditRun::baseline(1, TINY));
        let results = (0..3)
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
        crate::Outcome {
            figures: Vec::new(),
            results,
            workers: 2,
            host_cpus: 8,
            total_wall_secs: 1.5,
            created_unix: Some(1_700_000_000),
            run_id: "r1700000000-1-0".into(),
        }
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("dbshare-artifact-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn artifact_has_one_record_per_job_with_headline_fields() {
        let outcome = outcome();
        let doc = outcome.artifact();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("peak_rss_mb").and_then(Json::as_f64), Some(128.0));
        assert!(doc.get("allocs_per_event").and_then(Json::as_f64).is_some());
        let records = doc.get("records").and_then(Json::as_arr).expect("records");
        assert_eq!(records.len(), 3);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(
                rec.get("figure").and_then(Json::as_str),
                Some(&*format!("fig{i}"))
            );
            assert_eq!(rec.get("wall_secs").and_then(Json::as_f64), Some(0.25));
            assert_eq!(rec.get("host_cpus").and_then(Json::as_f64), Some(8.0));
            for key in [
                "run",
                "git_revision",
                "seed",
                "config_fingerprint",
                "metric_fingerprint",
                "mean_response_ms",
                "throughput_tps",
                "binding",
                "utilizations",
            ] {
                assert!(rec.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn read_back_rows_equal_the_store_records() {
        let outcome = outcome();
        let path = temp_file("readback.json");
        write_artifact(&path, &outcome.artifact()).expect("writes");
        let read = read_artifact(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(
            read.expect("reads back"),
            outcome.store_records(&crate::provenance())
        );
    }

    #[test]
    fn missing_records_array_is_an_error() {
        let path = temp_file("norecords.json");
        let doc = Json::obj(vec![("schema", Json::Str(SCHEMA.into()))]);
        write_artifact(&path, &doc).expect("writes");
        let err = read_artifact(&path).expect_err("no records array");
        std::fs::remove_file(&path).ok();
        assert!(err.contains("records"), "unhelpful error: {err}");
    }

    #[test]
    fn other_schemas_and_bad_rows_are_errors_naming_the_file() {
        let path = temp_file("bad.json");
        let name = path.display().to_string();
        let mut doc = outcome().artifact();
        doc.set("schema", Json::Str("dbshare-bench/1".into()));
        write_artifact(&path, &doc).expect("writes");
        let old_schema = read_artifact(&path).expect_err("schema 1 is rejected");

        // A row the store would reject: no metric fingerprint.
        let mut doc = outcome().artifact();
        if let Some(Json::Arr(mut rows)) = doc.remove("records") {
            rows[1].remove("metric_fingerprint");
            doc.set("records", Json::Arr(rows));
        }
        write_artifact(&path, &doc).expect("writes");
        let bad_row = read_artifact(&path).expect_err("incomplete row is rejected");
        std::fs::remove_file(&path).ok();
        let missing = read_artifact(&path).expect_err("missing file");

        assert!(old_schema.contains(&name) && old_schema.contains("dbshare-bench/1"));
        assert!(bad_row.contains(&name) && bad_row.contains("record 1"));
        assert!(bad_row.contains("metric_fingerprint"), "{bad_row}");
        assert!(missing.contains(&name) && missing.contains("cannot read"));
    }
}
