//! Reading `BENCH_repro.json` artifacts into store [`Record`]s.
//!
//! The harness artifact is the transport format of a *single* run; the
//! store is the accumulated history. This module converts the former
//! into the latter so every consumer — `repro --compare`, the
//! `perfgate` CI binary, the HTML report — speaks records, whichever
//! file they started from. Structural problems (not JSON, no `records`
//! array, rows missing required fields) are errors: silently returning
//! an empty history would make every downstream comparison vacuously
//! pass.

use crate::json::Json;
use crate::record::{Provenance, Record};

/// Converts a parsed artifact document into store records.
///
/// Provenance is taken from the document's `provenance` object
/// (`"unknown"` per field when absent — artifacts predate it); the
/// run id is derived from the artifact's `created_unix`. Records
/// predating the metric fingerprint read as an empty fingerprint,
/// which the gate skips rather than fails.
pub fn records_from_artifact(doc: &Json) -> Result<Vec<Record>, String> {
    let rows = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("artifact has no records array")?;
    let prov_str = |key: &str| -> String {
        doc.get("provenance")
            .and_then(|p| p.get(key))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    let provenance = Provenance {
        git_revision: prov_str("git_revision"),
        rustc_version: prov_str("rustc_version"),
        build_profile: prov_str("build_profile"),
    };
    let created_unix = doc
        .get("created_unix")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let run = format!("artifact-{created_unix}");
    // Host CPU count is a top-level artifact field (one host per
    // artifact); 0 when the artifact predates it.
    let host_cpus = doc.get("host_cpus").and_then(Json::as_f64).unwrap_or(0.0) as u32;

    let mut records = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let str_field = |key: &str| -> Result<String, String> {
            row.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record {i}: missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            row.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record {i}: missing numeric field {key:?}"))
        };
        records.push(Record {
            run: run.clone(),
            created_unix,
            provenance: provenance.clone(),
            figure: str_field("figure")?,
            curve: str_field("curve")?,
            nodes: num_field("nodes")? as u16,
            seed: num_field("seed")? as u64,
            host_cpus,
            config_fingerprint: str_field("config_fingerprint")?,
            metric_fingerprint: row
                .get("metric_fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            wall_secs: num_field("wall_secs")?,
            events_processed: num_field("events_processed")? as u64,
            allocs_per_event: row
                .get("allocs_per_event")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            mean_response_ms: num_field("mean_response_ms")?,
            throughput_tps: num_field("throughput_tps")?,
            // Optional: artifacts carry Null off Linux, and older
            // artifacts have no key at all.
            peak_rss_mb: row.get("peak_rss_mb").and_then(Json::as_f64),
            // Attribution is a store-side enrichment; artifacts don't
            // carry it.
            binding: None,
            binding_utilization: None,
            next_constraint: None,
            next_utilization: None,
            utils: None,
        });
    }
    Ok(records)
}

/// Reads and converts an artifact file in one step.
pub fn read_artifact_records(path: &std::path::Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)
        .map_err(|e| format!("{} is not a valid artifact: {e}", path.display()))?;
    records_from_artifact(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact_doc() -> Json {
        Json::obj(vec![
            ("schema", Json::Str("dbshare-bench/1".into())),
            ("created_unix", Json::Num(1_700_000_000.0)),
            ("host_cpus", Json::Num(16.0)),
            (
                "provenance",
                Json::obj(vec![
                    ("git_revision", Json::Str("deadbeef".into())),
                    ("rustc_version", Json::Str("rustc 1.80".into())),
                    ("build_profile", Json::Str("release".into())),
                ]),
            ),
            (
                "records",
                Json::Arr(vec![Json::obj(vec![
                    ("figure", Json::Str("fig41".into())),
                    ("curve", Json::Str("GEM".into())),
                    ("nodes", Json::Num(2.0)),
                    ("seed", Json::Num(42.0)),
                    ("cores", Json::Num(2.0)),
                    ("config_fingerprint", Json::Str("cfg".into())),
                    ("metric_fingerprint", Json::Str("met".into())),
                    ("wall_secs", Json::Num(0.5)),
                    ("events_processed", Json::Num(70000.0)),
                    ("allocs_per_event", Json::Num(0.06)),
                    ("mean_response_ms", Json::Num(71.0)),
                    ("throughput_tps", Json::Num(197.0)),
                ])]),
            ),
        ])
    }

    #[test]
    fn converts_records_with_provenance() {
        let records = records_from_artifact(&artifact_doc()).expect("converts");
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.run, "artifact-1700000000");
        assert_eq!(r.provenance.git_revision, "deadbeef");
        assert_eq!(r.figure, "fig41");
        assert_eq!(r.nodes, 2);
        assert_eq!(r.metric_fingerprint, "met");
        assert_eq!(r.host_cpus, 16);
    }

    #[test]
    fn pre_parallel_artifacts_default_host_cpus() {
        let mut doc = artifact_doc();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "host_cpus");
            if let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "records") {
                if let Json::Obj(row) = &mut rows[0] {
                    row.retain(|(k, _)| k != "cores");
                }
            }
        }
        let records = records_from_artifact(&doc).expect("legacy artifact converts");
        assert_eq!(records[0].host_cpus, 0);
    }

    #[test]
    fn missing_records_array_is_an_error() {
        let doc = Json::obj(vec![("schema", Json::Str("dbshare-bench/1".into()))]);
        assert!(records_from_artifact(&doc).is_err());
    }

    #[test]
    fn pre_fingerprint_artifacts_read_with_empty_metric_fingerprint() {
        let mut doc = artifact_doc();
        if let Json::Obj(fields) = &mut doc {
            if let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "records") {
                if let Json::Obj(row) = &mut rows[0] {
                    row.retain(|(k, _)| k != "metric_fingerprint");
                }
            }
        }
        let records = records_from_artifact(&doc).expect("still converts");
        assert_eq!(records[0].metric_fingerprint, "");
    }
}
