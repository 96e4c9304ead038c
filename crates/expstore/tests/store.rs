//! Store integration tests against a real file: append/read
//! round-trips, index queries, torn-write recovery, byte-identical
//! re-serialization of the store's JSON values, and loading the
//! committed baseline history.

use dbshare_expstore::{figure_runs, Index, Json, Provenance, Record, Store};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch file under the target-adjacent temp dir, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> TempFile {
        let mut path = std::env::temp_dir();
        path.push(format!("dbshare-expstore-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&path);
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn record(run: &str, figure: &str, nodes: u16, wall: f64) -> Record {
    Record {
        run: run.into(),
        created_unix: 1_760_000_000,
        provenance: Provenance {
            git_revision: format!("rev-{run}"),
            rustc_version: "rustc 1.80.0 (stable)".into(),
            build_profile: "release".into(),
        },
        figure: figure.into(),
        curve: format!("curve of {figure}, \"quoted\""),
        nodes,
        seed: 0xD5_0000 + u64::from(nodes),
        host_cpus: 8,
        config_fingerprint: format!("cfg-{figure}-{nodes}"),
        metric_fingerprint: format!("met-{figure}-{nodes}"),
        wall_secs: wall,
        events_processed: 50_000 * u64::from(nodes),
        allocs_per_event: 0.0646,
        mean_response_ms: 71.25,
        throughput_tps: 196.5,
        peak_rss_mb: None,
        binding: None,
        binding_utilization: None,
        next_constraint: None,
        next_utilization: None,
        utils: None,
    }
}

#[test]
fn append_read_round_trip_preserves_every_field_and_order() {
    let tmp = TempFile::new("roundtrip.jsonl");
    let store = Store::new(&tmp.0);
    let first = vec![record("r1", "fig41", 1, 0.5), record("r1", "fig41", 2, 0.7)];
    let second = vec![record("r2", "fig45", 4, 1.5)];
    assert!(store.append(&first).expect("append 1").is_none());
    assert!(store.append(&second).expect("append 2").is_none());

    let read = store.read().expect("read back");
    assert!(read.recovery.is_none());
    let expected: Vec<Record> = first.into_iter().chain(second).collect();
    assert_eq!(read.records, expected);
}

#[test]
fn index_queries_by_figure_fingerprint_and_revision() {
    let tmp = TempFile::new("index.jsonl");
    let store = Store::new(&tmp.0);
    store
        .append(&[
            record("r1", "fig41", 1, 1.0),
            record("r1", "fig41", 2, 1.0),
            record("r1", "fig45", 1, 1.0),
            record("r2", "fig41", 1, 0.25),
        ])
        .expect("append");
    let read = store.read().expect("read");
    let index = Index::new(&read.records);

    assert_eq!(index.figures(), vec!["fig41", "fig45"]);
    assert_eq!(index.by_figure("fig41").len(), 3);
    assert_eq!(index.by_config("cfg-fig41-1").len(), 2);
    assert_eq!(index.by_revision("rev-r2").len(), 1);
    // r2 re-ran the fig41 1-node config 4x faster: it is the best.
    let best = index.best_events_per_sec("cfg-fig41-1").expect("best");
    assert_eq!(best.run, "r2");
    // Aggregates: r1/fig41 groups two jobs, with a config-set
    // fingerprint distinct from the single-job r2/fig41 row.
    let rows = figure_runs(&read.records);
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].jobs, 2);
    assert_ne!(rows[0].config_set, rows[2].config_set);
}

#[test]
fn torn_trailing_write_is_truncated_and_warned_on_next_append() {
    let tmp = TempFile::new("torn.jsonl");
    let store = Store::new(&tmp.0);
    store
        .append(&[record("r1", "fig41", 1, 1.0)])
        .expect("append");
    // Simulate a torn append: half a record at the tail.
    let half = &record("r1", "fig41", 2, 1.0).to_line()[..40];
    let mut bytes = fs::read(&tmp.0).expect("read file");
    let clean_len = bytes.len() as u64;
    bytes.extend_from_slice(half.as_bytes());
    fs::write(&tmp.0, &bytes).expect("write torn tail");

    // Reading drops the tail and warns, without touching the file.
    let read = store.read().expect("read recovers");
    assert_eq!(read.records.len(), 1);
    let recovery = read.recovery.as_ref().expect("warned");
    assert_eq!(recovery.keep_bytes, clean_len);
    assert_eq!(recovery.dropped_bytes as usize, half.len());
    assert_eq!(
        fs::metadata(&tmp.0).expect("meta").len(),
        clean_len + half.len() as u64
    );

    // Appending first truncates the torn tail, then writes cleanly.
    let recovery = store
        .append(&[record("r2", "fig41", 2, 1.0)])
        .expect("append repairs")
        .expect("recovery reported");
    assert_eq!(recovery.keep_bytes, clean_len);
    let read = store.read().expect("read after repair");
    assert!(read.recovery.is_none());
    assert_eq!(read.records.len(), 2);
    assert_eq!(read.records[1].run, "r2");
}

#[test]
fn mid_file_corruption_refuses_to_read() {
    let tmp = TempFile::new("midfile.jsonl");
    let store = Store::new(&tmp.0);
    let good = record("r1", "fig41", 1, 1.0).to_line();
    fs::write(&tmp.0, format!("{good}\nnot json at all\n{good}\n")).expect("write");
    let err = store.read().expect_err("mid-file corruption is fatal");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn stored_lines_reserialize_byte_identically() {
    let tmp = TempFile::new("reserialize.jsonl");
    let store = Store::new(&tmp.0);
    store
        .append(&[
            record("r1", "fig41", 1, 0.125),
            record("r1", "fig47", 8, 2.0),
        ])
        .expect("append");
    let text = fs::read_to_string(&tmp.0).expect("raw text");
    for line in text.lines() {
        // parse -> render_line is the identity on every stored row:
        // the Json value layer loses nothing and adds nothing.
        let doc = Json::parse(line).expect("row parses");
        assert_eq!(doc.render_line(), line, "re-serialization drifted");
        // And through the typed Record layer as well.
        let rec = Record::from_line(line).expect("record parses");
        assert_eq!(rec.to_line(), line, "record re-serialization drifted");
    }
}

/// The committed baseline `docs/history.jsonl` keeps loading through
/// the store: every row parses, including the rows written while the
/// engine had a `cores` knob (the key is ignored), and the
/// per-(run, figure) aggregation yields exactly one group per distinct
/// raw pair, so no two runs of the committed history merge.
#[test]
fn committed_history_loads_through_the_store() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/history.jsonl");
    let read = Store::new(&path).read().expect("committed history reads");
    assert!(read.recovery.is_none(), "committed history needed recovery");
    assert_eq!(read.records.len(), 794);

    let text = fs::read_to_string(&path).expect("raw history");
    let mut by_cores: BTreeMap<Option<u64>, usize> = BTreeMap::new();
    let mut pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for line in text.lines() {
        let doc = Json::parse(line).expect("row parses as JSON");
        let cores = doc.get("cores").and_then(Json::as_f64).map(|c| c as u64);
        *by_cores.entry(cores).or_default() += 1;
        let field = |key: &str| doc.get(key).and_then(Json::as_str).expect(key).to_string();
        pairs.insert((field("run"), field("figure")));
    }
    assert_eq!(by_cores.get(&Some(2)), Some(&224), "rows at cores 2");
    assert_eq!(by_cores.get(&Some(4)), Some(&112), "rows at cores 4");
    assert_eq!(figure_runs(&read.records).len(), pairs.len());
}
