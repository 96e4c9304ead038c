//! Self-tests of the benchmark: its correctness check catches a
//! tampered pin, every metric it prints is declared in `BENCHMARK.json`,
//! traced spans nest, and the pins agree with the committed history.

use dbshare_expstore::Provenance;
use dbshare_expstore::{Json, Store};
use dbshare_harness::Outcome;
use dbshare_simbench::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use dbshare_simbench::pins::{self, history_check};
use dbshare_simbench::replay::replay_all;
use dbshare_simbench::run::{self, fail_frac, pass_failures, Pass};
use dbshare_simbench::spans::{nesting_errors, self_times, Tracer};
use dbshare_simbench::workloads::{jobs, BenchJob, DEFAULT_SEED, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The first two paper-dc jobs: 1- and 2-node quick runs.
fn small_jobs() -> Vec<BenchJob> {
    jobs("paper-dc", DEFAULT_SEED)
        .unwrap()
        .into_iter()
        .take(2)
        .collect()
}

fn small_pass(frame: Option<&Outcome>, tracer: &mut Tracer, name: &str) -> (Pass, Option<Outcome>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let prov = Provenance {
        git_revision: "test".into(),
        rustc_version: "test".into(),
        build_profile: "test".into(),
    };
    let store = dir.join(format!("selftest-{name}.jsonl"));
    let out = run::pass(&small_jobs(), frame, &store, &prov, tracer);
    let _ = std::fs::remove_file(store);
    out
}

#[test]
fn tampered_pin_counts_as_failed_job() {
    let (pass, _) = small_pass(None, &mut Tracer::new(false), "tamper");
    let mut pinned = pins::parse(pins::pinned_text("paper-dc").unwrap()).unwrap();
    assert!(pass_failures(&pass, &pinned).is_empty());

    let key = pass.jobs[1].key.clone();
    let fp = pinned.get_mut(&key).unwrap();
    *fp = fp.chars().rev().collect();
    let failed = pass_failures(&pass, &pinned);
    assert_eq!(failed, vec![key]);
    assert!(fail_frac(failed.len() as u64, pass.jobs.len() as u64) > 0.0);
}

#[test]
fn printed_metrics_are_declared_in_benchmark_json() {
    let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    let declared = |key: &str| -> BTreeMap<String, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let json = declared(key);
        let printed: BTreeMap<String, String> = table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(json, printed, "{key}");
        for (name, unit) in &printed {
            assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
        }
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn traced_run_spans_nest_and_reproduce_untraced_outputs() {
    let (plain, frame) = small_pass(None, &mut Tracer::new(false), "plain");
    let mut tracer = Tracer::new(true);
    let (traced, _) = small_pass(frame.as_ref(), &mut tracer, "traced");
    let replay = replay_all(&small_jobs(), &traced, &mut tracer);
    let expected: BTreeMap<String, String> = plain.fingerprints().into_iter().collect();
    assert!(pass_failures(&traced, &expected).is_empty());

    let spans = tracer.spans();
    assert!(nesting_errors(spans).is_empty());
    for (s, own) in spans.iter().zip(self_times(spans)) {
        assert!(own <= s.end_ns - s.start_ns, "{}", s.name);
    }
    for name in [
        "sim.engine.run",
        "sim.experiments.build",
        "workload.draw",
        "node.buffer.lookup",
        "lockmgr.request",
        "lockmgr.release",
        "storage.call",
        "desim.calendar.op",
        "expstore.append",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    assert!(replay.draws > 0 && replay.lookups > 0 && replay.lock_requests > 0);
    assert!(replay.storage_calls > 0 && replay.calendar_ops > 0);
}

#[test]
fn pins_agree_with_committed_history() {
    let rows = Store::new(package_dir().join("../docs/history.jsonl"))
        .read()
        .unwrap()
        .records;
    let mut found = 0;
    for w in WORKLOADS {
        let js = jobs(w, DEFAULT_SEED).unwrap();
        let pinned = pins::parse(pins::pinned_text(w).unwrap()).unwrap();
        let fps: Vec<(String, String)> = js
            .iter()
            .map(|j| (j.key(), pinned[&j.key()].clone()))
            .collect();
        let check = history_check(&js, &fps, &rows);
        assert!(check.differ.is_empty(), "{w}: {:?}", check.differ);
        found += check.jobs_found;
    }
    // The history holds the quick-length 1- and 2-node jobs of every
    // figure: 52 debit-credit curves and 4 trace curves, twice each.
    assert_eq!(found, 112);
}
