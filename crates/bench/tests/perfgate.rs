//! Exit codes of the `perfgate` binary against a history built by a
//! small `repro` run: 0 for the run's own artifact, 1 for a slowed or
//! metric-drifted copy of it, and 2 — with the file named — for input
//! the gate cannot use.

use dbshare_expstore::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory under the temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let mut path = std::env::temp_dir();
        path.push(format!("dbshare-perfgate-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("scratch dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs the gate; returns its exit code and stderr.
fn perfgate(history: &Path, artifact: &Path) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .arg(history)
        .arg(artifact)
        .output()
        .expect("spawn perfgate");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// `doc` with `edit` applied to every row of its `records` array.
fn with_rows(doc: &Json, edit: impl Fn(usize, &mut Json)) -> Json {
    let mut doc = doc.clone();
    let Some(Json::Arr(mut rows)) = doc.remove("records") else {
        panic!("artifact has no records array");
    };
    for (i, row) in rows.iter_mut().enumerate() {
        edit(i, row);
    }
    doc.set("records", Json::Arr(rows));
    doc
}

#[test]
fn perfgate_exit_codes() {
    let dir = TempDir::new("exit-codes");
    let history = dir.0.join("history.jsonl");
    let artifact = dir.0.join("BENCH_repro.json");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir.0)
        .args(["--quick", "--nodes", "1", "--jobs", "1", "--history"])
        .arg(&dir.0)
        .arg("--json")
        .arg(&artifact)
        .arg("fig41")
        .output()
        .expect("spawn repro");
    assert!(
        run.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = Json::parse(&fs::read_to_string(&artifact).expect("artifact written"))
        .expect("artifact parses");

    // The run's own artifact passes against the history it appended.
    let (code, stderr) = perfgate(&history, &artifact);
    assert_eq!(code, Some(0), "own artifact: {stderr}");

    let write = |name: &str, text: String| -> PathBuf {
        let path = dir.0.join(name);
        fs::write(&path, text).expect("scratch file");
        path
    };
    let slow = write(
        "slow.json",
        with_rows(&doc, |_, row| {
            let wall = row.get("wall_secs").and_then(Json::as_f64).expect("wall");
            row.set("wall_secs", Json::Num(wall * 100.0));
        })
        .render(),
    );
    let drift = write(
        "drift.json",
        with_rows(&doc, |i, row| {
            if i == 0 {
                row.set("metric_fingerprint", Json::Str("0".repeat(16)));
            }
        })
        .render(),
    );
    for (path, what) in [
        (&slow, "every wall_secs x100"),
        (&drift, "zeroed fingerprint"),
    ] {
        let (code, stderr) = perfgate(&history, path);
        assert_eq!(code, Some(1), "{what}: {stderr}");
    }

    let mut old = doc.clone();
    old.set("schema", Json::Str("dbshare-bench/1".into()));
    let old = write("old-schema.json", old.render());
    let deep = write("deep.json", "[".repeat(200_000));
    let missing = dir.0.join("missing.json");
    for path in [&missing, &old, &deep] {
        let (code, stderr) = perfgate(&history, path);
        assert_eq!(code, Some(2), "{}: {stderr}", path.display());
        assert!(
            stderr.contains(&*path.display().to_string()),
            "stderr must name {}: {stderr}",
            path.display()
        );
    }
}
