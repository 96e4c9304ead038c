//! CLI error paths of the `repro` binary: bad flag values and
//! unusable export destinations must exit 2 with a clear message
//! *before* any simulation runs — not an hour into a sweep, and never
//! with a panic.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// A scratch path under the temp dir, removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> TempPath {
        let mut path = std::env::temp_dir();
        path.push(format!("dbshare-cli-errors-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&path);
        TempPath(path)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// `--trace`/`--timeline` destinations that cannot become writable
/// directories (here: a child of a plain file) fail fast with exit 2,
/// before the run starts.
#[test]
fn unwritable_export_dir_exits_2_before_running() {
    let blocker = TempPath::new("blocker");
    fs::write(&blocker.0, b"plain file, not a directory").expect("scratch file");
    for flag in ["--trace", "--timeline"] {
        let bad_dir = blocker.0.join("sub");
        let started = Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([flag, bad_dir.to_str().expect("utf-8 path")])
            .output()
            .expect("spawn repro");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flag}: expected exit 2, got {:?}",
            output.status
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("cannot create directory"),
            "{flag}: stderr must name the flag and the failure, got: {stderr}"
        );
        // Fail-fast means validation, not a completed sweep: the
        // default figure set takes minutes, this must abort in
        // moments.
        assert!(
            started.elapsed().as_secs() < 30,
            "{flag}: validation did not fail fast"
        );
    }
}

/// Bad flag values exit 2 with a message naming the flag, during
/// argument parsing or the output-path checks before the run: no
/// panic, no tick-line flood from an interval that rounds to zero, and
/// no job started.
#[test]
fn bad_flag_values_exit_2_with_a_message() {
    // A file path under a plain file is unwritable, even for root.
    let blocker = TempPath::new("file-blocker");
    fs::write(&blocker.0, b"plain file, not a directory").expect("scratch file");
    let bad_file = blocker.0.join("x.json");
    let bad_file = bad_file.to_str().expect("utf-8 path");
    let cases: &[(&[&str], &str)] = &[
        // Too large for a `Duration`.
        (&["--quick", "--ticker", "1e300", "fig41"], "--ticker"),
        // Rounds to a zero interval.
        (&["--quick", "--ticker", "1e-300", "fig41"], "--ticker"),
        (&["--quick", "--ticker", "0", "fig41"], "--ticker"),
        (&["--quick", "--jobs", "0", "fig41"], "--jobs"),
        // Not a flag.
        (
            &["--quick", "--cores", "2", "fig41"],
            "unknown flag \"--cores\"",
        ),
        // Removed: comparing runs is `--history` or `perfgate`, and
        // `--profile` prints allocations per event.
        (
            &["--quick", "--compare", "x", "fig41"],
            "unknown flag \"--compare\"",
        ),
        (
            &["--quick", "--alloc-stats", "fig41"],
            "unknown flag \"--alloc-stats\"",
        ),
        // Output files checked before the run, not after it.
        (
            &["--quick", "--no-history", "--json", bad_file, "fig41"],
            "--json",
        ),
        (
            &["--quick", "--no-history", "--explain", bad_file, "fig41"],
            "--explain",
        ),
        (
            &["--quick", "--no-history", "--report", bad_file, "fig41"],
            "--report",
        ),
    ];
    for (args, needle) in cases {
        let started = Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: expected exit 2, got {:?}; stderr: {stderr}",
            output.status
        );
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?}: stderr must be one error naming {needle}, got: {stderr}"
        );
        assert!(
            !stderr.contains("[1/"),
            "{args:?}: a job ran before validation failed: {stderr}"
        );
        assert!(
            started.elapsed().as_secs() < 30,
            "{args:?}: validation did not fail fast"
        );
    }
}
