//! Build script embedding build provenance into the harness.
//!
//! Captures the git revision, the compiler version, and the build
//! profile at compile time, so every store row and every
//! `BENCH_repro.json` row (`dbshare_harness::provenance`) records
//! exactly which build produced it. Everything degrades to `"unknown"`
//! when the information is unavailable (e.g. a source tarball without
//! `.git`), so the build never fails on provenance.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    if text.is_empty() {
        None
    } else {
        Some(text.to_string())
    }
}

fn main() {
    let git_rev = capture("git", &["rev-parse", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |rev| {
            let dirty = capture("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        },
    );
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());

    println!("cargo:rustc-env=DBSHARE_GIT_REVISION={git_rev}");
    println!("cargo:rustc-env=DBSHARE_RUSTC_VERSION={rustc_version}");
    println!("cargo:rustc-env=DBSHARE_BUILD_PROFILE={profile}");
    // Re-run when HEAD moves or its branch gets a new commit, so the
    // embedded revision tracks commits. Cargo re-runs a script on every
    // build while a watched path is missing, so a checkout without
    // `.git` watches only this file.
    println!("cargo:rerun-if-changed=build.rs");
    let git = Path::new("../../.git");
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
        if let Some(branch) = head.strip_prefix("ref: ").map(str::trim) {
            if git.join(branch).exists() {
                println!("cargo:rerun-if-changed=../../.git/{branch}");
            }
        }
    }
}
