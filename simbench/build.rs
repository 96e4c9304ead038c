//! Embeds build facts (git revision, rustc version, profile) into the
//! benchmark binary so every result line says which build produced it.
//! Each fact degrades to `"unknown"` when it cannot be read, e.g. in a
//! source checkout without `.git`.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rev = capture("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=SIMBENCH_GIT_REVISION={rev}");
    println!("cargo:rustc-env=SIMBENCH_RUSTC_VERSION={rustc_version}");
    println!("cargo:rustc-env=SIMBENCH_BUILD_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
