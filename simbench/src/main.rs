//! `simbench`: the dbshare host-cost benchmark.
//!
//! ```text
//! simbench --workload paper-dc|trace-fig47|scale-128 [--seed N]
//!          [--seconds S] [--trace 0|1]
//! simbench --workload NAME --pin
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a traced run (and writes its spans to
//! `out/spans-<workload>.jsonl` in this package's directory). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any panicked, truncated or mismatching job makes the
//! command exit 1 after printing it; bad arguments exit 2.

use dbshare_expstore::{Provenance, Store};
use dbshare_harness::rss;
use dbshare_simbench::heap::PeakAlloc;
use dbshare_simbench::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use dbshare_simbench::run::{self, host_cpus, median, pass_failures, Pass};
use dbshare_simbench::spans::{nesting_errors, self_secs_by_name, Tracer};
use dbshare_simbench::workloads::{self, BenchJob, DEFAULT_SEED};
use dbshare_simbench::{pins, replay};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Counts heap allocations per job, as `repro` does, and tracks live
/// heap bytes for `peak_heap_mb`.
#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Set-up repetitions per untraced run: at least [`SETUP_MIN_REPS`],
/// and more while they have taken less than [`SETUP_SECONDS`]; `setup_s`
/// sums each job's median set-up time over them.
const SETUP_MIN_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
/// Passes an untraced run makes at least; `wall_s` and `events_per_s`
/// take each job's median time over the passes.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| fail(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = value(i).to_string(),
            "--seed" => {
                let v = value(i);
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                }
                .unwrap_or_else(|| fail(&format!("--seed takes an integer, got {v:?}")));
            }
            "--seconds" => {
                let v = value(i);
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| {
                        fail(&format!("--seconds takes a positive number, got {v:?}"))
                    });
            }
            "--trace" => {
                args.trace = match value(i) {
                    "0" => false,
                    "1" => true,
                    v => fail(&format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--pin" => {
                args.pin = true;
                i += 1;
                continue;
            }
            other => fail(&format!(
                "unknown argument {other:?} (try --workload, --seed, --seconds, --trace, --pin)"
            )),
        }
        i += 2;
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        fail(&format!(
            "--workload must be one of {}, got {:?}",
            workloads::WORKLOADS.join(", "),
            args.workload
        ));
    }
    args
}

fn provenance() -> Provenance {
    Provenance {
        git_revision: env!("SIMBENCH_GIT_REVISION").to_string(),
        rustc_version: env!("SIMBENCH_RUSTC_VERSION").to_string(),
        build_profile: env!("SIMBENCH_BUILD_PROFILE").to_string(),
    }
}

/// This package's directory: pins live in `pins/`, outputs go to `out/`.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    dir
}

/// The fingerprints a run's passes must reproduce: the pins at the
/// default seed, otherwise the run's own first pass.
fn expected_fingerprints(workload: &str, seed: u64, first: &Pass) -> BTreeMap<String, String> {
    if seed == DEFAULT_SEED {
        let text = pins::pinned_text(workload).expect("known workload");
        pins::parse(text).unwrap_or_else(|e| fail(&format!("pins of {workload}: {e}")))
    } else {
        first.fingerprints().into_iter().collect()
    }
}

fn report_failures(label: &str, bad: &[String]) {
    for key in bad.iter().take(10) {
        println!("# FAIL {label}: {key}");
    }
    if bad.len() > 10 {
        println!("# FAIL {label}: ... and {} more", bad.len() - 10);
    }
}

fn main() {
    let args = parse_args();
    let jobs = workloads::jobs(&args.workload, args.seed).expect("validated workload");
    if args.pin {
        pin(&args, &jobs);
        return;
    }
    let prov = provenance();
    println!(
        "# simbench workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" rev={} profile={} workers=1 engine=serial jobs={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cpus(),
        prov.rustc_version,
        prov.git_revision,
        prov.build_profile,
        jobs.len()
    );
    let store_path = out_dir().join(format!("store-{}.jsonl", args.workload));
    let (values, attempted, failed) = if args.trace {
        traced(&args, &jobs, &store_path, &prov)
    } else {
        untraced(&args, &jobs, &store_path, &prov)
    };
    let _ = std::fs::remove_file(&store_path);
    for (name, unit, v) in values.entries() {
        println!("metric {name} {v} {unit}");
    }
    println!(
        "job_fail_frac {} ({failed} of {attempted} job runs)",
        run::fail_frac(failed, attempted)
    );
    println!("{}", result_line(failed == 0, attempted, failed, &values));
    if failed > 0 {
        std::process::exit(1);
    }
}

/// The end-to-end run: passes until the time budget is spent (at least
/// [`MIN_PASSES`]), then the set-up repetitions.
fn untraced(
    args: &Args,
    jobs: &[BenchJob],
    store_path: &Path,
    prov: &Provenance,
) -> (Values, u64, u64) {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let (p, _) = run::pass(jobs, None, store_path, prov, &mut Tracer::new(false));
        let next_ends = start.elapsed().as_secs_f64() + p.wall_s;
        passes.push(p);
        if passes.len() >= MIN_PASSES && next_ends > args.seconds {
            break;
        }
    }
    let setup_start = Instant::now();
    let mut setups: Vec<Vec<f64>> = Vec::new();
    while setups.len() < SETUP_MIN_REPS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        setups.push(run::setup_secs(jobs));
    }

    let expected = expected_fingerprints(&args.workload, args.seed, &passes[0]);
    let mut failed = 0u64;
    for (k, p) in passes.iter().enumerate() {
        let bad = pass_failures(p, &expected);
        report_failures(&format!("pass {k}"), &bad);
        failed += bad.len() as u64;
    }
    let attempted = (jobs.len() * passes.len()) as u64;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let job_secs: Vec<Vec<f64>> = passes.iter().map(Pass::job_secs).collect();
    let exec_s = run::sum_of_medians(&job_secs);
    let overhead_s = median(
        &passes
            .iter()
            .map(|p| p.wall_s - p.exec_s)
            .collect::<Vec<_>>(),
    );
    println!(
        "# passes={} pass_wall_s={walls:?} setup_reps={} peak_rss_mb={}",
        passes.len(),
        setups.len(),
        rss::peak_rss_mb().unwrap_or(0.0)
    );

    let mut v = Values::default();
    v.set("wall_s", exec_s + overhead_s);
    v.set("setup_s", run::sum_of_medians(&setups));
    v.set("events_per_s", passes[0].events as f64 / exec_s.max(1e-9));
    v.set(
        "peak_heap_mb",
        median(&passes.iter().map(|p| p.peak_heap_mb).collect::<Vec<_>>()),
    );
    let events: u64 = passes.iter().map(|p| p.events).sum();
    let allocs: u64 = passes.iter().map(|p| p.allocs).sum();
    v.set("allocs_per_event", allocs as f64 / events.max(1) as f64);
    debug_assert!(v.missing(&END_TO_END).is_empty());
    (v, attempted, failed)
}

/// The traced run: an untraced pass, the same jobs again under spans,
/// then traced set-up and layer replays. Correct when the untraced pass
/// matches the pins (at the default seed), the traced pass reproduces
/// the untraced fingerprints, and every span nests. It makes one pass
/// of each kind whatever `--seconds` says.
fn traced(
    args: &Args,
    jobs: &[BenchJob],
    store_path: &Path,
    prov: &Provenance,
) -> (Values, u64, u64) {
    let (plain, frame) = run::pass(jobs, None, store_path, prov, &mut Tracer::new(false));
    // The process peak after one plain pass, before any replay memory.
    let peak_rss_mb = rss::peak_rss_mb().unwrap_or(0.0);
    let mut tracer = Tracer::new(true);
    let Some(frame) = frame else {
        println!("# FAIL untraced pass: the harness run panicked");
        return (
            Values::default(),
            2 * jobs.len() as u64,
            2 * jobs.len() as u64,
        );
    };
    let (pass, _) = run::pass(jobs, Some(&frame), store_path, prov, &mut tracer);
    let rep = replay::replay_all(jobs, &pass, &mut tracer);

    let expected = expected_fingerprints(&args.workload, args.seed, &plain);
    let plain_bad = pass_failures(&plain, &expected);
    report_failures("untraced pass", &plain_bad);
    let traced_bad = pass_failures(&pass, &plain.fingerprints().into_iter().collect());
    report_failures("traced pass", &traced_bad);
    let mut failed = (plain_bad.len() + traced_bad.len()) as u64;
    // A broken trace fails the run as a whole, counted as one failure.
    let nesting = nesting_errors(tracer.spans());
    if !nesting.is_empty() {
        println!("# FAIL spans: {} spans do not nest", nesting.len());
        failed += 1;
    }
    let spans_path = out_dir().join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = tracer.write_jsonl(&spans_path) {
        println!("# FAIL spans: cannot write {}: {e}", spans_path.display());
        failed += 1;
    }
    println!(
        "# spans={} file={}",
        tracer.spans().len(),
        spans_path.display()
    );
    for line in rep.fidelity_lines() {
        println!("# replay {line}");
    }

    let secs = self_secs_by_name(tracer.spans());
    let s = |name: &str| secs.get(name).copied().unwrap_or(0.0);
    let done: Vec<_> = pass.jobs.iter().filter_map(|j| j.result.as_ref()).collect();
    let sum =
        |f: &dyn Fn(&dbshare_harness::JobResult) -> u64| done.iter().map(|r| f(r)).sum::<u64>();
    let ns_per = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    let mut v = Values::default();
    let run_s = s("sim.engine.run");
    v.set("sim.engine.run_s", run_s);
    v.set("sim.engine.ns_per_event", ns_per(run_s, pass.events));
    v.set("sim.engine.events", pass.events as f64);
    v.set(
        "sim.engine.events.cpu_done",
        sum(&|r| r.report.profile.cpu_done) as f64,
    );
    v.set(
        "sim.engine.events.io_done",
        sum(&|r| r.report.profile.io_done) as f64,
    );
    v.set(
        "sim.engine.events.delivered",
        sum(&|r| r.report.profile.delivered) as f64,
    );
    v.set(
        "sim.engine.events.gem_held",
        sum(&|r| r.report.profile.gem_held_done) as f64,
    );
    v.set(
        "sim.engine.conts.locking",
        sum(&|r| r.report.profile.cont_locking) as f64,
    );
    v.set(
        "sim.engine.conts.messaging",
        sum(&|r| r.report.profile.cont_messaging) as f64,
    );
    v.set(
        "sim.engine.conts.storage",
        sum(&|r| r.report.profile.cont_storage) as f64,
    );
    v.set("sim.engine.allocs", pass.allocs as f64);
    v.set("sim.experiments.build_s", s("sim.experiments.build"));
    v.set(
        "workload.trace.synthesize_s",
        s("workload.trace.synthesize"),
    );
    v.set("workload.draws", rep.draws as f64);
    v.set(
        "workload.ns_per_draw",
        ns_per(s("workload.draw"), rep.draws),
    );
    v.set("workload.refs_per_txn", ratio(rep.refs, rep.draws));
    v.set("node.buffer.lookups", rep.lookups as f64);
    v.set(
        "node.buffer.ns_per_lookup",
        ns_per(s("node.buffer.lookup"), rep.lookups),
    );
    v.set("node.buffer.hit_ratio", ratio(rep.hits, rep.lookups));
    v.set("node.buffer.evictions", rep.evictions as f64);
    v.set("lockmgr.requests", rep.lock_requests as f64);
    v.set(
        "lockmgr.ns_per_request",
        ns_per(s("lockmgr.request"), rep.lock_requests),
    );
    v.set(
        "lockmgr.ns_per_release",
        ns_per(s("lockmgr.release"), rep.lock_releases),
    );
    v.set(
        "lockmgr.conflict_ratio",
        ratio(rep.lock_conflicts, rep.lock_requests),
    );
    v.set("desim.calendar.ops", rep.calendar_ops as f64);
    v.set(
        "desim.calendar.ns_per_op",
        ns_per(s("desim.calendar.op"), rep.calendar_ops),
    );
    v.set("desim.calendar.depth", rep.calendar_depth());
    v.set("storage.calls", rep.storage_calls as f64);
    v.set(
        "storage.ns_per_call",
        ns_per(s("storage.call"), rep.storage_calls),
    );
    v.set("harness.artifact_s", s("harness.artifact"));
    v.set("harness.peak_rss_mb", peak_rss_mb);
    v.set("expstore.append_s", s("expstore.append"));
    v.set("expstore.read_s", s("expstore.read"));
    v.set("expstore.index_s", s("expstore.index"));
    v.set("expstore.gate_s", s("expstore.gate"));
    v.set("expstore.records", pass.records as f64);
    v.set("bench.trace_overhead", pass.wall_s / plain.wall_s.max(1e-9));
    debug_assert!(v.missing(&PER_LAYER).is_empty());
    println!(
        "# wall_s untraced={} traced={} build_share_of_wall={:.4}",
        plain.wall_s,
        pass.wall_s,
        s("sim.experiments.build") / plain.wall_s.max(1e-9)
    );
    (v, (2 * jobs.len()) as u64, failed)
}

/// Records the pins of `jobs` at the default seed after cross-checking
/// them against the committed experiment history.
fn pin(args: &Args, jobs: &[BenchJob]) {
    if args.seed != DEFAULT_SEED {
        fail("--pin records the default seed only");
    }
    let store_path = out_dir().join(format!("store-{}.jsonl", args.workload));
    let (p, _) = run::pass(
        jobs,
        None,
        &store_path,
        &provenance(),
        &mut Tracer::new(false),
    );
    let _ = std::fs::remove_file(&store_path);
    let broken: Vec<String> = p
        .jobs
        .iter()
        .filter(|j| j.broken())
        .map(|j| j.key.clone())
        .collect();
    if !broken.is_empty() {
        report_failures("pin", &broken);
        std::process::exit(1);
    }
    let history = package_dir().join("../docs/history.jsonl");
    let rows = Store::new(&history)
        .read()
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", history.display())))
        .records;
    let fps = p.fingerprints();
    let check = pins::history_check(jobs, &fps, &rows);
    println!(
        "history cross-check: {} jobs found in history, {} rows match, {} differ",
        check.jobs_found,
        check.rows_matched,
        check.differ.len()
    );
    if !check.differ.is_empty() {
        report_failures("history", &check.differ);
        std::process::exit(1);
    }
    let path = package_dir()
        .join("pins")
        .join(format!("{}.tsv", args.workload));
    let text = pins::render(&args.workload, args.seed, &fps);
    std::fs::write(&path, text)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    println!("pinned {} jobs to {}", fps.len(), path.display());
}
