//! One pass over a workload, and the set-up measurement.
//!
//! A pass runs every job with the serial engine on one worker thread,
//! builds the harness artifact and the store records, appends them to a
//! fresh experiment store, reads the store back, indexes it and runs
//! the regression gate over it. The store calls sit in spans in both
//! passes. The untraced pass hands all jobs to the harness in one call
//! (`repro --jobs 1`); the traced pass runs them on one thread of its
//! own, job by job, so that each engine run sits in a span.

use crate::heap;
use crate::spans::Tracer;
use crate::workloads::{truncated, BenchJob};
use dbshare_expstore::{figure_runs, gate_check, Index, Provenance, Store};
use dbshare_harness::{alloc_track, Harness, JobResult, Outcome, Sweep};
use dbshare_sim::experiments::CurveGrid;
use dbshare_sim::RunReport;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// What became of one job in one pass.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's pin key.
    pub key: String,
    /// The job's result; `None` when it panicked.
    pub result: Option<JobResult>,
    /// Whether the store handed back the job's record unchanged.
    pub stored: bool,
}

impl JobOutcome {
    /// The metric fingerprint, if the job completed.
    pub fn fingerprint(&self) -> Option<String> {
        self.result.as_ref().map(|r| r.report.metric_fingerprint())
    }

    /// True if the job panicked, was truncated, or lost its record.
    pub fn broken(&self) -> bool {
        match &self.result {
            None => true,
            Some(r) => r.report.truncated || !self.stored,
        }
    }
}

/// Totals of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds of the job executions alone.
    pub exec_s: f64,
    /// Calendar events of all jobs.
    pub events: u64,
    /// Heap allocations of all jobs.
    pub allocs: u64,
    /// Highest live heap during the pass above its level at the start,
    /// in MiB.
    pub peak_heap_mb: f64,
    /// Records the store held after the append.
    pub records: usize,
    /// Per-job outcomes in job order.
    pub jobs: Vec<JobOutcome>,
}

impl Pass {
    /// Host seconds of each job's execution, in job order (0 for a job
    /// that panicked).
    pub fn job_secs(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| j.result.as_ref().map_or(0.0, |r| r.wall_secs))
            .collect()
    }

    /// `(key, fingerprint)` of every completed job.
    pub fn fingerprints(&self) -> Vec<(String, String)> {
        self.jobs
            .iter()
            .filter_map(|j| j.fingerprint().map(|fp| (j.key.clone(), fp)))
            .collect()
    }
}

/// Runs one pass of `jobs`, appending to a fresh store at `store_path`,
/// and returns it with the harness outcome it produced.
///
/// Without a `frame` the jobs go to the harness in one call with one
/// worker, as `repro --jobs 1` runs them. With one (the outcome of an
/// untraced pass of the same jobs) they run job by job on one worker
/// thread of the benchmark's own, each `RunSpec::execute` in a span,
/// and the frame carries their reports through the harness bookkeeping,
/// so the benchmark never builds harness jobs itself.
pub fn pass(
    jobs: &[BenchJob],
    frame: Option<&Outcome>,
    store_path: &Path,
    provenance: &Provenance,
    tracer: &mut Tracer,
) -> (Pass, Option<Outcome>) {
    // A fresh store for every pass; removing it is not part of the pass.
    let _ = std::fs::remove_file(store_path);
    let store = Store::new(store_path);
    let heap_base = heap::live_bytes();
    heap::reset_peak();
    let start = Instant::now();
    let (outcome, mut results) = match frame {
        None => {
            let sweeps = jobs.iter().map(sweep).collect();
            match catch_unwind(AssertUnwindSafe(|| Harness::new().workers(1).run(sweeps))) {
                Ok(outcome) => {
                    let results = outcome.results.iter().cloned().map(Some).collect();
                    (Some(outcome), results)
                }
                // A panic aborts the pool's whole run: every job fails.
                Err(_) => (None, vec![None; jobs.len()]),
            }
        }
        Some(frame) => {
            let runs = std::thread::scope(|s| {
                s.spawn(|| {
                    jobs.iter()
                        .enumerate()
                        .map(|(i, job)| {
                            let id = i as u32;
                            tracer.span(id, "job", |t| {
                                t.span(id, "sim.engine.run", |_| execute(job))
                            })
                        })
                        .collect::<Vec<_>>()
                })
                .join()
                .expect("jobs run under catch_unwind")
            });
            let mut outcome = frame.clone();
            let results = outcome
                .results
                .iter_mut()
                .zip(runs)
                .map(|(r, run)| {
                    let (report, wall_secs) = run?;
                    r.report = report;
                    r.wall_secs = wall_secs;
                    Some(r.clone())
                })
                .collect();
            (Some(outcome), results)
        }
    };

    let group = jobs.len() as u32;
    let (written, read) = match &outcome {
        Some(outcome) => tracer.span(group, "store", |t| {
            // Only completed jobs have records.
            let mut done = outcome.clone();
            done.results = results.iter().flatten().cloned().collect();
            let records = t.span(group, "harness.artifact", |_| {
                std::hint::black_box(done.artifact().render());
                done.store_records(provenance)
            });
            if let Err(e) = t.span(group, "expstore.append", |_| store.append(&records)) {
                eprintln!("simbench: store append failed: {e}");
            }
            let read = t
                .span(group, "expstore.read", |_| store.read())
                .map(|r| r.records)
                .unwrap_or_default();
            t.span(group, "expstore.index", |_| {
                let index = Index::new(&read);
                std::hint::black_box((index.figures().len(), figure_runs(&read).len()));
            });
            // The regression gate as CI runs it (`--max-regress-pct 75`).
            t.span(group, "expstore.gate", |_| {
                std::hint::black_box(gate_check(&read, &records, 75.0).passed());
            });
            (records, read)
        }),
        None => (Vec::new(), Vec::new()),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let peak_heap_mb = heap::peak_bytes().saturating_sub(heap_base) as f64 / (1024.0 * 1024.0);

    // The store must hand back every completed job's record unchanged.
    let mut rows = written.iter().zip(&read);
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    for (job, result) in jobs.iter().zip(results.drain(..)) {
        let stored = result.as_ref().is_some_and(|r| {
            let fp = r.report.metric_fingerprint();
            rows.next().is_some_and(|(w, rd)| {
                w.metric_fingerprint == rd.metric_fingerprint
                    && w.config_fingerprint == rd.config_fingerprint
                    && fp == rd.metric_fingerprint
            })
        });
        outcomes.push(JobOutcome {
            key: job.key(),
            result,
            stored,
        });
    }
    let done = || outcomes.iter().filter_map(|o| o.result.as_ref());
    let pass = Pass {
        wall_s,
        exec_s: done().map(|r| r.wall_secs).sum(),
        events: done().map(|r| r.report.events_processed).sum(),
        allocs: done().map(|r| r.report.profile.host_allocs).sum(),
        peak_heap_mb,
        records: read.len(),
        jobs: outcomes,
    };
    (pass, outcome)
}

/// One job as a one-point harness sweep.
fn sweep(job: &BenchJob) -> Sweep {
    Sweep {
        figure: job.figure.clone(),
        grid: vec![CurveGrid {
            label: job.curve.clone(),
            points: vec![(job.nodes, job.spec)],
        }],
    }
}

/// Runs one job as the harness pool's worker does: timed, with its
/// allocations counted on this thread. `None` if it panicked.
fn execute(job: &BenchJob) -> Option<(RunReport, f64)> {
    catch_unwind(AssertUnwindSafe(|| {
        let allocs0 = alloc_track::thread_allocs();
        let bytes0 = alloc_track::thread_alloc_bytes();
        let start = Instant::now();
        let mut report = job.spec.execute();
        let wall_secs = start.elapsed().as_secs_f64();
        report.profile.host_allocs = alloc_track::thread_allocs() - allocs0;
        report.profile.host_alloc_bytes = alloc_track::thread_alloc_bytes() - bytes0;
        (report, wall_secs)
    }))
    .ok()
}

/// Failures of one pass: jobs that panicked, were truncated or lost
/// their store record, plus jobs whose fingerprint differs from
/// `expected` (the pins, or another pass of the same run).
pub fn pass_failures(pass: &Pass, expected: &BTreeMap<String, String>) -> Vec<String> {
    pass.jobs
        .iter()
        .filter(|j| j.broken() || j.fingerprint().as_ref() != expected.get(&j.key))
        .map(|j| j.key.clone())
        .collect()
}

/// `job_fail_frac`: failed job runs over attempted job runs.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Host seconds to build each job's engine, in job order: each spec is
/// executed truncated to zero warm-up and one measured transaction.
pub fn setup_secs(jobs: &[BenchJob]) -> Vec<f64> {
    jobs.iter()
        .map(|job| {
            let start = Instant::now();
            let report = truncated(job.spec).execute();
            std::hint::black_box(report.events_processed);
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Σ over positions of the median across `reps` (each rep a vector of
/// per-job values in job order): one transient slowdown moves a job's
/// median only if it hits that job in most reps.
pub fn sum_of_medians(reps: &[Vec<f64>]) -> f64 {
    let n = reps.first().map_or(0, Vec::len);
    (0..n)
        .map(|j| {
            median(
                &reps
                    .iter()
                    .filter_map(|r| r.get(j).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// Logical CPUs of the host.
pub fn host_cpus() -> u32 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u32)
}

/// Median of `xs` (mean of the middle two for even lengths; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_of_medians_takes_each_jobs_median() {
        let reps = vec![vec![1.0, 10.0], vec![2.0, 30.0], vec![9.0, 20.0]];
        assert_eq!(sum_of_medians(&reps), 2.0 + 20.0);
        assert_eq!(sum_of_medians(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
