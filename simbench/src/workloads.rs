//! The benchmark's three named workloads as flat job lists built from
//! the library's own experiment presets.
//!
//! | workload      | jobs | what it is                                             |
//! |---------------|------|--------------------------------------------------------|
//! | `paper-dc`    | 520  | Figs. 4.1–4.6 + lock engine, quick length, 1–10 nodes  |
//! | `trace-fig47` | 20   | Fig. 4.7, quick length, 1/2/4/6/8 nodes                |
//! | `scale-128`   | 2    | `--scale full` geometry at 128 nodes, GEM and PCL      |
//!
//! The `--seed` argument replaces every job's master seed; the presets'
//! own seed is [`DEFAULT_SEED`], the one the pinned fingerprints hold.

use dbshare_sim::experiments::{self, CurveGrid, RunLength, RunSpec, ScalePreset};

/// The master seed every preset uses: pinned outputs are recorded at it.
pub const DEFAULT_SEED: u64 = 0xDB5_4A6E;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-dc", "trace-fig47", "scale-128"];

/// Node axis of the debit-credit figures (the `repro` default).
pub const DC_NODES: [u16; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
/// Node axis of Fig. 4.7 (the `repro` default).
pub const TRACE_NODES: [u16; 5] = [1, 2, 4, 6, 8];
/// Node count of the `scale-128` workload.
pub const SCALE_NODES: u16 = 128;
/// Per-node run length of `scale-128`: short enough to finish in a few
/// seconds, long enough for both points to report a CI95.
pub const SCALE_WARMUP_PER_NODE: u64 = 200;
/// Measured transactions per node of `scale-128`.
pub const SCALE_MEASURED_PER_NODE: u64 = 400;

/// One simulation run of a workload, labelled like a `repro` job.
#[derive(Debug, Clone)]
pub struct BenchJob {
    /// Figure key (`fig41`, ..., `lockengine`, `fig47`, `scale-128`).
    pub figure: String,
    /// Curve label as in the paper's legend.
    pub curve: String,
    /// Simulated node count.
    pub nodes: u16,
    /// The run, with the workload seed applied.
    pub spec: RunSpec,
}

impl BenchJob {
    /// Stable key of the job in pin files: `figure|curve|nodes`.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.figure, self.curve, self.nodes)
    }
}

/// The jobs of `workload` with every master seed replaced by `seed`,
/// or `None` for an unknown workload name.
pub fn jobs(workload: &str, seed: u64) -> Option<Vec<BenchJob>> {
    let quick = RunLength::quick();
    let figures: Vec<(&str, Vec<CurveGrid>)> = match workload {
        "paper-dc" => vec![
            ("fig41", experiments::fig41_grid(&DC_NODES, quick)),
            ("fig42", experiments::fig42_grid(&DC_NODES, quick)),
            ("fig43", experiments::fig43_grid(&DC_NODES, quick)),
            ("fig44", experiments::fig44_grid(&DC_NODES, quick)),
            ("fig45", experiments::fig45_grid(&DC_NODES, quick)),
            ("fig46", experiments::fig46_grid(&DC_NODES, quick)),
            (
                "lockengine",
                experiments::lock_engine_comparison_grid(&DC_NODES, quick),
            ),
        ],
        "trace-fig47" => vec![("fig47", experiments::fig47_grid(&TRACE_NODES, quick))],
        "scale-128" => vec![("scale-128", scale_grid())],
        _ => return None,
    };
    Some(
        figures
            .into_iter()
            .flat_map(|(figure, grid)| {
                grid.into_iter().flat_map(move |curve| {
                    curve.points.into_iter().map(move |(nodes, spec)| BenchJob {
                        figure: figure.to_string(),
                        curve: curve.label.clone(),
                        nodes,
                        spec: with_seed(spec, seed),
                    })
                })
            })
            .collect(),
    )
}

/// Both `--scale full` curves at [`SCALE_NODES`], run length shortened.
fn scale_grid() -> Vec<CurveGrid> {
    ScalePreset::CURVES
        .iter()
        .map(|&(label, coupling)| {
            let mut spec = ScalePreset::FULL.spec(coupling, SCALE_NODES);
            if let RunSpec::Scale(p) = &mut spec {
                p.run = RunLength {
                    warmup: SCALE_NODES as u64 * SCALE_WARMUP_PER_NODE,
                    measured: SCALE_NODES as u64 * SCALE_MEASURED_PER_NODE,
                };
            }
            CurveGrid {
                label: label.to_string(),
                points: vec![(SCALE_NODES, spec)],
            }
        })
        .collect()
}

fn run_mut(spec: &mut RunSpec) -> (&mut RunLength, &mut u64) {
    match spec {
        RunSpec::DebitCredit(p) | RunSpec::LockEngine { params: p, .. } => {
            (&mut p.run, &mut p.seed)
        }
        RunSpec::Trace(p) => (&mut p.run, &mut p.seed),
        RunSpec::Scale(p) => (&mut p.run, &mut p.seed),
    }
}

/// `spec` with its master seed replaced.
pub fn with_seed(mut spec: RunSpec, seed: u64) -> RunSpec {
    *run_mut(&mut spec).1 = seed;
    spec
}

/// `spec` cut to zero warm-up and one measured transaction: executing
/// it costs the engine build plus a handful of events, which is how
/// the benchmark measures set-up from outside the library.
pub fn truncated(mut spec: RunSpec) -> RunSpec {
    *run_mut(&mut spec).0 = RunLength {
        warmup: 0,
        measured: 1,
    };
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes() {
        assert_eq!(jobs("paper-dc", DEFAULT_SEED).unwrap().len(), 520);
        assert_eq!(jobs("trace-fig47", DEFAULT_SEED).unwrap().len(), 20);
        assert_eq!(jobs("scale-128", DEFAULT_SEED).unwrap().len(), 2);
        assert!(jobs("nope", DEFAULT_SEED).is_none());
    }

    #[test]
    fn seed_replaces_every_master_seed() {
        for w in WORKLOADS {
            for j in jobs(w, 7).unwrap() {
                assert_eq!(j.spec.seed(), 7, "{}", j.key());
            }
        }
    }

    #[test]
    fn keys_are_unique() {
        for w in WORKLOADS {
            let js = jobs(w, DEFAULT_SEED).unwrap();
            let keys: std::collections::BTreeSet<String> = js.iter().map(BenchJob::key).collect();
            assert_eq!(keys.len(), js.len(), "{w}");
        }
    }
}
