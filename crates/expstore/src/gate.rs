//! The regression gate: compares a fresh run against recorded history.
//!
//! Two checks, in increasing order of tolerance:
//!
//! 1. **Metric drift (exact).** A job whose config fingerprint exists
//!    in history must reproduce the recorded metric fingerprint
//!    bit-for-bit — the simulator is deterministic, so *any* change in
//!    results for an unchanged configuration is a correctness
//!    regression, not noise. Records without a metric fingerprint
//!    (pre-store artifacts) are skipped.
//! 2. **Event-rate regression (thresholded).** Per figure, the fresh
//!    run's aggregate events/s must stay within `max_regress_pct`
//!    percent of the best recorded run of the *same config set*
//!    ([`figure_runs`] pairs only identical job sets). Host
//!    wall-clock varies across machines, so the threshold is the
//!    caller's to choose: tight for same-machine trend gating,
//!    generous for cross-runner CI.

use crate::index::{figure_runs, Index};
use crate::record::Record;

/// Verdict of one gate evaluation.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Hard failures: the gate should fail the build.
    pub failures: Vec<String>,
    /// Informational lines (clean comparisons, skipped checks).
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gates `current` against `history` with the given events/s
/// regression threshold in percent (e.g. `50.0` fails when the fresh
/// run is less than half the best recorded rate).
pub fn check(history: &[Record], current: &[Record], max_regress_pct: f64) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    let index = Index::new(history);

    // 1. Metric fingerprints must match history exactly per config.
    let mut drift_checked = 0usize;
    for rec in current {
        if rec.metric_fingerprint.is_empty() {
            continue;
        }
        let prior = index.by_config(&rec.config_fingerprint);
        let mut seen_any = false;
        for old in &prior {
            if old.metric_fingerprint.is_empty() {
                continue;
            }
            seen_any = true;
            if old.metric_fingerprint != rec.metric_fingerprint {
                outcome.failures.push(format!(
                    "metric drift: {} | {} | n={} (config {}): history run {} recorded \
                     metrics {}, this run produced {} — same configuration, different results",
                    rec.figure,
                    rec.curve,
                    rec.nodes,
                    rec.config_fingerprint,
                    old.run,
                    old.metric_fingerprint,
                    rec.metric_fingerprint,
                ));
                break;
            }
        }
        if seen_any {
            drift_checked += 1;
        }
    }
    outcome.notes.push(format!(
        "metric fingerprints: {} of {} current job(s) had recorded history to match against",
        drift_checked,
        current.len()
    ));

    // 2. Aggregate events/s per figure vs the best comparable run.
    let history_rows = figure_runs(history);
    for row in figure_runs(current) {
        let best = history_rows
            .iter()
            .filter(|h| h.figure == row.figure && h.config_set == row.config_set)
            .reduce(|best, h| {
                if h.events_per_sec() > best.events_per_sec() {
                    h
                } else {
                    best
                }
            });
        let Some(best) = best else {
            outcome.notes.push(format!(
                "events/s [{}]: no recorded run with this config set — skipped",
                row.figure
            ));
            continue;
        };
        let floor = best.events_per_sec() * (1.0 - max_regress_pct / 100.0);
        let verdict = format!(
            "events/s [{}]: {:.0} now vs best recorded {:.0} (run {}, rev {}); \
             floor at -{:.0}% is {:.0}",
            row.figure,
            row.events_per_sec(),
            best.events_per_sec(),
            best.run,
            short_rev(&best.git_revision),
            max_regress_pct,
            floor,
        );
        if row.events_per_sec() < floor {
            outcome.failures.push(format!("regression: {verdict}"));
        } else {
            outcome.notes.push(verdict);
        }
    }
    outcome
}

/// First 12 characters of a revision string (full hashes are noise in
/// one-line reports).
pub fn short_rev(rev: &str) -> &str {
    &rev[..rev.len().min(12)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Provenance;

    fn rec(run: &str, figure: &str, nodes: u16, wall: f64, metric: &str) -> Record {
        Record {
            run: run.into(),
            created_unix: 1,
            provenance: Provenance::default(),
            figure: figure.into(),
            curve: "c".into(),
            nodes,
            seed: 1,
            host_cpus: 8,
            config_fingerprint: format!("cfg-{figure}-{nodes}"),
            metric_fingerprint: metric.into(),
            wall_secs: wall,
            events_processed: 1000,
            allocs_per_event: 0.1,
            mean_response_ms: 1.0,
            throughput_tps: 1.0,
            peak_rss_mb: None,
            binding: None,
            binding_utilization: None,
            next_constraint: None,
            next_utilization: None,
            utils: None,
        }
    }

    #[test]
    fn clean_rerun_passes() {
        let history = vec![
            rec("r1", "fig41", 1, 1.0, "m1"),
            rec("r1", "fig41", 2, 1.0, "m2"),
        ];
        let current = vec![
            rec("r2", "fig41", 1, 1.1, "m1"),
            rec("r2", "fig41", 2, 1.1, "m2"),
        ];
        let outcome = check(&history, &current, 50.0);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
    }

    #[test]
    fn metric_drift_for_unchanged_config_fails() {
        let history = vec![rec("r1", "fig41", 1, 1.0, "m1")];
        let current = vec![rec("r2", "fig41", 1, 1.0, "DIFFERENT")];
        let outcome = check(&history, &current, 50.0);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].contains("metric drift"));
    }

    #[test]
    fn slow_run_beyond_threshold_fails() {
        let history = vec![rec("r1", "fig41", 1, 1.0, "m1")];
        // 3x slower than history: below the 50% floor.
        let current = vec![rec("r2", "fig41", 1, 3.0, "m1")];
        let outcome = check(&history, &current, 50.0);
        assert_eq!(outcome.failures.len(), 1, "notes: {:?}", outcome.notes);
        assert!(outcome.failures[0].contains("regression"));
        // The same run passes a 70% threshold.
        assert!(check(&history, &current, 70.0).passed());
    }

    #[test]
    fn different_config_set_is_skipped_not_compared() {
        let history = vec![rec("r1", "fig41", 1, 1.0, "m1")];
        // Different node count => different config fingerprint and set.
        let current = vec![rec("r2", "fig41", 4, 100.0, "m4")];
        let outcome = check(&history, &current, 50.0);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert!(outcome
            .notes
            .iter()
            .any(|n| n.contains("no recorded run with this config set")));
    }

    #[test]
    fn missing_metric_fingerprints_are_skipped() {
        let history = vec![rec("r1", "fig41", 1, 1.0, "")];
        let current = vec![rec("r2", "fig41", 1, 1.0, "m-new")];
        assert!(check(&history, &current, 50.0).passed());
    }
}
