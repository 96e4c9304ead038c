//! Pinned outputs: every job's metric fingerprint at [`DEFAULT_SEED`].
//!
//! A pin file has one `figure|curve|nodes<TAB>fingerprint` line per
//! job; `#` lines are comments. The files are compiled into the binary,
//! so a run never depends on where it is started from.
//!
//! [`DEFAULT_SEED`]: crate::workloads::DEFAULT_SEED

use crate::workloads::BenchJob;
use dbshare_expstore::Record;
use dbshare_harness::fingerprint;
use std::collections::BTreeMap;

/// The pin file of `workload`, as compiled in.
pub fn pinned_text(workload: &str) -> Option<&'static str> {
    match workload {
        "paper-dc" => Some(include_str!("../pins/paper-dc.tsv")),
        "trace-fig47" => Some(include_str!("../pins/trace-fig47.tsv")),
        "scale-128" => Some(include_str!("../pins/scale-128.tsv")),
        _ => None,
    }
}

/// Parses a pin file into `key -> fingerprint`.
pub fn parse(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, fp) = line
            .split_once('\t')
            .ok_or_else(|| format!("pin line {}: expected key<TAB>fingerprint", n + 1))?;
        if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("pin line {}: bad fingerprint {fp:?}", n + 1));
        }
        if out.insert(key.to_string(), fp.to_string()).is_some() {
            return Err(format!("pin line {}: duplicate key {key:?}", n + 1));
        }
    }
    Ok(out)
}

/// Renders pins in file form, with a header naming the seed.
pub fn render(workload: &str, seed: u64, pins: &[(String, String)]) -> String {
    let mut out = format!(
        "# {workload}: metric fingerprint of every job at seed {seed} ({seed:#x}).\n\
         # Regenerate with `simbench --workload {workload} --pin`.\n"
    );
    for (key, fp) in pins {
        out.push_str(&format!("{key}\t{fp}\n"));
    }
    out
}

/// Outcome of comparing fingerprints with the experiment history.
#[derive(Debug, Clone, Default)]
pub struct HistoryCheck {
    /// Jobs whose configuration the history holds.
    pub jobs_found: usize,
    /// History rows whose metric fingerprint matches.
    pub rows_matched: usize,
    /// `key (history X vs Y)` for every row that differs.
    pub differ: Vec<String>,
}

/// Compares `fingerprints` (job key, metric fingerprint, in job order)
/// with every history row of the same configuration fingerprint.
pub fn history_check(
    jobs: &[BenchJob],
    fingerprints: &[(String, String)],
    rows: &[Record],
) -> HistoryCheck {
    let mut out = HistoryCheck::default();
    for (job, (key, fp)) in jobs.iter().zip(fingerprints) {
        let config = fingerprint(&job.spec);
        let same: Vec<&Record> = rows
            .iter()
            .filter(|r| r.config_fingerprint == config)
            .collect();
        out.jobs_found += usize::from(!same.is_empty());
        for row in same {
            if &row.metric_fingerprint == fp {
                out.rows_matched += 1;
            } else {
                out.differ.push(format!(
                    "{key} (history {} vs {fp})",
                    row.metric_fingerprint
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{jobs, DEFAULT_SEED, WORKLOADS};

    #[test]
    fn every_job_of_every_workload_is_pinned() {
        for w in WORKLOADS {
            let pins = parse(pinned_text(w).unwrap()).unwrap();
            let js = jobs(w, DEFAULT_SEED).unwrap();
            assert_eq!(pins.len(), js.len(), "{w}");
            for j in js {
                assert!(pins.contains_key(&j.key()), "{w}: {}", j.key());
            }
        }
    }

    #[test]
    fn render_parses_back() {
        let pins = vec![("a|b|1".to_string(), "0123456789abcdef".to_string())];
        let parsed = parse(&render("w", 1, &pins)).unwrap();
        assert_eq!(
            parsed.get("a|b|1").map(String::as_str),
            Some("0123456789abcdef")
        );
        assert!(parse("k\tnothex").is_err());
        assert!(parse("no-tab").is_err());
    }
}
