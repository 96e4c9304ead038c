//! The persistence layer: an append-only, line-delimited record log.
//!
//! One file, one [`Record`] per line, appended after every harness
//! run. Appending is the only mutation; history is never rewritten, so
//! the file doubles as the regression timeline. The reader tolerates
//! the one corruption an append-only log realistically suffers — a
//! torn trailing write (process killed mid-append, disk full) — by
//! dropping the trailing garbage and reporting what it dropped;
//! corruption *followed by* valid records means something other than a
//! torn append damaged the file, and that is a hard error rather than
//! silent data loss. [`Store::append`] truncates recovered garbage
//! before writing so the log heals on the next run.

use crate::record::Record;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// A trailing-corruption recovery the reader performed (or the
/// appender is about to perform).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// 1-based line number of the first dropped line.
    pub line: usize,
    /// Byte offset the file is (to be) truncated to.
    pub keep_bytes: u64,
    /// Bytes of trailing garbage dropped.
    pub dropped_bytes: u64,
    /// Why the first dropped line failed to parse.
    pub reason: String,
}

impl std::fmt::Display for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped {} corrupt trailing byte(s) from line {} ({})",
            self.dropped_bytes, self.line, self.reason
        )
    }
}

/// What a read produced: every valid record plus the recovery note if
/// the log ended in a torn write.
#[derive(Debug, Clone, Default)]
pub struct ReadResult {
    /// All records, in append order.
    pub records: Vec<Record>,
    /// Present when trailing corruption was dropped.
    pub recovery: Option<Recovery>,
}

/// Handle on one store file.
#[derive(Debug, Clone)]
pub struct Store {
    path: PathBuf,
}

impl Store {
    /// A store at `path`. Nothing is touched until a read or append.
    pub fn new(path: impl Into<PathBuf>) -> Store {
        Store { path: path.into() }
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every record. A missing file is an empty store; a torn
    /// trailing write is dropped and reported via
    /// [`ReadResult::recovery`]; corruption anywhere else is an error.
    pub fn read(&self) -> io::Result<ReadResult> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ReadResult::default()),
            Err(e) => return Err(e),
        };
        parse_log(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Appends `records`, one line each, creating the file (and parent
    /// directory) on first use. If the log ends in a torn write, the
    /// garbage is truncated away first; the performed [`Recovery`] is
    /// returned so callers can surface a warning.
    pub fn append(&self, records: &[Record]) -> io::Result<Option<Recovery>> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let recovery = self.read()?.recovery;
        if let Some(rec) = &recovery {
            let file = OpenOptions::new().write(true).open(&self.path)?;
            file.set_len(rec.keep_bytes)?;
        }
        let mut out = String::new();
        for record in records {
            out.push_str(&record.to_line());
            out.push('\n');
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(out.as_bytes())?;
        Ok(recovery)
    }
}

/// Splits `text` into lines and parses each as a [`Record`].
///
/// Returns `Err` only for mid-file corruption; trailing corruption
/// (the torn-append case) is recovered.
fn parse_log(text: &str) -> Result<ReadResult, String> {
    let mut records = Vec::new();
    let mut failure: Option<Recovery> = None;
    let mut offset = 0usize;
    for (index, line) in text.split_inclusive('\n').enumerate() {
        let row = line.trim_end_matches(['\n', '\r']);
        if !row.trim().is_empty() {
            match Record::from_line(row) {
                Ok(record) => {
                    if let Some(f) = failure.take() {
                        // A valid record after a bad line: this is not
                        // a torn append, refuse to guess.
                        return Err(format!(
                            "corrupt record on line {} ({}) followed by valid records \
                             — refusing to drop mid-log history",
                            f.line, f.reason
                        ));
                    }
                    records.push(record);
                }
                Err(reason) => {
                    if failure.is_none() {
                        failure = Some(Recovery {
                            line: index + 1,
                            keep_bytes: offset as u64,
                            dropped_bytes: (text.len() - offset) as u64,
                            reason,
                        });
                    }
                }
            }
        }
        offset += line.len();
    }
    Ok(ReadResult {
        records,
        recovery: failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Provenance;

    fn rec(figure: &str, nodes: u16) -> Record {
        Record {
            run: "r1".into(),
            created_unix: 1,
            provenance: Provenance::default(),
            figure: figure.into(),
            curve: "c".into(),
            nodes,
            seed: 9,
            host_cpus: 4,
            config_fingerprint: "cfg".into(),
            metric_fingerprint: "met".into(),
            wall_secs: 1.0,
            events_processed: 10,
            allocs_per_event: 0.0,
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
    fn missing_file_reads_as_empty() {
        let store = Store::new("/nonexistent-dir-for-sure/history.jsonl");
        let read = store.read().expect("missing file is an empty store");
        assert!(read.records.is_empty() && read.recovery.is_none());
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let good = rec("fig41", 1).to_line();
        let text = format!("{good}\n{{broken\n{good}\n");
        let err = parse_log(&text).expect_err("mid-log corruption must not be dropped");
        assert!(err.contains("line 2"), "unhelpful error: {err}");
    }

    #[test]
    fn torn_trailing_write_is_recovered() {
        let good = rec("fig41", 1).to_line();
        let torn = &good[..good.len() / 2];
        let text = format!("{good}\n{torn}");
        let read = parse_log(&text).expect("torn tail recovers");
        assert_eq!(read.records.len(), 1);
        let recovery = read.recovery.expect("recovery reported");
        assert_eq!(recovery.line, 2);
        assert_eq!(recovery.keep_bytes as usize, good.len() + 1);
        assert_eq!(recovery.dropped_bytes as usize, torn.len());
    }
}
