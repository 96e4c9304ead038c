//! Property test of the deadlock scan's first stage: on random lock
//! tables, the compact waits-for graph of `LockTable::add_waits_for`
//! has a cycle exactly when `find_cycle` finds one in the explicit
//! edge list of `LockTable::waits_for_edges`.
//!
//! Tables are driven the way the engine drives them: a transaction
//! waits for at most one lock at a time, upgrades read locks to write
//! locks, holds pages while it waits elsewhere (so cycles cross
//! pages), and releases single pages or everything. Pages are split
//! over two tables, like PCL's per-node authorities, and random plain
//! edges stand in for PCL's pending writers waiting on remote readers.
//! A second test drives the tables with arbitrary requests, queued
//! transactions included, where the probe may over-report but must
//! never miss a cycle.
//!
//! Cases come from desim's deterministic RNG, like the other property
//! tests of this crate.

use dbshare_lockmgr::deadlock::{find_cycle, CycleProbe};
use dbshare_lockmgr::{LockMode, LockReply, LockTable};
use dbshare_model::{PageId, PartitionId, TxnId};
use desim::Rng;
use std::collections::HashMap;

/// Random tables per test; every operation of a case is checked, so
/// each test compares well over 10,000 tables.
const CASES: u64 = 600;

fn page(p: u64) -> PageId {
    PageId::new(PartitionId::new(0), p)
}

/// Two lock tables: even pages in one, odd pages in the other.
struct Tables([LockTable; 2]);

impl Tables {
    fn of(&mut self, p: u64) -> &mut LockTable {
        &mut self.0[(p % 2) as usize]
    }

    fn request(&mut self, t: TxnId, p: u64, mode: LockMode) -> LockReply {
        self.of(p).request(t, page(p), mode)
    }

    /// Releases `t`'s lock or request on page `p`, returning the
    /// grants as `(page, txn, mode)`.
    fn release(&mut self, t: TxnId, p: u64) -> Vec<(u64, TxnId, LockMode)> {
        let grants = self.of(p).release(t, page(p));
        grants.into_iter().map(|(g, m)| (p, g, m)).collect()
    }

    fn release_all(&mut self, t: TxnId) -> Vec<(u64, TxnId, LockMode)> {
        let mut granted = Vec::new();
        for lt in &mut self.0 {
            let grants = lt.release_all(t).into_iter();
            granted.extend(grants.map(|(p, g, m)| (p.number(), g, m)));
        }
        granted
    }

    /// `(probe verdict, find_cycle verdict)` with `extra` plain edges
    /// added to both graphs.
    fn verdicts(&self, probe: &mut CycleProbe, extra: &[(TxnId, TxnId)]) -> (bool, bool) {
        probe.clear();
        let mut edges = Vec::new();
        for lt in &self.0 {
            lt.add_waits_for(probe);
            edges.extend(lt.waits_for_edges());
        }
        for &(a, b) in extra {
            probe.wait(a, b);
            edges.push((a, b));
        }
        edges.sort_unstable();
        edges.dedup();
        (probe.has_cycle(), find_cycle(&edges).is_some())
    }
}

fn new_tables() -> Tables {
    Tables([LockTable::new(), LockTable::new()])
}

fn random_extra(rng: &mut Rng, txns: u64) -> Vec<(TxnId, TxnId)> {
    let mut extra = Vec::new();
    if rng.chance(0.3) {
        for _ in 0..rng.range_inclusive(1, 3) {
            let a = rng.below(txns);
            let b = rng.below(txns);
            if a != b {
                extra.push((TxnId::new(a), TxnId::new(b)));
            }
        }
    }
    extra
}

#[test]
fn probe_verdict_equals_find_cycle_on_engine_like_tables() {
    let mut rng = Rng::seed_from_u64(0xC7C1E);
    let mut probe = CycleProbe::new();
    let (mut checked, mut cyclic, mut upgrades_queued) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let txns = rng.range_inclusive(2, 12);
        let pages = rng.range_inclusive(1, 6);
        let write_share = [0.2, 0.5, 0.9][rng.below(3) as usize];
        let mut tables = new_tables();
        // Page each transaction waits for, and the read locks it holds.
        let mut waiting: HashMap<TxnId, u64> = HashMap::new();
        let mut reads: HashMap<TxnId, Vec<u64>> = HashMap::new();
        for _ in 0..rng.range_inclusive(1, 60) {
            let t = TxnId::new(rng.below(txns));
            let granted = match rng.below(10) {
                0..=6 if !waiting.contains_key(&t) => {
                    // Upgrade a held read lock, or lock a random page.
                    let held = reads.get(&t).filter(|r| !r.is_empty());
                    let (p, mode) = match held {
                        Some(r) if rng.chance(0.4) => {
                            (r[rng.below(r.len() as u64) as usize], LockMode::Write)
                        }
                        _ if rng.chance(write_share) => (rng.below(pages), LockMode::Write),
                        _ => (rng.below(pages), LockMode::Read),
                    };
                    let upgrade = tables.of(p).held_mode(t, page(p)) == Some(LockMode::Read)
                        && mode == LockMode::Write;
                    match tables.request(t, p, mode) {
                        LockReply::Queued => {
                            upgrades_queued += u64::from(upgrade);
                            waiting.insert(t, p);
                        }
                        LockReply::Granted if mode == LockMode::Read => {
                            reads.entry(t).or_default().push(p);
                        }
                        _ => {}
                    }
                    Vec::new()
                }
                0..=8 => {
                    // Release one page: the one waited for, or a random one.
                    let p = waiting.remove(&t).unwrap_or_else(|| rng.below(pages));
                    if let Some(r) = reads.get_mut(&t) {
                        r.retain(|&q| q != p);
                    }
                    tables.release(t, p)
                }
                _ => {
                    // Abort or commit: drop the wait, then everything held.
                    let mut granted = match waiting.remove(&t) {
                        Some(p) => tables.release(t, p),
                        None => Vec::new(),
                    };
                    reads.remove(&t);
                    granted.extend(tables.release_all(t));
                    granted
                }
            };
            for (p, g, mode) in granted {
                waiting.remove(&g);
                if mode == LockMode::Read {
                    reads.entry(g).or_default().push(p);
                }
            }
            let extra = random_extra(&mut rng, txns);
            let (fast, full) = tables.verdicts(&mut probe, &extra);
            assert_eq!(
                fast, full,
                "case {case}: probe says cycle={fast}, find_cycle says {full} \
                 (extra edges {extra:?})"
            );
            checked += 1;
            cyclic += u64::from(full);
        }
    }
    // The comparison must cover both verdicts and the upgrade paths.
    assert!(checked >= 10_000, "only {checked} tables compared");
    assert!(
        cyclic >= 1_000,
        "only {cyclic} of {checked} tables had a cycle"
    );
    assert!(
        checked - cyclic >= 1_000,
        "only {} acyclic tables",
        checked - cyclic
    );
    assert!(
        upgrades_queued >= 100,
        "only {upgrades_queued} upgrades queued"
    );
}

#[test]
fn probe_never_misses_a_cycle_under_arbitrary_requests() {
    let mut rng = Rng::seed_from_u64(0xA4B1);
    let mut probe = CycleProbe::new();
    let (mut checked, mut cyclic) = (0u64, 0u64);
    for case in 0..CASES {
        let txns = rng.range_inclusive(2, 10);
        let pages = rng.range_inclusive(1, 5);
        let mut tables = new_tables();
        for _ in 0..rng.range_inclusive(1, 40) {
            let t = TxnId::new(rng.below(txns));
            let p = rng.below(pages);
            match rng.below(6) {
                0..=3 => {
                    let mode = if rng.chance(0.5) {
                        LockMode::Write
                    } else {
                        LockMode::Read
                    };
                    tables.request(t, p, mode);
                }
                4 => {
                    tables.release(t, p);
                }
                _ => {
                    tables.release_all(t);
                }
            }
            let extra = random_extra(&mut rng, txns);
            let (fast, full) = tables.verdicts(&mut probe, &extra);
            assert!(fast || !full, "case {case}: probe missed a cycle");
            checked += 1;
            cyclic += u64::from(full);
        }
    }
    assert!(
        checked >= 10_000 && cyclic >= 1_000,
        "{cyclic} of {checked}"
    );
}
