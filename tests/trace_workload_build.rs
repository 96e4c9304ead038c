//! Building trace workloads: the routing outputs of the Fig. 4.7 trace
//! are pinned, and user-supplied traces with gaps in their type ids
//! build and replay.
//!
//! The pins are the affinity routing table and a digest of the GLA
//! owner of every page reference at 2/4/6/8 nodes. Any change to the
//! routing heuristics, the GLA chunk assignment or the GLA lookup rule
//! that moves a single owner fails here before it moves a fingerprint.

use dbshare::model::TxnTypeId;
use dbshare::prelude::*;
use dbshare::workload::routing::{affinity_table, gla_chunks};
use dbshare::workload::trace::TraceTxn;

/// The Fig. 4.7 presets' seed.
const SEED: u64 = 0xDB5_4A6E;

/// `(nodes, node per transaction type, owner digest)`.
const PINS: [(u16, [u16; 12], u64); 4] = [
    (
        2,
        [0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0],
        0xc7e1_e3cc_ad9d_da2d,
    ),
    (
        4,
        [2, 3, 3, 3, 2, 0, 2, 1, 0, 1, 2, 1],
        0x006e_d87b_0725_6240,
    ),
    (
        6,
        [5, 1, 5, 5, 4, 0, 4, 1, 2, 3, 5, 2],
        0xc71c_d3f3_ef22_3976,
    ),
    (
        8,
        [7, 6, 5, 5, 4, 0, 7, 1, 2, 3, 7, 6],
        0x210c_1f4d_0de5_0cbb,
    ),
];

/// FNV-1a over `(partition, page, owner)` of every reference in trace
/// order.
fn owner_digest(trace: &Trace, gla: &dbshare::model::gla::GlaMap) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for txn in trace.txns() {
        for r in &txn.refs {
            let owner = gla.gla_of(r.page);
            for b in r
                .page
                .partition()
                .raw()
                .to_le_bytes()
                .into_iter()
                .chain(r.page.number().to_le_bytes())
                .chain(owner.raw().to_le_bytes())
            {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

#[test]
fn routing_tables_and_gla_owners_match_the_pins() {
    let trace = Trace::synthesize(&TraceGenConfig::default(), SEED);
    for (nodes, pinned_table, pinned_digest) in PINS {
        let table = affinity_table(&trace, nodes);
        let got: Vec<u16> = table.iter().map(|(_, n)| n.raw()).collect();
        let gla = gla_chunks(&trace, &table, nodes, 512);
        let digest = owner_digest(&trace, &gla);
        assert_eq!(got, pinned_table, "{nodes} nodes: routing table");
        assert_eq!(digest, pinned_digest, "{nodes} nodes: GLA owner digest");
    }
}

#[test]
fn traces_whose_type_ids_skip_a_value_build_and_replay() {
    let txn = |ty: u16, page: u64| TraceTxn {
        txn_type: TxnTypeId::new(ty),
        refs: vec![PageRef::read(PageId::new(PartitionId::new(0), page))],
    };
    let part = PartitionConfig {
        name: "U".into(),
        pages: 16,
        locking: true,
        storage: StorageAllocation::disk(2),
    };
    // Types 0 and 2; no transaction of type 1.
    let trace = Trace::from_txns(vec![txn(0, 1), txn(2, 5), txn(2, 9)], vec![part]);
    assert_eq!(trace.stats().types, 2);
    let wl = TraceWorkload::new(trace, 2, RoutingStrategy::Affinity);
    assert_eq!(wl.routing_table().types(), 3);
    let mut wl = wl.with_type_rates(vec![1.0, 0.0, 1.0]);
    let mut rng = dbshare::desim::Rng::seed_from_u64(1);
    for _ in 0..50 {
        let (_, spec) = wl.next(&mut rng);
        assert_ne!(spec.txn_type(), TxnTypeId::new(1));
    }
}
