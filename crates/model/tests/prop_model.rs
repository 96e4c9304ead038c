//! Randomized tests of the shared model: GLA maps partition the
//! page space deterministically and in balance; configuration
//! validation accepts exactly the documented parameter space.
//!
//! Cases are generated with desim's deterministic RNG (seeded,
//! reproducible) so the workspace builds and tests without any registry
//! dependency.

use dbshare_model::gla::{GlaMap, PartitionGla};
use dbshare_model::{
    NodeId, PageId, PartitionConfig, PartitionId, StorageAllocation, SystemConfig,
};
use desim::Rng;
use std::collections::HashMap;

const CASES: u64 = 256;

#[test]
fn ranged_gla_is_total_deterministic_and_balanced() {
    let mut rng = Rng::seed_from_u64(0x61A1);
    for _ in 0..CASES {
        let nodes = rng.range_inclusive(1, 11) as u16;
        let units = rng.range_inclusive(1, 499);
        let unit_pages = rng.range_inclusive(1, 19);
        let map = GlaMap::new(nodes, vec![PartitionGla::Ranged { units, unit_pages }]);
        // total + deterministic
        for _ in 0..rng.range_inclusive(1, 49) {
            let pg = PageId::new(PartitionId::new(0), rng.below(10_000));
            let a = map.gla_of(pg);
            let b = map.gla_of(pg);
            assert_eq!(a, b);
            assert!(a.index() < nodes as usize);
        }
        // balance: unit counts per node differ by at most 1
        let mut counts = vec![0u64; nodes as usize];
        for u in 0..units {
            counts[map
                .gla_of(PageId::new(PartitionId::new(0), u * unit_pages))
                .index()] += 1;
        }
        let max = *counts.iter().max().expect("non-empty");
        let min = *counts.iter().min().expect("non-empty");
        assert!(max - min <= 1, "unbalanced: {counts:?}");
        // monotone: unit -> node assignment never decreases
        let mut last = 0usize;
        for u in 0..units {
            let n = map
                .gla_of(PageId::new(PartitionId::new(0), u * unit_pages))
                .index();
            assert!(n >= last, "assignment must be monotone");
            last = n;
        }
    }
}

#[test]
fn hashed_gla_is_total_and_roughly_uniform() {
    for nodes in 1u16..10 {
        let map = GlaMap::new(nodes, vec![PartitionGla::Hashed]);
        let mut counts = vec![0u64; nodes as usize];
        let probes = 4_000u64;
        for p in 0..probes {
            counts[map.gla_of(PageId::new(PartitionId::new(0), p)).index()] += 1;
        }
        let expect = probes as f64 / nodes as f64;
        for &c in &counts {
            assert!(
                (c as f64) > expect * 0.7 && (c as f64) < expect * 1.3,
                "skewed hash: {counts:?}"
            );
        }
    }
}

#[test]
fn chunked_gla_matches_page_by_page_expansion_with_hash_fallback() {
    let mut rng = Rng::seed_from_u64(0x64A1);
    for _ in 0..CASES {
        let nodes = rng.range_inclusive(1, 11) as u16;
        let chunk_pages = rng.range_inclusive(1, 64);
        let owners: Vec<Option<NodeId>> = (0..rng.below(40))
            .map(|_| (!rng.chance(0.3)).then(|| NodeId::new(rng.below(nodes as u64) as u16)))
            .collect();
        // Reference: every page of every owned chunk, as its own entry.
        let mut per_page: HashMap<u64, NodeId> = HashMap::new();
        for (chunk, owner) in owners.iter().enumerate() {
            if let Some(owner) = *owner {
                let first = chunk as u64 * chunk_pages;
                for page in first..first + chunk_pages {
                    per_page.insert(page, owner);
                }
            }
        }
        let end = owners.len() as u64 * chunk_pages;
        let map = GlaMap::new(
            nodes,
            vec![PartitionGla::Chunked {
                chunk_pages,
                owners,
            }],
        );
        let hashed = GlaMap::new(nodes, vec![PartitionGla::Hashed]);
        let probes = (0..64)
            .map(|_| rng.below(end + 3 * chunk_pages))
            .chain([end, u64::MAX]);
        for n in probes {
            let pg = PageId::new(PartitionId::new(0), n);
            let expected = per_page
                .get(&n)
                .copied()
                .unwrap_or_else(|| hashed.gla_of(pg));
            assert_eq!(map.gla_of(pg), expected, "page {n}");
        }
    }
}

#[test]
fn validation_accepts_all_positive_configs() {
    let mut rng = Rng::seed_from_u64(0x62A1);
    for _ in 0..CASES {
        let nodes = rng.range_inclusive(1, 15) as u16;
        let tps = rng.uniform(1.0, 500.0);
        let buffer = rng.range_inclusive(1, 4_999);
        let pages = rng.range_inclusive(1, 999_999);
        let disks = rng.range_inclusive(1, 63) as u32;
        let mut cfg = SystemConfig::debit_credit(nodes);
        cfg.arrival_tps_per_node = tps;
        cfg.buffer_pages_per_node = buffer;
        cfg.partitions.push(PartitionConfig {
            name: "P".into(),
            pages,
            locking: true,
            storage: StorageAllocation::disk(disks),
        });
        assert!(cfg.validate().is_ok());
    }
}

#[test]
fn exec_and_wire_times_scale_linearly() {
    let mut rng = Rng::seed_from_u64(0x63A1);
    for _ in 0..CASES {
        let instr = rng.uniform(1.0, 1e7);
        let bytes = rng.range_inclusive(1, 999_999);
        let cfg = SystemConfig::debit_credit(1);
        let t1 = cfg.cpu.exec_time(instr);
        let t2 = cfg.cpu.exec_time(instr * 2.0);
        // within rounding of the nanosecond clock
        let diff = (t2.as_nanos() as i128 - 2 * t1.as_nanos() as i128).abs();
        assert!(diff <= 2, "exec not linear: {t1:?} {t2:?}");

        let w1 = cfg.comm.wire_time(bytes);
        let w2 = cfg.comm.wire_time(bytes * 2);
        let wdiff = (w2.as_nanos() as i128 - 2 * w1.as_nanos() as i128).abs();
        assert!(wdiff <= 2, "wire not linear");
    }
}
