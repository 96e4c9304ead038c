//! Global Lock Authority (GLA) maps for primary copy locking.
//!
//! PCL logically partitions the database and assigns each node the
//! synchronization responsibility (GLA) for one partition (\[Ra86\],
//! §3.2 of the paper). The map from page to GLA node is computed by the
//! workload builders (which know the reference distribution) and
//! consumed by the lock manager, so it lives here in the shared model.

use crate::{NodeId, PageId};

/// Per-partition GLA assignment rule.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionGla {
    /// Pages are grouped into `units` equal blocks of `unit_pages`
    /// pages each (debit-credit: one unit per branch), and unit `u` is
    /// assigned to node `u * nodes / units` — contiguous ranges, as in
    /// the paper's branch-based GLA allocation.
    Ranged {
        /// Number of logical units (branches) in the partition.
        units: u64,
        /// Pages per unit.
        unit_pages: u64,
    },
    /// Explicit assignment per chunk of `chunk_pages` contiguous pages
    /// (trace workloads): page `p` belongs to chunk `p / chunk_pages`,
    /// owned by `owners[chunk]`. Unowned chunks and chunks past the end
    /// of the table fall back to hashing.
    Chunked {
        /// Pages per chunk (positive).
        chunk_pages: u64,
        /// Owner per chunk, indexed by chunk number.
        owners: Vec<Option<NodeId>>,
    },
    /// Pages of this partition are hashed across nodes.
    Hashed,
    /// Every page of this partition is assigned to one fixed node
    /// (central lock manager configurations).
    Fixed(NodeId),
}

/// Maps every page to the node holding its global lock authority.
///
/// ```rust
/// use dbshare_model::{gla::{GlaMap, PartitionGla}, PageId, PartitionId, NodeId};
/// // 100 branches of 1 page each over 4 nodes: branch 0 -> N0, branch 99 -> N3
/// let map = GlaMap::new(4, vec![PartitionGla::Ranged { units: 100, unit_pages: 1 }]);
/// assert_eq!(map.gla_of(PageId::new(PartitionId::new(0), 0)), NodeId::new(0));
/// assert_eq!(map.gla_of(PageId::new(PartitionId::new(0), 99)), NodeId::new(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GlaMap {
    nodes: u16,
    rules: Vec<PartitionGla>,
}

impl GlaMap {
    /// Creates a map over `nodes` nodes with one rule per partition
    /// (indexed by partition id).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: u16, rules: Vec<PartitionGla>) -> Self {
        assert!(nodes > 0, "GLA map needs at least one node");
        GlaMap { nodes, rules }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// A map assigning *every* page of `partitions` partitions to node
    /// 0: the classic central lock manager, where one node processes
    /// the whole system's lock traffic by messages (\[Ra91b\] surveys
    /// this baseline).
    pub fn central(nodes: u16, partitions: usize) -> Self {
        GlaMap::new(nodes, vec![PartitionGla::Fixed(NodeId::new(0)); partitions])
    }

    /// The GLA node of `page`. Partitions without a rule fall back to
    /// hashing.
    pub fn gla_of(&self, page: PageId) -> NodeId {
        let rule = self.rules.get(page.partition().index());
        match rule {
            Some(PartitionGla::Ranged { units, unit_pages }) => {
                let unit = (page.number() / unit_pages).min(units - 1);
                NodeId::new((unit as u128 * self.nodes as u128 / *units as u128) as u16)
            }
            Some(PartitionGla::Chunked {
                chunk_pages,
                owners,
            }) => usize::try_from(page.number() / chunk_pages)
                .ok()
                .and_then(|chunk| owners.get(chunk).copied().flatten())
                .unwrap_or_else(|| self.hash_node(page)),
            Some(PartitionGla::Fixed(node)) => *node,
            Some(PartitionGla::Hashed) | None => self.hash_node(page),
        }
    }

    fn hash_node(&self, page: PageId) -> NodeId {
        // FNV-1a over (partition, number) for a stable spread.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in page
            .partition()
            .raw()
            .to_le_bytes()
            .into_iter()
            .chain(page.number().to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        NodeId::new((h % self.nodes as u64) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionId;

    fn page(p: u16, n: u64) -> PageId {
        PageId::new(PartitionId::new(p), n)
    }

    #[test]
    fn ranged_assignment_contiguous_and_balanced() {
        // 100 units, 10 pages each, 4 nodes: each node owns 25 units.
        let map = GlaMap::new(
            4,
            vec![PartitionGla::Ranged {
                units: 100,
                unit_pages: 10,
            }],
        );
        let mut counts = [0u32; 4];
        for unit in 0..100u64 {
            let n = map.gla_of(page(0, unit * 10 + 3));
            counts[n.index()] += 1;
            // all pages of one unit map to the same node
            assert_eq!(n, map.gla_of(page(0, unit * 10)));
            assert_eq!(n, map.gla_of(page(0, unit * 10 + 9)));
        }
        assert_eq!(counts, [25, 25, 25, 25]);
        // contiguity: units 0..24 on node 0
        assert_eq!(map.gla_of(page(0, 0)), NodeId::new(0));
        assert_eq!(map.gla_of(page(0, 249)), NodeId::new(0));
        assert_eq!(map.gla_of(page(0, 250)), NodeId::new(1));
    }

    #[test]
    fn ranged_clamps_overflow_pages() {
        let map = GlaMap::new(
            2,
            vec![PartitionGla::Ranged {
                units: 10,
                unit_pages: 1,
            }],
        );
        // page beyond the nominal units clamps to the last unit
        assert_eq!(map.gla_of(page(0, 500)), NodeId::new(1));
    }

    #[test]
    fn chunked_with_hash_fallback() {
        // chunk 0 unowned, chunk 1 (pages 4..8) on N2, no chunk 2
        let map = GlaMap::new(
            3,
            vec![PartitionGla::Chunked {
                chunk_pages: 4,
                owners: vec![None, Some(NodeId::new(2))],
            }],
        );
        let hashed = GlaMap::new(3, vec![PartitionGla::Hashed]);
        for p in 4..8 {
            assert_eq!(map.gla_of(page(0, p)), NodeId::new(2));
        }
        for p in [0, 3, 8, u64::MAX] {
            assert_eq!(map.gla_of(page(0, p)), hashed.gla_of(page(0, p)));
        }
    }

    #[test]
    fn hashed_spread_is_roughly_uniform() {
        let map = GlaMap::new(4, vec![PartitionGla::Hashed]);
        let mut counts = [0u32; 4];
        for n in 0..10_000u64 {
            counts[map.gla_of(page(0, n)).index()] += 1;
        }
        for c in counts {
            assert!((2_000..3_000).contains(&c), "{c}");
        }
    }

    #[test]
    fn missing_rule_falls_back_to_hash() {
        let map = GlaMap::new(2, vec![]);
        let n = map.gla_of(page(9, 1234));
        assert!(n.index() < 2);
    }

    #[test]
    fn central_map_sends_everything_to_node_zero() {
        let map = GlaMap::central(4, 3);
        for part in 0..3u16 {
            for n in [0u64, 17, 9999] {
                assert_eq!(
                    map.gla_of(PageId::new(PartitionId::new(part), n)),
                    NodeId::new(0)
                );
            }
        }
    }

    #[test]
    fn single_node_everything_local() {
        let map = GlaMap::new(
            1,
            vec![PartitionGla::Ranged {
                units: 100,
                unit_pages: 1,
            }],
        );
        for i in 0..100 {
            assert_eq!(map.gla_of(page(0, i)), NodeId::new(0));
        }
    }
}
