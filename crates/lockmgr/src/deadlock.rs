//! Deadlock detection over waits-for graphs (§3.2).
//!
//! The debit-credit workload is deadlock-free by construction (all
//! transactions reference the record types in the same order), but the
//! simulator supports arbitrary reference strings, so a detector is
//! required. Cycles are found by depth-first search over the waits-for
//! edges collected from the lock tables; the victim is the youngest
//! transaction in the cycle (highest id), which restarts after a delay.
//!
//! A scan first asks the cheaper question "is there a cycle at all?"
//! on a [`CycleProbe`]: a compact graph whose virtual nodes stand for
//! "any holder" and "any earlier queue entry" of a page, so a queue of
//! `q` waiters costs O(q) edges instead of the O(q²) of the explicit
//! edge list. Only when the probe finds a cycle does the scan build the
//! explicit list for [`find_cycle`] and [`choose_victim`].

use dbshare_model::TxnId;
use desim::fxhash::FxHashMap;
use std::collections::{HashMap, HashSet};

/// Scratch graph for an exact test of whether a waits-for graph has a
/// cycle.
///
/// Transactions get dense `u32` ids on first use ([`txn`](Self::txn));
/// [`virtual_node`](Self::virtual_node) adds nodes that stand for a set
/// of transactions (see `LockTable::add_waits_for`). The test compacts
/// the edges into a CSR adjacency array and peels nodes of in-degree
/// zero (Kahn's algorithm): the graph is acyclic exactly when every
/// node peels. [`clear`](Self::clear) keeps every buffer's capacity,
/// so a probe reused across scans stops allocating once warm.
///
/// ```rust
/// use dbshare_lockmgr::deadlock::CycleProbe;
/// use dbshare_model::TxnId;
/// let mut probe = CycleProbe::new();
/// probe.wait(TxnId::new(1), TxnId::new(2));
/// assert!(!probe.has_cycle());
/// probe.wait(TxnId::new(2), TxnId::new(1));
/// assert!(probe.has_cycle());
/// ```
#[derive(Debug, Default)]
pub struct CycleProbe {
    ids: FxHashMap<TxnId, u32>,
    nodes: u32,
    edges: Vec<(u32, u32)>,
    /// CSR offsets: node `n`'s successors are
    /// `succ[start[n]..start[n + 1]]`.
    start: Vec<u32>,
    succ: Vec<u32>,
    indegree: Vec<u32>,
    ready: Vec<u32>,
}

impl CycleProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        CycleProbe::default()
    }

    /// Empties the graph, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.nodes = 0;
        self.edges.clear();
    }

    /// The node of transaction `t`, added on first use.
    pub fn txn(&mut self, t: TxnId) -> u32 {
        let next = self.nodes;
        let id = *self.ids.entry(t).or_insert(next);
        if id == next {
            self.nodes += 1;
        }
        id
    }

    /// Adds a node that is no transaction; its edges make it stand for
    /// a set of them.
    pub fn virtual_node(&mut self) -> u32 {
        self.nodes += 1;
        self.nodes - 1
    }

    /// Adds the edge `from → to` between nodes.
    pub fn edge(&mut self, from: u32, to: u32) {
        self.edges.push((from, to));
    }

    /// Adds the waits-for edge `waiter → holder`.
    pub fn wait(&mut self, waiter: TxnId, holder: TxnId) {
        let (a, b) = (self.txn(waiter), self.txn(holder));
        self.edge(a, b);
    }

    /// True if the graph has a cycle.
    pub fn has_cycle(&mut self) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        let n = self.nodes as usize;
        let m = u32::try_from(self.edges.len()).expect("edge offsets fit in u32");
        // CSR by counting sort on the source; `start[from + 1]` first
        // counts the out-degree, then the prefix sum turns counts into
        // offsets, and the fill walks each slot's cursor back down.
        self.start.clear();
        self.start.resize(n + 1, 0);
        self.indegree.clear();
        self.indegree.resize(n, 0);
        for &(from, to) in &self.edges {
            self.start[from as usize + 1] += 1;
            self.indegree[to as usize] += 1;
        }
        for i in 0..n {
            self.start[i + 1] += self.start[i];
        }
        self.succ.clear();
        self.succ.resize(self.edges.len(), 0);
        for &(from, to) in &self.edges {
            let slot = &mut self.start[from as usize + 1];
            *slot -= 1;
            self.succ[*slot as usize] = to;
        }
        // After the fill `start[from + 1]` holds `from`'s first slot;
        // shift the array so it again reads as offsets.
        self.start.rotate_left(1);
        self.start[n] = m;
        // Kahn's peel.
        self.ready.clear();
        self.ready
            .extend((0..self.nodes).filter(|&v| self.indegree[v as usize] == 0));
        let mut peeled = 0usize;
        while let Some(v) = self.ready.pop() {
            peeled += 1;
            let (lo, hi) = (self.start[v as usize], self.start[v as usize + 1]);
            for &w in &self.succ[lo as usize..hi as usize] {
                let d = &mut self.indegree[w as usize];
                *d -= 1;
                if *d == 0 {
                    self.ready.push(w);
                }
            }
        }
        peeled < n
    }
}

/// Finds one cycle in the waits-for graph, if any, returning the
/// transactions on it.
///
/// ```rust
/// use dbshare_lockmgr::deadlock::find_cycle;
/// use dbshare_model::TxnId;
/// let t = TxnId::new;
/// // 1 -> 2 -> 1 deadlock
/// let cycle = find_cycle(&[(t(1), t(2)), (t(2), t(1))]).unwrap();
/// assert_eq!(cycle.len(), 2);
/// ```
pub fn find_cycle(edges: &[(TxnId, TxnId)]) -> Option<Vec<TxnId>> {
    let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut visited: HashSet<TxnId> = HashSet::new();
    let mut nodes: Vec<TxnId> = adj.keys().copied().collect();
    nodes.sort_unstable();
    for start in nodes {
        if visited.contains(&start) {
            continue;
        }
        // Iterative DFS with an explicit path for cycle extraction.
        let mut stack: Vec<(TxnId, usize)> = vec![(start, 0)];
        let mut path: Vec<TxnId> = Vec::new();
        let mut on_path: HashSet<TxnId> = HashSet::new();
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx == 0 {
                path.push(node);
                on_path.insert(node);
            }
            let next = adj.get(&node).and_then(|v| v.get(*idx)).copied();
            match next {
                Some(succ) => {
                    *idx += 1;
                    if on_path.contains(&succ) {
                        let pos = path
                            .iter()
                            .position(|&t| t == succ)
                            .expect("on_path implies in path");
                        return Some(path[pos..].to_vec());
                    }
                    if !visited.contains(&succ) {
                        stack.push((succ, 0));
                    }
                }
                None => {
                    visited.insert(node);
                    on_path.remove(&node);
                    path.pop();
                    stack.pop();
                }
            }
        }
    }
    None
}

/// Selects the victim of a deadlock: the youngest transaction (highest
/// id — ids are assigned in arrival order), so older work is preserved.
///
/// # Panics
///
/// Panics if `cycle` is empty.
pub fn choose_victim(cycle: &[TxnId]) -> TxnId {
    *cycle.iter().max().expect("cycle is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    #[test]
    fn no_cycle_in_dag() {
        let edges = vec![(t(1), t(2)), (t(2), t(3)), (t(1), t(3))];
        assert_eq!(find_cycle(&edges), None);
    }

    #[test]
    fn finds_two_cycle() {
        let edges = vec![(t(1), t(2)), (t(2), t(1))];
        let c = find_cycle(&edges).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&t(1)) && c.contains(&t(2)));
    }

    #[test]
    fn finds_longer_cycle_among_noise() {
        let edges = vec![
            (t(9), t(1)),
            (t(1), t(2)),
            (t(2), t(3)),
            (t(3), t(4)),
            (t(4), t(2)), // cycle 2-3-4
            (t(5), t(6)),
        ];
        let c = find_cycle(&edges).unwrap();
        assert_eq!(c.len(), 3);
        for x in [2, 3, 4] {
            assert!(c.contains(&t(x)), "{c:?}");
        }
    }

    #[test]
    fn self_wait_is_a_cycle() {
        // should not occur in practice, but must not hang
        let edges = vec![(t(1), t(1))];
        let c = find_cycle(&edges).unwrap();
        assert_eq!(c, vec![t(1)]);
    }

    #[test]
    fn empty_graph_no_cycle() {
        assert_eq!(find_cycle(&[]), None);
    }

    #[test]
    fn victim_is_youngest() {
        assert_eq!(choose_victim(&[t(3), t(7), t(5)]), t(7));
    }

    fn probe_of(edges: &[(TxnId, TxnId)]) -> bool {
        let mut probe = CycleProbe::new();
        for &(a, b) in edges {
            probe.wait(a, b);
        }
        probe.has_cycle()
    }

    #[test]
    fn probe_agrees_with_find_cycle() {
        let graphs: [&[(TxnId, TxnId)]; 5] = [
            &[],
            &[(t(1), t(2)), (t(2), t(3)), (t(1), t(3))],
            &[(t(1), t(2)), (t(2), t(1))],
            &[
                (t(9), t(1)),
                (t(1), t(2)),
                (t(2), t(3)),
                (t(3), t(4)),
                (t(4), t(2)),
            ],
            &[(t(1), t(1))],
        ];
        for edges in graphs {
            assert_eq!(probe_of(edges), find_cycle(edges).is_some(), "{edges:?}");
        }
    }

    #[test]
    fn probe_sees_cycles_through_virtual_nodes_and_reuses_buffers() {
        let mut probe = CycleProbe::new();
        // 1 -> v -> 2 -> 1: the cycle passes through a virtual node.
        let v = probe.virtual_node();
        let (a, b) = (probe.txn(t(1)), probe.txn(t(2)));
        probe.edge(a, v);
        probe.edge(v, b);
        assert!(!probe.has_cycle());
        probe.edge(b, a);
        assert!(probe.has_cycle());
        // A cleared probe forgets the old graph and its ids.
        probe.clear();
        assert!(!probe.has_cycle());
        assert_eq!(probe.txn(t(2)), 0);
        probe.wait(t(2), t(3));
        assert!(!probe.has_cycle());
    }

    #[test]
    fn deterministic_on_disjoint_cycles() {
        // two disjoint cycles: detector returns one deterministically
        let edges = vec![(t(10), t(11)), (t(11), t(10)), (t(2), t(3)), (t(3), t(2))];
        let c1 = find_cycle(&edges).unwrap();
        let c2 = find_cycle(&edges).unwrap();
        assert_eq!(c1, c2);
        // starts from the smallest id: finds the 2-3 cycle
        assert!(c1.contains(&t(2)));
    }
}
