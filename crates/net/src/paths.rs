//! Path computation: Dijkstra shortest paths and Yen's k-shortest loopless
//! paths.
//!
//! Each Pretium request carries a set of admissible routes `R_i` (§3.1).
//! In practice these are the k shortest paths between the endpoints; the
//! [`PathSet`] cache computes and stores them per node pair.

use crate::graph::{EdgeId, Network, NodeId};
use rand::{DetHashMap as HashMap, DetHashSet as HashSet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

/// A loop-free directed path, stored as its edge sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    edges: Vec<EdgeId>,
}

impl Path {
    /// Build from edges, validating contiguity against the network.
    ///
    /// # Panics
    /// Panics if the edges do not form a contiguous path.
    pub fn new(net: &Network, edges: Vec<EdgeId>) -> Self {
        assert!(!edges.is_empty(), "a path needs at least one edge");
        for w in edges.windows(2) {
            assert_eq!(net.edge(w[0]).to, net.edge(w[1]).from, "path edges are not contiguous");
        }
        Path { edges }
    }

    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    pub fn source(&self, net: &Network) -> NodeId {
        net.edge(self.edges[0]).from
    }

    pub fn target(&self, net: &Network) -> NodeId {
        net.edge(self.edges[self.edges.len() - 1]).to
    }

    /// Whether the path uses edge `e`.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Bottleneck: the minimum over edges of `f(edge)`.
    pub fn bottleneck(&self, mut f: impl FnMut(EdgeId) -> f64) -> f64 {
        self.edges.iter().map(|&e| f(e)).fold(f64::INFINITY, f64::min)
    }

    /// Sum over edges of `f(edge)` (e.g. a price).
    pub fn total(&self, mut f: impl FnMut(EdgeId) -> f64) -> f64 {
        self.edges.iter().map(|&e| f(e)).sum()
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance.
        other.dist.partial_cmp(&self.dist).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest path from `src` to `dst` under a non-negative edge
/// weight function, skipping banned edges/nodes (used by Yen's algorithm).
/// Returns the edge sequence, or `None` if unreachable.
pub fn shortest_path_filtered(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    weight: &impl Fn(EdgeId) -> f64,
    banned_edges: &HashSet<EdgeId>,
    banned_nodes: &HashSet<NodeId>,
) -> Option<Vec<EdgeId>> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: src });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if node == dst {
            break;
        }
        if d > dist[node.index()] {
            continue;
        }
        for &e in net.out_edges(node) {
            if banned_edges.contains(&e) {
                continue;
            }
            let edge = net.edge(e);
            if banned_nodes.contains(&edge.to) {
                continue;
            }
            let w = weight(e);
            debug_assert!(w >= 0.0, "negative edge weight");
            let nd = d + w;
            if nd < dist[edge.to.index()] {
                dist[edge.to.index()] = nd;
                prev[edge.to.index()] = Some(e);
                heap.push(HeapEntry { dist: nd, node: edge.to });
            }
        }
    }
    if dist[dst.index()].is_infinite() {
        return None;
    }
    // Reconstruct.
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let e = prev[cur.index()]?;
        edges.push(e);
        cur = net.edge(e).from;
    }
    edges.reverse();
    Some(edges)
}

/// Dijkstra shortest path with no filtering.
pub fn shortest_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    weight: &impl Fn(EdgeId) -> f64,
) -> Option<Vec<EdgeId>> {
    shortest_path_filtered(net, src, dst, weight, &HashSet::default(), &HashSet::default())
}

/// Yen's algorithm: up to `k` shortest loopless paths from `src` to `dst`.
/// Paths are returned in non-decreasing weight order; a disconnected pair
/// has none.
pub fn k_shortest_paths(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    k: usize,
    weight: &impl Fn(EdgeId) -> f64,
) -> Vec<Path> {
    assert!(k >= 1, "k must be at least 1");
    let Some(first) = shortest_path(net, src, dst, weight) else {
        return Vec::new();
    };
    let path_cost = |edges: &[EdgeId]| -> f64 { edges.iter().map(|&e| weight(e)).sum() };
    let mut found: Vec<Vec<EdgeId>> = vec![first];
    // Candidate pool: (cost, path); keep sorted by cost on extraction.
    let mut candidates: Vec<(f64, Vec<EdgeId>)> = Vec::new();
    let mut seen: HashSet<Vec<EdgeId>> = found.iter().cloned().collect();

    while found.len() < k {
        // Spur generation deviates from the most recent accepted path.
        let last = found[found.len() - 1].clone();
        // Spur from every node of the previous path.
        for i in 0..last.len() {
            let root = &last[..i];
            let spur_node = if i == 0 { src } else { net.edge(last[i - 1]).to };
            let mut banned_edges = HashSet::default();
            // Ban the next edge of every found path sharing this root.
            for p in &found {
                if p.len() > i && p[..i] == *root {
                    banned_edges.insert(p[i]);
                }
            }
            // Ban root nodes to keep the path loopless.
            let mut banned_nodes = HashSet::default();
            banned_nodes.insert(src);
            for &e in root {
                banned_nodes.insert(net.edge(e).to);
            }
            banned_nodes.remove(&spur_node);
            if let Some(spur) =
                shortest_path_filtered(net, spur_node, dst, weight, &banned_edges, &banned_nodes)
            {
                let mut total: Vec<EdgeId> = root.to_vec();
                total.extend(spur);
                if seen.insert(total.clone()) {
                    candidates.push((path_cost(&total), total));
                }
            }
        }
        // Pop the cheapest candidate; none left ends the search.
        let Some((best, _)) =
            candidates.iter().enumerate().min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        else {
            break;
        };
        let (_, path) = candidates.swap_remove(best);
        found.push(path);
    }
    found.into_iter().map(|edges| Path::new(net, edges)).collect()
}

/// Cache of k-shortest paths per `(src, dst)` pair. Each entry is one
/// `Arc` that every holder of the route set shares, so handing it out
/// (also from [`SharedPathSet`], without holding its lock) never copies a
/// path.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    k: usize,
    cache: HashMap<(NodeId, NodeId), Arc<[Path]>>,
}

impl PathSet {
    /// Create a cache that computes up to `k` paths per pair (hop-count
    /// weighted).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        PathSet { k, cache: HashMap::default() }
    }

    /// Paths for `(src, dst)`, computed on first access: a handle on the
    /// cached entry.
    pub fn paths(&mut self, net: &Network, src: NodeId, dst: NodeId) -> Arc<[Path]> {
        Arc::clone(
            self.cache
                .entry((src, dst))
                .or_insert_with(|| k_shortest_paths(net, src, dst, self.k, &|_| 1.0).into()),
        )
    }

    pub fn k(&self) -> usize {
        self.k
    }
}

/// A [`PathSet`] shareable across threads: one interior-mutability cache
/// handed (behind `Arc`) to every admission snapshot, so concurrent quote
/// workers and the live system fill a single cache instead of cloning it
/// per snapshot.
///
/// Path values are a pure function of `(net, src, dst, k)`, so the lock
/// only serializes *when* an entry is computed, never *what* it contains —
/// sharing is invisible to results.
#[derive(Debug, Default)]
pub struct SharedPathSet {
    inner: Mutex<PathSet>,
}

impl SharedPathSet {
    /// Create a shared cache that computes up to `k` paths per pair.
    pub fn new(k: usize) -> Self {
        SharedPathSet { inner: Mutex::new(PathSet::new(k)) }
    }

    /// Paths for `(src, dst)`, computed under the lock on first access.
    pub fn paths(&self, net: &Network, src: NodeId, dst: NodeId) -> Arc<[Path]> {
        self.lock().paths(net, src, dst)
    }

    pub fn k(&self) -> usize {
        self.lock().k()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PathSet> {
        // Path computation cannot panic mid-insert in a way that corrupts
        // the map; recover from poisoning instead of propagating it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinkCost;
    use crate::graph::Region;

    /// Diamond: A->B->D, A->C->D plus direct A->D.
    fn diamond() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let c = net.add_node("C", Region::NorthAmerica);
        let d = net.add_node("D", Region::NorthAmerica);
        net.add_edge(a, b, 10.0, LinkCost::owned());
        net.add_edge(b, d, 10.0, LinkCost::owned());
        net.add_edge(a, c, 10.0, LinkCost::owned());
        net.add_edge(c, d, 10.0, LinkCost::owned());
        net.add_edge(a, d, 10.0, LinkCost::owned());
        (net, a, d)
    }

    #[test]
    fn dijkstra_finds_direct_edge() {
        let (net, a, d) = diamond();
        let p = shortest_path(&net, a, d, &|_| 1.0).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(net.edge(p[0]).to, d);
    }

    #[test]
    fn dijkstra_respects_weights() {
        let (net, a, d) = diamond();
        // Make the direct edge very expensive.
        let direct = net.find_edge(a, d).unwrap();
        let w = move |e: EdgeId| if e == direct { 100.0 } else { 1.0 };
        let p = shortest_path(&net, a, d, &w).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let c = net.add_node("C", Region::NorthAmerica);
        net.add_edge(a, b, 1.0, LinkCost::owned());
        assert!(shortest_path(&net, a, c, &|_| 1.0).is_none());
    }

    #[test]
    fn yen_finds_all_three_diamond_paths() {
        let (net, a, d) = diamond();
        let paths = k_shortest_paths(&net, a, d, 5, &|_| 1.0);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].len(), 1); // direct first
        assert_eq!(paths[1].len(), 2);
        assert_eq!(paths[2].len(), 2);
        // All distinct and loopless.
        let set: HashSet<_> = paths.iter().map(|p| p.edges().to_vec()).collect();
        assert_eq!(set.len(), 3);
        for p in &paths {
            assert_eq!(p.source(&net), a);
            assert_eq!(p.target(&net), d);
        }
    }

    #[test]
    fn yen_returns_fewer_when_fewer_exist() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        net.add_edge(a, b, 1.0, LinkCost::owned());
        let paths = k_shortest_paths(&net, a, b, 4, &|_| 1.0);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn yen_orders_by_cost() {
        let (net, a, d) = diamond();
        let paths = k_shortest_paths(&net, a, d, 3, &|_| 1.0);
        let costs: Vec<f64> = paths.iter().map(|p| p.total(|_| 1.0)).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn yen_on_disconnected_pair_is_empty() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let c = net.add_node("C", Region::NorthAmerica);
        net.add_edge(a, b, 1.0, LinkCost::owned());
        assert!(k_shortest_paths(&net, a, c, 3, &|_| 1.0).is_empty());
    }

    #[test]
    fn path_helpers() {
        let (net, a, d) = diamond();
        let edges = shortest_path(&net, a, d, &|_| 1.0).unwrap();
        let p = Path::new(&net, edges);
        assert_eq!(p.bottleneck(|e| net.edge(e).capacity), 10.0);
        assert_eq!(p.total(|_| 2.5), 2.5);
        assert!(p.contains(p.edges()[0]));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_path_rejected() {
        let (net, a, d) = diamond();
        let ab = net.find_edge(a, NodeId(1)).unwrap();
        let cd = net.find_edge(NodeId(2), d).unwrap();
        Path::new(&net, vec![ab, cd]);
    }

    #[test]
    fn pathset_caches() {
        let (net, a, d) = diamond();
        let mut ps = PathSet::new(2);
        let n1 = ps.paths(&net, a, d).len();
        let n2 = ps.paths(&net, a, d).len();
        assert_eq!(n1, 2);
        assert_eq!(n1, n2);
    }
}
