//! Routing table calculation (RFC 3626 §10).
//!
//! Routes are shortest paths (hop count) over the union of:
//! * this node's symmetric 1-hop links, and
//! * the topology tuples learned from TCs (`last_hop → dest` edges).
//!
//! [`RoutingTable::compute_avoiding`] additionally excludes one node from
//! the graph — the primitive the paper's investigation uses so that
//! requests/answers "should not go through … the suspicious MPR".

use std::collections::VecDeque;

use trustlink_sim::{NodeId, SimTime};

use crate::state::{TopologySet, TwoHopSet};

/// Unvisited marker in the BFS distance array.
const UNVISITED: u32 = u32::MAX;

/// Reusable scratch state for [`RoutingTable::compute_avoiding_into`].
///
/// Route calculation runs after every topology-changing packet; the
/// original implementation rebuilt `BTreeMap` adjacency and BFS state per
/// call. The workspace keeps dense per-node-id buffers (node ids are
/// small `u32`s) that survive across recomputations, so a warm
/// recomputation into a reused table allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RoutingWorkspace {
    /// Adjacency lists indexed by node id; cleared (capacity kept) after
    /// each computation.
    adj: Vec<Vec<NodeId>>,
    /// Ids whose adjacency list is non-empty, for cheap clearing.
    touched: Vec<u32>,
    /// BFS hop counts, [`UNVISITED`] when unreached.
    dist: Vec<u32>,
    /// First hop toward each reached id.
    first_hop: Vec<NodeId>,
    /// BFS frontier.
    queue: VecDeque<NodeId>,
}

impl RoutingWorkspace {
    /// Grows the dense buffers to cover `id`.
    fn ensure(&mut self, id: NodeId) {
        let need = id.index() + 1;
        if self.adj.len() < need {
            self.adj.resize_with(need, Vec::new);
        }
    }

    fn push_edge(&mut self, from: NodeId, to: NodeId) {
        self.ensure(from);
        self.ensure(to);
        let list = &mut self.adj[from.index()];
        if list.is_empty() {
            self.touched.push(from.0);
        }
        list.push(to);
    }

    fn reset_for_next_use(&mut self) {
        for &t in &self.touched {
            self.adj[t as usize].clear();
        }
        self.touched.clear();
    }
}

/// One route entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Final destination.
    pub dest: NodeId,
    /// The symmetric 1-hop neighbor to hand the packet to.
    pub next_hop: NodeId,
    /// Total hop count.
    pub hops: u32,
}

/// A freshly computed routing table.
///
/// Backed by a `Vec<Route>` sorted by destination (node ids are dense
/// `u32`s): lookups are binary searches, iteration is a slice walk, and a
/// table can be recomputed *into* an existing allocation
/// ([`RoutingTable::compute_avoiding_into`]) so the steady-state recompute
/// path allocates nothing once warm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    routes: Vec<Route>, // sorted ascending by dest
}

impl RoutingTable {
    /// Computes the table for `me` from its symmetric neighbors, its 2-hop
    /// neighbor set and the topology set (breadth-first search — all edges
    /// cost one hop). Using the 2-hop set alongside TC-learned topology is
    /// RFC 3626 §10 steps 2–3.
    pub fn compute(
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
    ) -> Self {
        Self::compute_avoiding(me, symmetric_neighbors, two_hop, topology, now, None)
    }

    /// Like [`RoutingTable::compute`] but treats `avoid` as nonexistent:
    /// no route will traverse or terminate at it.
    pub fn compute_avoiding(
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoid: Option<NodeId>,
    ) -> Self {
        let mut out = RoutingTable::default();
        Self::compute_avoiding_into(
            &mut RoutingWorkspace::default(),
            &mut out,
            me,
            symmetric_neighbors,
            two_hop,
            topology,
            now,
            avoid,
        );
        out
    }

    /// Fully allocation-free form: the scratch state lives in `ws` and the
    /// result is written into `out` (cleared first, capacity kept).
    /// Results are identical to [`RoutingTable::compute_avoiding`] for
    /// every input.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_avoiding_into(
        ws: &mut RoutingWorkspace,
        out: &mut RoutingTable,
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoid: Option<NodeId>,
    ) {
        // Build adjacency: me -> neighbors, neighbor -> claimed 2-hop,
        // plus TC-learned topology edges. Edges *out of* `me` come only
        // from link sensing: a forged TC or HELLO mentioning this node must
        // never add a first hop that is not a verified symmetric neighbor
        // (the RFC's iterative calculation has the same property).
        ws.ensure(me);
        for &n in symmetric_neighbors {
            if Some(n) != avoid && n != me {
                ws.push_edge(me, n);
            }
        }
        for pair in two_hop.iter(now) {
            if Some(pair.via) == avoid || Some(pair.two_hop) == avoid {
                continue;
            }
            Self::push_relayed(ws, me, pair.via, pair.two_hop);
            Self::push_relayed(ws, me, pair.two_hop, pair.via);
        }
        for t in topology.iter(now) {
            if Some(t.last_hop) == avoid || Some(t.dest) == avoid {
                continue;
            }
            // TC edges are advertised by the MPR (last_hop); the RFC treats
            // them as usable in both directions for route calculation
            // because MPR selection requires a symmetric link.
            Self::push_relayed(ws, me, t.last_hop, t.dest);
            Self::push_relayed(ws, me, t.dest, t.last_hop);
        }

        // BFS from me over dense arrays (node ids are small integers).
        let n = ws.adj.len();
        ws.dist.clear();
        ws.dist.resize(n, UNVISITED);
        ws.first_hop.clear();
        ws.first_hop.resize(n, me);
        ws.queue.clear();
        ws.dist[me.index()] = 0;
        ws.queue.push_back(me);
        while let Some(u) = ws.queue.pop_front() {
            let du = ws.dist[u.index()];
            // The adjacency list is moved out during the scan so the BFS
            // state can be written; edges never target their own source,
            // so the list cannot be observed empty mid-scan.
            let nbrs = std::mem::take(&mut ws.adj[u.index()]);
            for &v in &nbrs {
                if ws.dist[v.index()] != UNVISITED {
                    continue;
                }
                ws.dist[v.index()] = du + 1;
                ws.first_hop[v.index()] = if u == me { v } else { ws.first_hop[u.index()] };
                ws.queue.push_back(v);
            }
            ws.adj[u.index()] = nbrs;
        }

        out.routes.clear();
        for i in 0..n {
            let hops = ws.dist[i];
            let dest = NodeId(i as u32);
            if hops == UNVISITED || dest == me {
                continue;
            }
            // Ascending `i` keeps the vec sorted by destination.
            out.routes.push(Route { dest, next_hop: ws.first_hop[i], hops });
        }
        ws.reset_for_next_use();
    }

    /// Adds a learned (non-link-sensed) edge, filtering anything touching
    /// `me` or degenerate self-loops — the guard the old closure applied.
    fn push_relayed(ws: &mut RoutingWorkspace, me: NodeId, from: NodeId, to: NodeId) {
        if from != me && to != me && from != to {
            ws.push_edge(from, to);
        }
    }

    /// The route to `dest`, if any.
    pub fn route_to(&self, dest: NodeId) -> Option<&Route> {
        self.routes.binary_search_by_key(&dest, |r| r.dest).ok().map(|i| &self.routes[i])
    }

    /// The next hop toward `dest`, if any.
    pub fn next_hop(&self, dest: NodeId) -> Option<NodeId> {
        self.route_to(dest).map(|r| r.next_hop)
    }

    /// All routes, ascending by destination.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter()
    }

    /// Number of reachable destinations.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Destinations whose route changed or disappeared between `self` and
    /// `next` — used by the node to emit `ROUTE_*` audit-log lines. A
    /// single merge walk over the two destination-sorted tables.
    pub fn diff<'a>(&'a self, next: &'a RoutingTable) -> RoutingDiff {
        let mut added = Vec::new();
        let mut changed = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.routes.len() || j < next.routes.len() {
            match (self.routes.get(i), next.routes.get(j)) {
                (Some(old), Some(new)) if old.dest == new.dest => {
                    if old != new {
                        changed.push(*new);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(old), Some(new)) if old.dest < new.dest => {
                    removed.push(old.dest);
                    i += 1;
                }
                (Some(_), Some(new)) => {
                    added.push(*new);
                    j += 1;
                }
                (Some(old), None) => {
                    removed.push(old.dest);
                    i += 1;
                }
                (None, Some(new)) => {
                    added.push(*new);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        RoutingDiff { added, changed, removed }
    }
}

/// The difference between two routing tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingDiff {
    /// Routes present only in the newer table.
    pub added: Vec<Route>,
    /// Routes whose next hop or hop count changed.
    pub changed: Vec<Route>,
    /// Destinations that became unreachable.
    pub removed: Vec<NodeId>,
}

impl RoutingDiff {
    /// `true` when the tables are identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.changed.is_empty() && self.removed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(entries: &[(u32, u32)]) -> TopologySet {
        let mut set = TopologySet::default();
        for (i, &(last_hop, dest)) in entries.iter().enumerate() {
            // Distinct originators may repeat; use one ANSN per last_hop.
            let _ = i;
            set.apply_tc(NodeId(last_hop), 1, &[NodeId(dest)], SimTime::from_secs(1_000), now());
        }
        set
    }

    fn topo_multi(entries: &[(u32, &[u32])]) -> TopologySet {
        let mut set = TopologySet::default();
        for &(last_hop, dests) in entries {
            let dests: Vec<NodeId> = dests.iter().map(|&d| NodeId(d)).collect();
            set.apply_tc(NodeId(last_hop), 1, &dests, SimTime::from_secs(1_000), now());
        }
        set
    }

    fn now() -> SimTime {
        SimTime::from_secs(0)
    }

    fn no2h() -> TwoHopSet {
        TwoHopSet::default()
    }

    #[test]
    fn direct_neighbors_are_one_hop() {
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &no2h(),
            &TopologySet::default(),
            now(),
        );
        assert_eq!(table.len(), 2);
        assert_eq!(table.route_to(NodeId(1)).unwrap().hops, 1);
        assert_eq!(table.next_hop(NodeId(2)), Some(NodeId(2)));
    }

    #[test]
    fn multi_hop_chain() {
        // 0 - 1 - 2 - 3 (line); TCs: 1 advertises 2, 2 advertises 3.
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo_multi(&[(1, &[2]), (2, &[3, 1])]),
            now(),
        );
        assert_eq!(table.route_to(NodeId(3)).unwrap().hops, 3);
        assert_eq!(table.next_hop(NodeId(3)), Some(NodeId(1)));
        assert_eq!(table.next_hop(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn shortest_path_wins() {
        // Two routes to 3: 0-1-3 and 0-2-4-3. BFS must give hops=2 via 1.
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &no2h(),
            &topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]),
            now(),
        );
        let r = table.route_to(NodeId(3)).unwrap();
        assert_eq!(r.hops, 2);
        assert_eq!(r.next_hop, NodeId(1));
    }

    #[test]
    fn avoidance_reroutes() {
        // Same two-path topology; avoiding node 1 forces the long way.
        let topo = topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]);
        let table = RoutingTable::compute_avoiding(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &no2h(),
            &topo,
            now(),
            Some(NodeId(1)),
        );
        let r = table.route_to(NodeId(3)).unwrap();
        assert_eq!(r.hops, 3);
        assert_eq!(r.next_hop, NodeId(2));
        // And node 1 itself is unroutable.
        assert!(table.route_to(NodeId(1)).is_none());
    }

    #[test]
    fn avoidance_can_disconnect() {
        // 0 - 1 - 2: avoiding 1 leaves 2 unreachable.
        let table = RoutingTable::compute_avoiding(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo(&[(1, 2)]),
            now(),
            Some(NodeId(1)),
        );
        assert!(table.is_empty());
    }

    #[test]
    fn unreachable_nodes_absent() {
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo_multi(&[(5, &[6])]), // disconnected island
            now(),
        );
        assert!(table.route_to(NodeId(6)).is_none());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn expired_topology_ignored() {
        let mut set = TopologySet::default();
        set.apply_tc(NodeId(1), 1, &[NodeId(2)], SimTime::from_secs(5), now());
        let table =
            RoutingTable::compute(NodeId(0), &[NodeId(1)], &no2h(), &set, SimTime::from_secs(10));
        assert!(table.route_to(NodeId(2)).is_none());
    }

    #[test]
    fn diff_reports_changes() {
        let t1 = RoutingTable::compute(NodeId(0), &[NodeId(1)], &no2h(), &topo(&[(1, 2)]), now());
        let t2 = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1), NodeId(3)],
            &no2h(),
            &TopologySet::default(),
            now(),
        );
        let diff = t1.diff(&t2);
        assert_eq!(diff.added.iter().map(|r| r.dest).collect::<Vec<_>>(), vec![NodeId(3)]);
        assert_eq!(diff.removed, vec![NodeId(2)]);
        assert!(t1.diff(&t1.clone()).is_empty());
    }

    #[test]
    fn workspace_reuse_matches_fresh_computation() {
        // One workspace driven across different graphs (shrinking and
        // growing, with and without avoidance) must match the one-shot
        // API every time.
        let mut ws = RoutingWorkspace::default();
        let big = topo_multi(&[(1, &[2, 3]), (2, &[4]), (4, &[3, 5]), (5, &[6])]);
        let small = topo(&[(1, 2)]);
        let sym_big = vec![NodeId(1), NodeId(2)];
        let sym_small = vec![NodeId(1)];
        let runs: Vec<(&[NodeId], &TopologySet, Option<NodeId>)> = vec![
            (&sym_big, &big, None),
            (&sym_small, &small, None),
            (&sym_big, &big, Some(NodeId(2))),
            (&sym_big, &big, None),
            (&sym_small, &small, Some(NodeId(1))),
        ];
        let mut reused = RoutingTable::default();
        for (sym, topo, avoid) in runs {
            RoutingTable::compute_avoiding_into(
                &mut ws,
                &mut reused,
                NodeId(0),
                sym,
                &no2h(),
                topo,
                now(),
                avoid,
            );
            let fresh = RoutingTable::compute_avoiding(NodeId(0), sym, &no2h(), topo, now(), avoid);
            assert_eq!(reused, fresh, "avoid={avoid:?}");
        }
    }

    #[test]
    fn routes_never_point_to_self() {
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo_multi(&[(1, &[0, 2])]), // topology mentioning me
            now(),
        );
        assert!(table.route_to(NodeId(0)).is_none());
        assert_eq!(table.route_to(NodeId(2)).unwrap().hops, 2);
    }
}
