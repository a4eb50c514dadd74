//! Routing table calculation (RFC 3626 §10).
//!
//! Routes are shortest paths (hop count) over the union of:
//! * this node's symmetric 1-hop links, and
//! * the topology tuples learned from TCs (`last_hop → dest` edges).
//!
//! [`RoutingTable::compute_avoiding`] additionally excludes one node from
//! the graph — the primitive the paper's investigation uses so that
//! requests/answers "should not go through … the suspicious MPR".

use std::cell::RefCell;
use std::hash::{BuildHasher, RandomState};

use trustlink_sim::{NodeId, SimTime};

use crate::state::{TopologySet, TwoHopSet};

thread_local! {
    /// Route-calculation scratch shared by every node this thread runs.
    /// Callbacks run one at a time and nothing runs inside the borrow, so
    /// borrows never nest and one scratch per thread suffices.
    static SCRATCH: RefCell<RoutingWorkspace> = RefCell::new(RoutingWorkspace::new());
}

/// Unvisited marker in the BFS distance array.
const UNVISITED: u32 = u32::MAX;

/// One interner slot; occupied only while `stamp` is the workspace's
/// current stamp.
#[derive(Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    id: u32,
    local: u32,
}

/// Route-calculation scratch over compact local ids.
///
/// A computation interns every node id it meets to a local index in
/// first-seen order (`me` is 0), so each buffer is sized by the ids of
/// that computation and never by an id's value: ids arrive off the wire
/// as full 32-bit values chosen by whoever sent the HELLO or TC.
struct RoutingWorkspace {
    /// Open-addressing interner. This computation uses the first
    /// `mask + 1` slots, at least twice the number of ids it can meet;
    /// bumping `stamp` empties them all at once.
    slots: Vec<Slot>,
    mask: usize,
    stamp: u32,
    /// Odd multiplier of the multiply-shift hash, drawn once per thread
    /// so advertised ids cannot be picked to collide.
    key: u64,
    shift: u32,
    /// Local index → node id.
    ids: Vec<NodeId>,
    /// Local `(from, to)` edges in push order.
    edges: Vec<(u32, u32)>,
    /// CSR adjacency: the out-edges of `u` are
    /// `targets[offsets[u]..offsets[u + 1]]`, in push order.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// BFS hop counts, [`UNVISITED`] when unreached.
    dist: Vec<u32>,
    /// First hop (local) toward each reached node.
    first_hop: Vec<u32>,
    /// BFS visit order; `queue[0]` is `me`.
    queue: Vec<u32>,
}

impl RoutingWorkspace {
    fn new() -> Self {
        RoutingWorkspace {
            slots: Vec::new(),
            mask: 0,
            stamp: 0,
            key: RandomState::new().hash_one(0u64) | 1,
            shift: 63,
            ids: Vec::new(),
            edges: Vec::new(),
            offsets: Vec::new(),
            targets: Vec::new(),
            dist: Vec::new(),
            first_hop: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Starts a computation that meets at most `max_ids` distinct ids and
    /// pushes at most `max_ids` edges.
    fn begin(&mut self, max_ids: usize) {
        // Local indices, edge offsets and hop counts are u32s below UNVISITED.
        assert!(max_ids < UNVISITED as usize, "route calculation over {max_ids} ids");
        let cap = (2 * max_ids).next_power_of_two();
        if self.slots.len() < cap {
            self.slots.resize(cap, Slot::default());
        }
        self.mask = cap - 1;
        self.shift = 64 - cap.trailing_zeros();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: a stale slot could now carry the current stamp.
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.stamp = 1;
        }
        self.ids.clear();
        self.edges.clear();
    }

    /// The local index of `id`, assigning the next one on first sight.
    fn intern(&mut self, id: NodeId) -> u32 {
        let mut i = (u64::from(id.0).wrapping_mul(self.key) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                // `begin` bounds the id count below u32::MAX.
                let local = self.ids.len() as u32;
                *slot = Slot { stamp: self.stamp, id: id.0, local };
                self.ids.push(id);
                return local;
            }
            if slot.id == id.0 {
                return slot.local;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Interns both endpoints of a learned (non-link-sensed) edge and
    /// pushes it in both directions, unless it touches `me` or `avoid` or
    /// is a self-loop. `memo` caches the last `from`, which repeats across
    /// consecutive tuples of a sorted repository.
    fn push_relayed(
        &mut self,
        memo: &mut (NodeId, u32),
        me: NodeId,
        avoid: Option<NodeId>,
        from: NodeId,
        to: NodeId,
    ) {
        if from == me || to == me || from == to || Some(from) == avoid || Some(to) == avoid {
            return;
        }
        if memo.0 != from {
            *memo = (from, self.intern(from));
        }
        let (a, b) = (memo.1, self.intern(to));
        self.edges.push((a, b));
        self.edges.push((b, a));
    }

    /// Interns the graph: `me → neighbors`, then both directions of every
    /// live 2-hop pair and topology tuple. Edges *out of* `me` come only
    /// from link sensing: a forged TC or HELLO mentioning this node must
    /// never add a first hop that is not a verified symmetric neighbor
    /// (the RFC's iterative calculation has the same property).
    fn load(
        &mut self,
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoid: Option<NodeId>,
    ) {
        self.begin(1 + symmetric_neighbors.len() + 2 * (two_hop.len() + topology.len()));
        // `me` is local 0, the BFS root.
        let mut memo = (me, self.intern(me));
        for &n in symmetric_neighbors {
            if Some(n) != avoid && n != me {
                let local = self.intern(n);
                self.edges.push((0, local));
            }
        }
        for pair in two_hop.iter(now) {
            self.push_relayed(&mut memo, me, avoid, pair.via, pair.two_hop);
        }
        // TC edges are advertised by the MPR (last_hop); the RFC treats
        // them as usable in both directions for route calculation because
        // MPR selection requires a symmetric link.
        for t in topology.iter(now) {
            self.push_relayed(&mut memo, me, avoid, t.last_hop, t.dest);
        }
    }

    /// Buckets the edges by source (a stable counting sort, so each
    /// source keeps its push order), runs the BFS from local 0 and writes
    /// every reached node but `me` into `out`, sorted by destination.
    fn bfs_into(&mut self, out: &mut RoutingTable) {
        let n = self.ids.len();
        // Counts land at `from + 2`; after the prefix sum `offsets[u + 1]`
        // is the start of `u`, used as its write cursor, which leaves it
        // at the end of `u` — the start of `u + 1`.
        self.offsets.clear();
        self.offsets.resize(n + 2, 0);
        for &(from, _) in &self.edges {
            self.offsets[from as usize + 2] += 1;
        }
        for i in 2..n + 2 {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.targets.clear();
        self.targets.resize(self.edges.len(), 0);
        for &(from, to) in &self.edges {
            let cursor = &mut self.offsets[from as usize + 1];
            self.targets[*cursor as usize] = to;
            *cursor += 1;
        }

        self.dist.clear();
        self.dist.resize(n, UNVISITED);
        self.first_hop.clear();
        self.first_hop.resize(n, 0);
        self.queue.clear();
        self.dist[0] = 0;
        self.queue.push(0);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let du = self.dist[u];
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                let vi = v as usize;
                if self.dist[vi] != UNVISITED {
                    continue;
                }
                self.dist[vi] = du + 1;
                self.first_hop[vi] = if u == 0 { v } else { self.first_hop[u] };
                self.queue.push(v);
            }
        }

        out.routes.clear();
        out.routes.extend(self.queue[1..].iter().map(|&v| {
            let v = v as usize;
            Route {
                dest: self.ids[v],
                next_hop: self.ids[self.first_hop[v] as usize],
                hops: self.dist[v],
            }
        }));
        out.routes.sort_unstable_by_key(|r| r.dest);
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
/// Backed by a `Vec<Route>` sorted by destination: lookups are binary
/// searches, iteration is a slice walk, and a table can be recomputed
/// *into* an existing allocation ([`RoutingTable::compute_avoiding_into`])
/// so the steady-state recompute path allocates nothing once warm.
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

    /// Allocation-free once warm: the result is written into `out`
    /// (cleared first, capacity kept) and the scratch is this thread's
    /// shared one. Results are identical to
    /// [`RoutingTable::compute_avoiding`] for every input.
    ///
    /// Cost and memory follow the number of ids and edges in the
    /// computation, whatever the ids' values.
    pub fn compute_avoiding_into(
        out: &mut RoutingTable,
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoid: Option<NodeId>,
    ) {
        SCRATCH.with_borrow_mut(|ws| {
            ws.load(me, symmetric_neighbors, two_hop, topology, now, avoid);
            ws.bfs_into(out);
        });
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
    fn hostile_ids_route_in_memory_sized_by_the_graph() {
        // One forged TC tuple naming an id near u32::MAX must route like any
        // other id; a scratch indexed by id value could not be allocated.
        let far = NodeId(u32::MAX - 1);
        let table =
            RoutingTable::compute(NodeId(0), &[NodeId(1)], &no2h(), &topo(&[(1, far.0)]), now());
        assert_eq!(table.route_to(far), Some(&Route { dest: far, next_hop: NodeId(1), hops: 2 }));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn stamp_wrap_empties_the_interner() {
        // Listing the neighbors in the other order gives the same ids
        // other local indices, so a slot from before the wrap that read
        // as occupied would map an id to a wrong node.
        let chain: Vec<(u32, u32)> = (1..40).map(|i| (i, i + 1)).collect();
        let set = topo(&chain);
        let run = |sym: &[NodeId]| RoutingTable::compute(NodeId(0), sym, &no2h(), &set, now());
        let (first, second) = ([NodeId(40), NodeId(1)], [NodeId(1), NodeId(40)]);
        let expected = run(&second);
        SCRATCH.set(RoutingWorkspace::new());
        assert_eq!(run(&first), expected);
        assert_eq!(SCRATCH.with_borrow(|ws| ws.stamp), 1);
        // Skip to just before the wrap, leaving the stamp-1 slots intact.
        SCRATCH.with_borrow_mut(|ws| ws.stamp = u32::MAX - 1);
        assert!(RoutingTable::compute(NodeId(0), &[], &no2h(), &TopologySet::default(), now())
            .is_empty());
        assert_eq!(run(&second), expected, "computed across the stamp wrap");
        assert_eq!(SCRATCH.with_borrow(|ws| ws.stamp), 1);
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
