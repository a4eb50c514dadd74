//! Property-based tests for the OLSR substrate: the MPR coverage
//! invariant, routing loop-freedom and agreement with a reference BFS,
//! sequence-number arithmetic and the vtime codec.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use trustlink_olsr::message::{decode_vtime, encode_vtime};
use trustlink_olsr::mpr::{select_mprs, uncovered_targets, MprCandidate};
use trustlink_olsr::routing::{Route, RoutingTable};
use trustlink_olsr::state::{DuplicateSet, TopologySet, TwoHopSet};
use trustlink_olsr::types::{SequenceNumber, Willingness};
use trustlink_sim::{NodeId, SimDuration, SimTime};

fn willingness() -> impl Strategy<Value = Willingness> {
    prop_oneof![
        Just(Willingness::Never),
        Just(Willingness::Low),
        Just(Willingness::Default),
        Just(Willingness::High),
        Just(Willingness::Always),
    ]
}

fn candidates() -> impl Strategy<Value = Vec<MprCandidate>> {
    proptest::collection::vec((willingness(), proptest::collection::vec(100u32..140, 0..8)), 1..12)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (willingness, covers))| MprCandidate {
                    addr: NodeId(i as u32), // unique, like a real neighbor set
                    willingness,
                    degree: covers.len(),
                    covers: covers.into_iter().map(NodeId).collect(),
                })
                .collect()
        })
}

/// Like [`candidates`] but allowing duplicate addresses — a malformed
/// input `select_mprs` must survive (coverage merges).
fn candidates_with_duplicates() -> impl Strategy<Value = Vec<MprCandidate>> {
    proptest::collection::vec(
        (0u32..6, willingness(), proptest::collection::vec(100u32..140, 0..8)),
        1..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(addr, willingness, covers)| MprCandidate {
                addr: NodeId(addr),
                willingness,
                degree: covers.len(),
                covers: covers.into_iter().map(NodeId).collect(),
            })
            .collect()
    })
}

/// A node id from three narrow bands: small, just past 16 bits, and at the
/// top of the 32-bit range. Narrow bands make ids repeat, so the graphs
/// connect; the far bands are ids a forged HELLO or TC can name.
fn route_id() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..8, 65_530u32..65_540, (u32::MAX - 7)..=u32::MAX]
}

/// Reference route calculation: a `BTreeMap` adjacency filled in the same
/// push order as [`RoutingTable::compute_avoiding`], then a plain FIFO BFS.
fn reference_routes(
    me: NodeId,
    sym: &[NodeId],
    two_hop: &TwoHopSet,
    topology: &TopologySet,
    now: SimTime,
    avoid: Option<NodeId>,
) -> Vec<Route> {
    let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &n in sym {
        if Some(n) != avoid && n != me {
            adj.entry(me).or_default().push(n);
        }
    }
    let mut relayed = |a: NodeId, b: NodeId| {
        if a != me && b != me && a != b && Some(a) != avoid && Some(b) != avoid {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
    };
    for pair in two_hop.iter(now) {
        relayed(pair.via, pair.two_hop);
    }
    for t in topology.iter(now) {
        relayed(t.last_hop, t.dest);
    }
    let mut reached: BTreeMap<NodeId, Route> = BTreeMap::new();
    let mut queue = VecDeque::from([(me, me, 0)]);
    while let Some((u, first, hops)) = queue.pop_front() {
        for &v in adj.get(&u).into_iter().flatten() {
            if v == me || reached.contains_key(&v) {
                continue;
            }
            let next_hop = if u == me { v } else { first };
            reached.insert(v, Route { dest: v, next_hop, hops: hops + 1 });
            queue.push_back((v, next_hop, hops + 1));
        }
    }
    reached.into_values().collect()
}

proptest! {
    // ---- MPR selection ---------------------------------------------------

    #[test]
    fn mpr_selection_always_covers_coverable_targets(cands in candidates()) {
        // Targets: the union of everything any willing candidate covers.
        let targets: Vec<NodeId> = {
            let mut t: Vec<NodeId> = cands
                .iter()
                .filter(|c| c.willingness != Willingness::Never)
                .flat_map(|c| c.covers.iter().copied())
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let mprs = select_mprs(&cands, &targets);
        let uncovered = uncovered_targets(&cands, &targets, &mprs);
        prop_assert!(uncovered.is_empty(), "uncovered: {uncovered:?}");
    }

    #[test]
    fn mpr_selection_survives_duplicate_addresses(cands in candidates_with_duplicates()) {
        // Coverage must merge across duplicate entries: every target
        // covered by a willing entry stays covered.
        let targets: Vec<NodeId> = {
            let mut t: Vec<NodeId> = cands
                .iter()
                .filter(|c| c.willingness != Willingness::Never)
                .flat_map(|c| c.covers.iter().copied())
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        // Skip inputs where one address carries both Never and non-Never
        // willingness: the merged semantics are undefined there.
        let mut by_addr: std::collections::BTreeMap<NodeId, Vec<Willingness>> =
            std::collections::BTreeMap::new();
        for c in &cands {
            by_addr.entry(c.addr).or_default().push(c.willingness);
        }
        prop_assume!(by_addr.values().all(|ws| {
            ws.iter().all(|w| *w == Willingness::Never)
                || ws.iter().all(|w| *w != Willingness::Never)
        }));
        let mprs = select_mprs(&cands, &targets);
        let uncovered = uncovered_targets(&cands, &targets, &mprs);
        prop_assert!(uncovered.is_empty(), "uncovered: {uncovered:?}");
    }

    #[test]
    fn mpr_selection_is_deterministic(cands in candidates()) {
        let targets: Vec<NodeId> =
            cands.iter().flat_map(|c| c.covers.iter().copied()).collect();
        prop_assert_eq!(select_mprs(&cands, &targets), select_mprs(&cands, &targets));
    }

    #[test]
    fn will_never_nodes_are_never_selected(cands in candidates()) {
        let targets: Vec<NodeId> =
            cands.iter().flat_map(|c| c.covers.iter().copied()).collect();
        let mprs = select_mprs(&cands, &targets);
        for c in &cands {
            if c.willingness == Willingness::Never {
                prop_assert!(!mprs.contains(&c.addr));
            }
        }
    }

    #[test]
    fn will_always_nodes_are_always_selected(cands in candidates()) {
        let targets: Vec<NodeId> =
            cands.iter().flat_map(|c| c.covers.iter().copied()).collect();
        let mprs = select_mprs(&cands, &targets);
        for c in &cands {
            if c.willingness == Willingness::Always {
                prop_assert!(mprs.contains(&c.addr));
            }
        }
    }

    // ---- routing ----------------------------------------------------------

    #[test]
    fn routes_are_loop_free_and_first_hop_is_neighbor(
        edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        sym in proptest::collection::vec(1u32..12, 1..5),
    ) {
        // Build an arbitrary advertised topology plus symmetric neighbors.
        let mut topo = TopologySet::default();
        let until = SimTime::from_secs(1_000);
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a != b {
                topo.apply_tc(NodeId(a), i as u16, &[NodeId(b)], until, SimTime::ZERO);
            }
        }
        let me = NodeId(0);
        let sym: Vec<NodeId> = {
            let mut s: Vec<NodeId> = sym.into_iter().map(NodeId).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let table = RoutingTable::compute(me, &sym, &TwoHopSet::default(), &topo, SimTime::ZERO);
        for route in table.iter() {
            // First hop must be one of my symmetric neighbors.
            prop_assert!(
                sym.contains(&route.next_hop),
                "route to {} via non-neighbor {}",
                route.dest,
                route.next_hop
            );
            prop_assert!(route.hops >= 1);
            prop_assert!(route.dest != me);
        }
        // BFS yields minimal hop counts: a 1-hop route exists exactly for
        // symmetric neighbors.
        for &n in &sym {
            prop_assert_eq!(table.route_to(n).map(|r| r.hops), Some(1));
        }
    }

    #[test]
    fn avoidance_never_routes_via_avoided(
        edges in proptest::collection::vec((0u32..10, 0u32..10), 0..30),
        avoid in 1u32..10,
    ) {
        let mut topo = TopologySet::default();
        let until = SimTime::from_secs(1_000);
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a != b {
                topo.apply_tc(NodeId(a), i as u16, &[NodeId(b)], until, SimTime::ZERO);
            }
        }
        let sym = vec![NodeId(1), NodeId(2)];
        let avoided = NodeId(avoid);
        let table = RoutingTable::compute_avoiding(
            NodeId(0),
            &sym,
            &TwoHopSet::default(),
            &topo,
            SimTime::ZERO,
            Some(avoided),
        );
        for route in table.iter() {
            prop_assert!(route.next_hop != avoided);
            prop_assert!(route.dest != avoided);
        }
    }

    #[test]
    fn routing_matches_reference_bfs(
        me in route_id(),
        sym in proptest::collection::vec(route_id(), 0..6),
        pairs in proptest::collection::vec((route_id(), route_id(), 0u64..3), 0..12),
        tcs in proptest::collection::vec(
            (route_id(), proptest::collection::vec(route_id(), 0..4), 0u64..3),
            0..10,
        ),
        avoid in route_id(),
    ) {
        // Expiries 9 s and 10 s are dead at `now`, 11 s is live. Cases run
        // back to back on one thread, so the shared scratch sees graphs
        // shrink and grow between calls.
        let now = SimTime::from_secs(10);
        let me = NodeId(me);
        let sym: Vec<NodeId> = sym.into_iter().map(NodeId).collect();
        let mut two_hop = TwoHopSet::default();
        for &(via, th, t) in &pairs {
            two_hop.upsert(NodeId(via), NodeId(th), SimTime::from_secs(9 + t), SimTime::ZERO);
        }
        let mut topo = TopologySet::default();
        for (last_hop, dests, t) in &tcs {
            let dests: Vec<NodeId> = dests.iter().map(|&d| NodeId(d)).collect();
            topo.apply_tc(NodeId(*last_hop), 1, &dests, SimTime::from_secs(9 + t), SimTime::ZERO);
        }
        let mut reused = RoutingTable::default();
        for avoid in [None, Some(NodeId(avoid))] {
            let expected = reference_routes(me, &sym, &two_hop, &topo, now, avoid);
            let fresh = RoutingTable::compute_avoiding(me, &sym, &two_hop, &topo, now, avoid);
            prop_assert_eq!(fresh.iter().copied().collect::<Vec<_>>(), expected.clone());
            RoutingTable::compute_avoiding_into(&mut reused, me, &sym, &two_hop, &topo, now, avoid);
            prop_assert_eq!(reused.iter().copied().collect::<Vec<_>>(), expected);
        }
    }

    // ---- sequence numbers ---------------------------------------------------

    #[test]
    fn seqnum_newer_is_antisymmetric_off_antipode(a in any::<u16>(), b in any::<u16>()) {
        let sa = SequenceNumber(a);
        let sb = SequenceNumber(b);
        let ab = sa.is_newer_than(sb);
        let ba = sb.is_newer_than(sa);
        if a == b {
            prop_assert!(!ab && !ba);
        } else if a.wrapping_sub(b) != u16::MAX / 2 + 1 {
            // Exactly one direction wins except at the antipode.
            prop_assert!(ab ^ ba, "a={a} b={b} ab={ab} ba={ba}");
        }
    }

    #[test]
    fn seqnum_next_is_always_newer(a in any::<u16>()) {
        let s = SequenceNumber(a);
        prop_assert!(s.next().is_newer_than(s));
        prop_assert!(!s.is_newer_than(s.next()));
    }

    // ---- vtime codec -------------------------------------------------------

    #[test]
    fn vtime_roundtrip_relative_error_bounded(secs in 0.0625f64..1000.0) {
        let d = SimDuration::from_secs_f64(secs);
        let decoded = decode_vtime(encode_vtime(d)).as_secs_f64();
        let rel = (decoded - secs).abs() / secs;
        prop_assert!(rel < 0.07, "vtime {secs} decoded {decoded} (rel {rel})");
    }

    #[test]
    fn vtime_encoding_is_monotone(a in 0.0625f64..500.0, factor in 1.5f64..4.0) {
        let small = decode_vtime(encode_vtime(SimDuration::from_secs_f64(a)));
        let large = decode_vtime(encode_vtime(SimDuration::from_secs_f64(a * factor)));
        prop_assert!(large >= small);
    }

    // ---- duplicate set -------------------------------------------------------

    #[test]
    fn duplicate_set_seen_iff_recorded_and_unexpired(
        records in proptest::collection::vec((0u32..8, 0u16..16, any::<bool>()), 0..32),
        probe_orig in 0u32..8,
        probe_seq in 0u16..16,
    ) {
        let mut set = DuplicateSet::default();
        let until = SimTime::from_secs(30);
        for &(orig, seq, retx) in &records {
            set.record(NodeId(orig), SequenceNumber(seq), retx, until, SimTime::ZERO);
        }
        let recorded = records.iter().any(|&(o, s, _)| o == probe_orig && s == probe_seq);
        prop_assert_eq!(
            set.seen(NodeId(probe_orig), SequenceNumber(probe_seq), SimTime::from_secs(1)),
            recorded
        );
        // Everything expires.
        prop_assert!(!set.seen(
            NodeId(probe_orig),
            SequenceNumber(probe_seq),
            SimTime::from_secs(30)
        ));
        // Retransmission flags are sticky.
        let any_retx = records
            .iter()
            .any(|&(o, s, r)| o == probe_orig && s == probe_seq && r);
        prop_assert_eq!(
            set.retransmitted(
                NodeId(probe_orig),
                SequenceNumber(probe_seq),
                SimTime::from_secs(1)
            ),
            any_retx
        );
    }

    // ---- two-hop set -----------------------------------------------------------

    #[test]
    fn two_hop_vias_and_reachability_agree(
        pairs in proptest::collection::vec((0u32..6, 10u32..20), 0..24),
    ) {
        let mut set = TwoHopSet::default();
        let until = SimTime::from_secs(10);
        for &(via, th) in &pairs {
            set.upsert(NodeId(via), NodeId(th), until, SimTime::ZERO);
        }
        let now = SimTime::from_secs(1);
        for &(via, th) in &pairs {
            prop_assert!(set.reachable_via(NodeId(via), now).contains(&NodeId(th)));
            prop_assert!(set.vias_for(NodeId(th), now).contains(&NodeId(via)));
        }
        // Purge at expiry removes everything.
        let mut set2 = set.clone();
        set2.purge(until);
        prop_assert!(set2.two_hop_addrs(until, NodeId(99), &[]).is_empty());
    }
}
