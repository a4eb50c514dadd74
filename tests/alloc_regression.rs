//! Allocation-regression guard for the batched frame pipeline.
//!
//! The coalesced delivery path is built entirely from recycled storage:
//! the frame heap, the batch slab, per-node pending-batch lists, the
//! open-instant map and the grid scratch buffers all reach a fixed point
//! during warm-up. After that, delivering a batch must allocate NOTHING —
//! zero calls into the global allocator per delivered batch, not "few".
//! A counting `#[global_allocator]` pins that: if a future change sneaks a
//! per-delivery `Vec`, `Box` or hash-map growth into the hot path, this
//! test fails with the exact count.
//!
//! The application under test is a deliberately allocation-free beacon
//! (payload cloned from a shared `Bytes`, default batch drain, no logs):
//! the guard measures the *engine's* steady state, not the protocol's.
//! A second guard pins the `neighbors_in_range_into` query: range queries
//! into a caller-owned buffer must not allocate either. A third pins route
//! calculation: once the thread's routing scratch has grown to the graph,
//! recomputing into a reused table allocates nothing.
//!
//! The count is thread-scoped: only allocations made by the measuring
//! thread inside its measured region are counted, so test threads running
//! in parallel cannot leak allocations into each other's windows.
#![allow(unsafe_code)] // the counting global allocator is the whole point

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use trustlink_olsr::routing::RoutingTable;
use trustlink_olsr::state::{TopologySet, TwoHopSet};
use trustlink_sim::prelude::*;
use trustlink_sim::{topologies, Application, TimerToken};

thread_local! {
    /// Set while this thread runs a region passed to [`allocs_during`].
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Allocator calls this thread made while `MEASURING` was set. Both
    /// cells are const-initialized and need no destructor, so touching
    /// them from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    if MEASURING.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

/// Runs `f` and returns its result with the number of allocator calls
/// (`alloc` and `realloc`) it made on the calling thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(0));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, ALLOCS.with(Cell::get))
}

struct Counting;

// SAFETY: pure pass-through to `System` plus a thread-local counter bump;
// every allocator contract obligation is `System`'s own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: caller upholds `alloc`'s contract; forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `dealloc`'s contract; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: caller upholds `realloc`'s contract; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const TICK: TimerToken = TimerToken(1);

/// Broadcasts a fixed frame every 100 ms; receives through the default
/// batch drain. Steady state touches no heap: `Bytes::clone` is a
/// refcount bump and the timer re-arm reuses the warmed event heap.
struct Beacon {
    payload: Bytes,
}

impl Application for Beacon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Stagger starts so deliveries spread across distinct instants and
        // the batch slab warms to its true working-set size.
        let off = SimDuration::from_micros(u64::from(ctx.id().0) * 397);
        ctx.set_timer(off, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == TICK {
            ctx.broadcast(self.payload.clone());
            ctx.set_timer(SimDuration::from_millis(100), TICK);
        }
    }
}

#[test]
fn steady_state_batched_delivery_allocates_nothing() {
    let n = 256;
    let arena = topologies::arena_for_mean_degree(n, 150.0, 10.0);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let positions = topologies::random_geometric(n, &arena, &mut rng);
    let payload = Bytes::from_static(&[0u8; 64]);
    let mut sim = SimulatorBuilder::new(1)
        .arena(arena)
        .radio(RadioConfig::unit_disk(150.0))
        .scan_mode(ScanMode::Grid)
        .delivery_mode(DeliveryMode::Batched)
        .expected_nodes(n)
        .build();
    for &p in &positions {
        sim.add_node(Box::new(Beacon { payload: payload.clone() }), p);
    }

    // Warm-up: grow every heap, slab and scratch buffer to its working set.
    sim.run_for(SimDuration::from_secs(5));
    let delivered_before: u64 = (0..n).map(|i| sim.stats().node(NodeId(i as u32)).received).sum();

    let ((), during) = allocs_during(|| sim.run_for(SimDuration::from_secs(5)));

    let delivered: u64 =
        (0..n).map(|i| sim.stats().node(NodeId(i as u32)).received).sum::<u64>() - delivered_before;
    assert!(
        delivered > 100_000,
        "measurement window too quiet to be meaningful: {delivered} deliveries"
    );
    assert_eq!(
        during, 0,
        "batched delivery allocated {during} times across {delivered} deliveries; \
         the steady-state pipeline must not touch the allocator at all"
    );
}

#[test]
fn neighbor_queries_into_a_buffer_allocate_nothing() {
    let n = 256;
    let arena = topologies::arena_for_mean_degree(n, 150.0, 10.0);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let positions = topologies::random_geometric(n, &arena, &mut rng);
    let mut sim = SimulatorBuilder::new(2)
        .arena(arena)
        .radio(RadioConfig::unit_disk(150.0))
        .scan_mode(ScanMode::Grid)
        .expected_nodes(n)
        .build();
    for &p in &positions {
        sim.add_node(Box::new(Beacon { payload: Bytes::from_static(b"x") }), p);
    }
    sim.run_for(SimDuration::from_millis(10));

    // Warm-up: grow the buffer and the grid's gather scratch to their
    // working sets once.
    let mut buf = Vec::new();
    for i in 0..n {
        sim.neighbors_in_range_into(NodeId(i as u32), &mut buf);
    }

    let (total, during) = allocs_during(|| {
        let mut total = 0usize;
        for _ in 0..16 {
            for i in 0..n {
                sim.neighbors_in_range_into(NodeId(i as u32), &mut buf);
                total += buf.len();
            }
        }
        total
    });

    assert!(total > 10_000, "mesh too sparse to be meaningful: {total} neighbor hits");
    assert_eq!(
        during, 0,
        "neighbors_in_range_into allocated {during} times across {total} neighbor hits; \
         the into-buffer query must reuse the caller's storage"
    );
}

#[test]
fn warm_route_calculation_allocates_nothing() {
    // An 8x8 grid learned from TCs, plus 2-hop pairs and an advertised id
    // at the top of the 32-bit range.
    let (live, now) = (SimTime::from_secs(100), SimTime::from_secs(1));
    let mut topology = TopologySet::default();
    for id in 0..64u32 {
        let mut dests = Vec::new();
        if id % 8 != 7 {
            dests.push(NodeId(id + 1));
        }
        if id < 56 {
            dests.push(NodeId(id + 8));
        }
        topology.apply_tc(NodeId(id), 1, &dests, live, now);
    }
    topology.apply_tc(NodeId(63), 2, &[NodeId(u32::MAX - 1)], live, now);
    let mut two_hop = TwoHopSet::default();
    two_hop.upsert(NodeId(1), NodeId(2), live, now);
    two_hop.upsert(NodeId(8), NodeId(16), live, now);
    let sym = [NodeId(1), NodeId(8)];

    let mut table = RoutingTable::default();
    let run = |table: &mut RoutingTable, avoid| {
        RoutingTable::compute_avoiding_into(
            table,
            NodeId(0),
            &sym,
            &two_hop,
            &topology,
            now,
            avoid,
        );
        table.len()
    };
    // Warm-up: grow the thread's scratch and the table to the graph.
    assert_eq!(run(&mut table, None), 64);

    let (routes, during) = allocs_during(|| {
        let mut routes = 0;
        for _ in 0..16 {
            routes += run(&mut table, None);
            routes += run(&mut table, Some(NodeId(9)));
        }
        routes
    });

    assert!(routes > 1_000, "graph too small to be meaningful: {routes} routes");
    assert_eq!(
        during, 0,
        "warm route calculation allocated {during} times across {routes} routes; \
         the shared scratch and the reused table must cover it"
    );
}
