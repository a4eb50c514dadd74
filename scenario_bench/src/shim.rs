//! The timing shim of the traced run: a transparent `Application` wrapper
//! that times each callback class of the node it wraps.
//!
//! It forwards every callback, and `rng_free`, to the wrapped node
//! unchanged, so a traced run replays the untraced one exactly; the only
//! thing it adds is two clock reads per callback.

use std::time::Instant;

use trustlink_core::detector::{TIMER_ANALYSIS, TIMER_GOSSIP};
use trustlink_olsr::node::{TIMER_HELLO, TIMER_RECOMPUTE, TIMER_REFRESH, TIMER_TC};
use trustlink_sim::{Application, CallbackClass, Context, FrameBatch, NodeId, TimerToken};

/// The callback classes the shim tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `on_start`.
    Start,
    /// Frame reception (`on_receive_batch` or `on_receive`).
    Receive,
    /// `TIMER_HELLO`: HELLO emission.
    Hello,
    /// `TIMER_TC`: TC emission.
    Tc,
    /// `TIMER_REFRESH`: periodic state purge.
    Refresh,
    /// `TIMER_RECOMPUTE`: debounced MPR and route recomputation.
    Recompute,
    /// `TIMER_ANALYSIS`: the detector's log-analysis pass.
    Analysis,
    /// `TIMER_GOSSIP`: the trust-gossip send.
    Gossip,
    /// Any other timer.
    OtherTimer,
}

impl Class {
    /// Every class, in ledger order.
    pub const ALL: [Class; 9] = [
        Class::Start,
        Class::Receive,
        Class::Hello,
        Class::Tc,
        Class::Refresh,
        Class::Recompute,
        Class::Analysis,
        Class::Gossip,
        Class::OtherTimer,
    ];

    fn of_timer(token: TimerToken) -> Class {
        match token {
            TIMER_HELLO => Class::Hello,
            TIMER_TC => Class::Tc,
            TIMER_REFRESH => Class::Refresh,
            TIMER_RECOMPUTE => Class::Recompute,
            TIMER_ANALYSIS => Class::Analysis,
            TIMER_GOSSIP => Class::Gossip,
            _ => Class::OtherTimer,
        }
    }
}

/// Calls, work units and nanoseconds of one callback class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot {
    /// Callbacks run.
    pub calls: u64,
    /// Work units handled: frames for reception, one per call otherwise.
    pub units: u64,
    /// Host time spent inside the callbacks.
    pub nanos: u64,
}

/// Per-class totals, indexed like [`Class::ALL`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger([Slot; Class::ALL.len()]);

impl Ledger {
    /// The totals of `class`.
    pub fn get(&self, class: Class) -> Slot {
        self.0[class as usize]
    }

    /// Total host time over every class.
    pub fn total_nanos(&self) -> u64 {
        self.0.iter().map(|s| s.nanos).sum()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.calls += b.calls;
            a.units += b.units;
            a.nanos += b.nanos;
        }
    }

    fn record(&mut self, class: Class, units: u64, started: Instant) {
        let slot = &mut self.0[class as usize];
        slot.calls += 1;
        slot.units += units;
        slot.nanos += started.elapsed().as_nanos() as u64;
    }
}

/// Wraps a node's application and times its callbacks.
pub struct Timed<A> {
    /// The wrapped application.
    pub inner: A,
    /// What the callbacks cost so far.
    pub ledger: Ledger,
}

impl<A> Timed<A> {
    /// Wraps `inner` with an empty ledger.
    pub fn new(inner: A) -> Self {
        Timed { inner, ledger: Ledger::default() }
    }
}

impl<A: Application> Application for Timed<A> {
    fn rng_free(&self, class: CallbackClass) -> bool {
        self.inner.rng_free(class)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let started = Instant::now();
        self.inner.on_start(ctx);
        self.ledger.record(Class::Start, 1, started);
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: bytes::Bytes) {
        let started = Instant::now();
        self.inner.on_receive(ctx, from, payload);
        self.ledger.record(Class::Receive, 1, started);
    }

    fn on_receive_batch(&mut self, ctx: &mut Context<'_>, batch: &mut FrameBatch) {
        let frames = batch.len() as u64;
        let started = Instant::now();
        self.inner.on_receive_batch(ctx, batch);
        self.ledger.record(Class::Receive, frames, started);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let started = Instant::now();
        self.inner.on_timer(ctx, timer);
        self.ledger.record(Class::of_timer(timer), 1, started);
    }
}
