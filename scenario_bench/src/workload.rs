//! The benchmark's workloads: full-stack detection scenarios built through
//! the public `SimulatorBuilder` API, exactly as `ScenarioBuilder::run`
//! builds them, but with set-up split from the run so each is timed alone.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trustlink_attacks::liar::LiarPolicy;
use trustlink_attacks::spoof::{LinkSpoofing, SpoofVariant};
use trustlink_core::{DetectorConfig, DetectorNode};
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_olsr::types::{FisheyeRings, FloodScope, OlsrConfig};
use trustlink_sim::{
    topologies, Application, ChannelModel, FadingConfig, MobilityModel, NodeId, RadioConfig,
    SimDuration, Simulator, SimulatorBuilder,
};

use crate::shim::Timed;

/// Radio range of the unit-disk radio every workload uses, in metres.
pub const RANGE_M: f64 = 150.0;
/// Mean 1-hop degree of the random-geometric placement.
pub const MEAN_DEGREE: f64 = 10.0;
/// One spoofer (with its liars) per this many nodes.
const NODES_PER_SPOOFER: usize = 256;
/// Seeds the random-geometric placement of every workload. The placement
/// is part of the workload; `--seed` seeds the simulator's own draws, so
/// the amount of work barely moves between seeds.
pub const PLACEMENT_SEED: u64 = 1;
/// Phantom addresses start here; no workload has this many nodes.
const PHANTOM_BASE: u32 = 60_000;

/// The attack of the `k`-th spoofer: it advertises a phantom neighbour.
pub fn spoofing(k: usize) -> LinkSpoofing {
    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
        fake: vec![NodeId(PHANTOM_BASE + k as u32)],
    })
}

/// The answering policy of a liar covering for `accomplice`.
pub fn cover_for(accomplice: NodeId) -> LiarPolicy {
    LiarPolicy::CoverFor { accomplices: vec![accomplice] }
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name given on the command line.
    pub name: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Simulated time the run covers.
    pub window: SimDuration,
    /// OLSR configuration of every node.
    pub olsr: OlsrConfig,
    /// Detector configuration of every honest node.
    pub detector: DetectorConfig,
    /// Mobility of every node.
    pub mobility: MobilityModel,
    /// Mobility tick, when nodes move.
    pub mobility_tick: Option<SimDuration>,
    /// Uniform per-frame loss.
    pub loss: f64,
    /// Gilbert–Elliott fading overlay.
    pub fading: Option<FadingConfig>,
    /// Whether the run must convict at least one spoofer.
    pub expect_conviction: bool,
}

/// The detector every workload runs: 500 ms analysis, 10 s warm-up, 3 s
/// investigation timeout, at most 16 witnesses and a 3 s trust slot.
fn detector() -> DetectorConfig {
    DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        ..DetectorConfig::default()
    }
}

fn fisheye(olsr: OlsrConfig) -> OlsrConfig {
    OlsrConfig {
        flood_scope: FloodScope::Fisheye(FisheyeRings::new([(2, 1), (8, 2), (255, 4)])),
        ..olsr
    }
}

/// Every workload, in the order `--workload` accepts them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "detect_static",
            nodes: 192,
            window: SimDuration::from_secs(20),
            olsr: fisheye(OlsrConfig::fast()),
            detector: detector(),
            mobility: MobilityModel::Stationary,
            mobility_tick: None,
            loss: 0.0,
            fading: None,
            expect_conviction: true,
        },
        Workload {
            name: "detect_mobile",
            nodes: 128,
            window: SimDuration::from_secs(20),
            olsr: OlsrConfig::fast(),
            detector: DetectorConfig {
                stability_weighting: true,
                gossip_interval: Some(SimDuration::from_secs(5)),
                ..detector()
            },
            mobility: MobilityModel::RandomWaypoint {
                speed_min: 1.0,
                speed_max: 5.0,
                pause: SimDuration::from_secs(2),
            },
            mobility_tick: Some(SimDuration::from_millis(250)),
            loss: 0.05,
            fading: Some(FadingConfig::bursty(0.02, 0.2, 0.9)),
            expect_conviction: true,
        },
        Workload {
            name: "converge_4k",
            nodes: 4096,
            window: SimDuration::from_secs(8),
            olsr: fisheye(OlsrConfig::rfc_default()),
            detector: detector(),
            mobility: MobilityModel::Stationary,
            mobility_tick: None,
            loss: 0.0,
            fading: None,
            expect_conviction: false,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// A copy with `nodes` nodes and a `window`, for smoke-size runs.
    #[cfg(test)]
    pub fn resized(mut self, nodes: usize, window: SimDuration) -> Self {
        self.nodes = nodes;
        self.window = window;
        self
    }

    /// The configured spoofers: node 3 of every block of 256 nodes.
    pub fn spoofers(&self) -> Vec<NodeId> {
        self.blocks().map(|base| NodeId((base + 3) as u32)).collect()
    }

    /// `(liar, accomplice)` pairs: nodes 10 and 17 of every block cover
    /// for that block's spoofer.
    pub fn liars(&self) -> Vec<(NodeId, NodeId)> {
        self.blocks()
            .flat_map(|base| {
                let spoofer = NodeId((base + 3) as u32);
                [10, 17].map(|off| (NodeId((base + off) as u32), spoofer))
            })
            .collect()
    }

    fn blocks(&self) -> impl Iterator<Item = usize> + '_ {
        let count = self.nodes.div_ceil(NODES_PER_SPOOFER);
        (0..count).map(|k| k * NODES_PER_SPOOFER).filter(|base| base + 17 < self.nodes)
    }

    /// The radio every node uses.
    pub fn radio(&self) -> RadioConfig {
        let radio = RadioConfig::unit_disk(RANGE_M);
        if self.loss > 0.0 {
            radio.with_loss(self.loss)
        } else {
            radio
        }
    }

    /// Places the nodes and builds the simulator seeded with `seed`, each
    /// node's application wrapped in the timing shim when `traced`.
    /// Placement and construction order follow `ScenarioBuilder::run`, so
    /// with `seed == PLACEMENT_SEED` the untraced simulator replays the
    /// run the builder makes.
    pub fn build(&self, seed: u64, traced: bool) -> Simulator {
        let arena = topologies::arena_for_mean_degree(self.nodes, RANGE_M, MEAN_DEGREE);
        let mut placement_rng = StdRng::seed_from_u64(PLACEMENT_SEED.wrapping_add(0x9E37));
        let positions = topologies::random_geometric(self.nodes, &arena, &mut placement_rng);
        let mut builder =
            SimulatorBuilder::new(seed).radio(self.radio()).arena(arena).expected_nodes(self.nodes);
        if let Some(tick) = self.mobility_tick {
            builder = builder.mobility_tick(tick);
        }
        if let Some(fading) = self.fading {
            builder = builder.channel_model(ChannelModel::new().with_fading(fading));
        }
        let mut sim = builder.build();
        let spoofers = self.spoofers();
        let liars = self.liars();
        for (i, pos) in positions.into_iter().enumerate() {
            let id = NodeId(i as u32);
            if let Some(k) = spoofers.iter().position(|&s| s == id) {
                let node =
                    DetectorNode::with_hooks(self.olsr.clone(), self.detector.clone(), spoofing(k));
                self.add(&mut sim, node, pos, traced);
            } else {
                let mut cfg = self.detector.clone();
                if let Some(&(_, accomplice)) = liars.iter().find(|(l, _)| *l == id) {
                    cfg.liar_policy = cover_for(accomplice);
                }
                self.add(&mut sim, DetectorNode::new(self.olsr.clone(), cfg), pos, traced);
            }
        }
        sim
    }

    fn add<A: Application>(
        &self,
        sim: &mut Simulator,
        app: A,
        pos: trustlink_sim::Position,
        traced: bool,
    ) {
        let app: Box<dyn Application> =
            if traced { Box::new(Timed::new(app)) } else { Box::new(app) };
        sim.add_mobile_node(app, pos, self.mobility.clone());
    }
}
