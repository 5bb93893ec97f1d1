//! The four workloads: traces generated in-process from the seed by the
//! program's own generators, and the engine configuration each runs.

use px_core::engine::{CoreEngine, EngineConfig, EngineMode};
use px_core::pipeline::{PipelineConfig, SystemVariant, TraceGen, WorkloadKind};
use px_core::{SplitEngine, SteerConfig};
use px_wire::ipv4::Ipv4Packet;
use px_wire::{FlowKey, IpProtocol, TcpSegment, UdpDatagram, JUMBO_MTU, LEGACY_MTU};
use px_workload::internet::{InternetConfig, InternetModel};

pub type Trace = Vec<(FlowKey, Vec<u8>)>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TcpBulk,
    InternetMix,
    UdpCaravan,
    TcpEgress,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "tcp_bulk" => Kind::TcpBulk,
            "internet_mix" => Kind::InternetMix,
            "udp_caravan" => Kind::UdpCaravan,
            "tcp_egress" => Kind::TcpEgress,
            _ => return None,
        })
    }
}

/// Known slowdowns reached through existing public settings, for the
/// sensitivity self-check. `None` in a normal run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Perturb {
    None,
    /// `EngineConfig::digests = true` in the timed engine passes.
    Digests,
    /// `SplitEngine::set_sg(false)`: flat-copy split emission.
    FlatSplit,
    /// `checksum::force_kernel(Some(Kernel::Scalar))`.
    ScalarChecksum,
    /// `PipelineConfig::steer = None`: every flow takes the merge path.
    NoSteer,
}

impl Perturb {
    const ALL: [(&'static str, Perturb); 5] = [
        ("none", Perturb::None),
        ("digests", Perturb::Digests),
        ("flat_split", Perturb::FlatSplit),
        ("scalar_checksum", Perturb::ScalarChecksum),
        ("no_steer", Perturb::NoSteer),
    ];

    pub fn parse(s: &str) -> Option<Perturb> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|&(_, p)| p)
    }

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, p)| *p == self)
            .map_or("none", |(n, _)| n)
    }
}

/// Packets per trace. Each trace is replayed whole in every pass; the
/// sizes keep one pass at tens of milliseconds and a trace plus its
/// per-pass copy under ~400 MB.
const TCP_BULK_PKTS: usize = 60_000;
const INTERNET_PKTS: usize = 120_000;
const CARAVAN_PKTS: usize = 400_000;
const EGRESS_JUMBOS: usize = 10_000;

/// Concurrent flows of the internet model's ring.
const INTERNET_FLOWS: usize = 100_000;
/// Datagram size on the wire for the caravan workload.
const CARAVAN_DGRAM: usize = 256;
/// Per-entry bound of a classifier slot, as the flow-scale harness sizes
/// its budget.
const STEER_ENTRY_BYTES: usize = 192;

/// An ingress workload: a trace replayed through `run_engine_on_trace`.
pub struct EngineWorkload {
    pub cfg: EngineConfig,
    pub trace: Trace,
    /// One engine of the traced replay's configuration, built at set-up
    /// and consumed by the first replay.
    pub engine: Option<CoreEngine>,
}

/// The egress workload: jumbos split to eMTU on one thread.
pub struct EgressWorkload {
    pub trace: Trace,
    pub split: SplitEngine,
}

// One value lives per run; boxing would only add a pointer hop.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Engine(EngineWorkload),
    Egress(EgressWorkload),
}

fn engine_config(pipe: PipelineConfig) -> EngineConfig {
    let mut cfg = EngineConfig::new(pipe, EngineMode::Parallel);
    cfg.digests = false;
    cfg
}

/// Generates the trace and builds the engines.
pub fn build(kind: Kind, seed: u64, perturb: Perturb) -> Workload {
    match kind {
        Kind::TcpBulk => {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1);
            pipe.seed = seed;
            pipe.trace_pkts = TCP_BULK_PKTS;
            let trace = TraceGen::new(pipe.workload, pipe.n_flows, pipe.emtu, pipe.mean_run, seed)
                .generate(pipe.trace_pkts);
            engine_workload(pipe, trace)
        }
        Kind::InternetMix => {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Tcp, 1);
            pipe.seed = seed;
            pipe.n_flows = INTERNET_FLOWS;
            pipe.trace_pkts = INTERNET_PKTS;
            pipe.offered_pps = 1e8;
            pipe.hold_ns = 20_000;
            pipe.pool_bufs = 1024;
            pipe.steer = (perturb != Perturb::NoSteer).then(|| SteerConfig {
                table_capacity: 2 * INTERNET_FLOWS,
                memory_budget: Some((2 * INTERNET_FLOWS * STEER_ENTRY_BYTES).max(32 << 20)),
                ..SteerConfig::default()
            });
            let trace = warm_model(seed).generate_trace(pipe.trace_pkts);
            engine_workload(pipe, trace)
        }
        Kind::UdpCaravan => {
            let mut pipe = PipelineConfig::fig5(SystemVariant::Px, WorkloadKind::Udp, 1);
            pipe.seed = seed;
            pipe.trace_pkts = CARAVAN_PKTS;
            let trace = TraceGen::new(
                pipe.workload,
                pipe.n_flows,
                CARAVAN_DGRAM,
                pipe.mean_run,
                seed,
            )
            .generate(pipe.trace_pkts);
            engine_workload(pipe, trace)
        }
        Kind::TcpEgress => {
            let trace =
                TraceGen::new(WorkloadKind::Tcp, 800, JUMBO_MTU, 24, seed).generate(EGRESS_JUMBOS);
            let mut split = SplitEngine::new(LEGACY_MTU);
            split.set_sg(perturb != Perturb::FlatSplit);
            Workload::Egress(EgressWorkload { trace, split })
        }
    }
}

/// The internet model after an untimed fill, as `bench::flow_scale`
/// fills it: churn off until every identity of the ring has emitted,
/// then churn on. The trace starts in the ring's steady state, not at
/// its cold start; the engine still starts empty each pass, so it sees
/// each flow's first packet of the trace within the pass.
fn warm_model(seed: u64) -> InternetModel {
    let mut model = InternetModel::new(InternetConfig::sized(INTERNET_FLOWS, seed));
    model.set_churn(false);
    while model.visited_flows() < INTERNET_FLOWS {
        model.next_pkt();
    }
    model.set_churn(true);
    model
}

fn engine_workload(pipe: PipelineConfig, trace: Trace) -> Workload {
    Workload::Engine(EngineWorkload {
        cfg: engine_config(pipe),
        engine: Some(CoreEngine::for_pipe(&pipe)),
        trace,
    })
}

/// Byte range of the L4 payload (after the TCP or UDP header) of a
/// well-formed IPv4 packet.
pub fn l4_payload(pkt: &[u8]) -> Option<std::ops::Range<usize>> {
    let ip = Ipv4Packet::new_checked(pkt).ok()?;
    let l4_at = ip.header_len();
    let end = ip.total_len();
    let hdr = match ip.protocol() {
        IpProtocol::Tcp => TcpSegment::new_checked(ip.payload()).ok()?.header_len(),
        IpProtocol::Udp => {
            UdpDatagram::new_checked(ip.payload()).ok()?;
            8
        }
        _ => return None,
    };
    Some(l4_at + hdr..end)
}
