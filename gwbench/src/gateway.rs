//! The ingress workloads: timed `run_engine_on_trace` passes, the
//! correctness gate, and the single-thread traced replay through the
//! same public layer calls the engine's worker makes.

use crate::clock::{Cost, Mark};
use crate::spans::{Tracer, ROOT};
use crate::workload::{l4_payload, EngineWorkload, Trace};
use px_core::caravan_gw::{CaravanConfig, CaravanEngine};
use px_core::engine::{run_engine_on_trace, CoreEngine, EngineMode, EngineReport};
use px_core::FlowClassifier;
use px_obs::ObsConfig;
use px_wire::batchparse::parse_batch_with;
use px_wire::checksum::ones_complement_sum;
use px_wire::ipv4::Ipv4Packet;
use px_wire::pool::PoolStats;
use px_wire::{FlowKey, PacketBuf, PacketSink, RssHasher, UdpDatagram};
use std::collections::BTreeMap;
use std::hint::black_box;

/// A batch of (arrival stamp, packet) pairs bound for one core.
type Batch = Vec<(u64, Vec<u8>)>;

/// Output totals every pass of a workload must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expect {
    pub pkts_out: u64,
    pub bytes_out: u64,
    pub conversion_yield: f64,
}

/// One timed `run_engine_on_trace` call.
pub struct EnginePass {
    pub cost: Cost,
    pub pkts_in: u64,
    pub bytes_in: u64,
    pub dropped: u64,
    pub out: Expect,
}

/// Input packets dropped under a counted reason.
fn dropped(r: &EngineReport) -> u64 {
    let t = &r.totals;
    t.dropped_malformed
        + t.backpressure_drops
        + t.dropped_inconsistent_overlap
        + t.dropped_overlap_evasion
}

fn expect_of(r: &EngineReport) -> Expect {
    Expect {
        pkts_out: r.totals.pkts_out,
        bytes_out: r.totals.bytes_out,
        conversion_yield: r.conversion_yield,
    }
}

/// Runs the whole trace through the Parallel engine once. The trace is
/// copied before the clock starts, because the engine consumes it.
pub fn engine_pass(w: &EngineWorkload, digests: bool) -> EnginePass {
    let mut cfg = w.cfg;
    cfg.digests = digests;
    let trace = w.trace.clone();
    let mark = Mark::now();
    let report = run_engine_on_trace(cfg, trace);
    let cost = mark.cost();
    EnginePass {
        cost,
        pkts_in: report.totals.pkts_in,
        bytes_in: report.totals.bytes_in,
        dropped: dropped(&report),
        out: expect_of(&report),
    }
}

/// The correctness gate, outside every timed region: one Deterministic
/// pass with digests on. Every flow's delivered payload must equal what
/// was offered (for caravans: the unbundled datagrams, byte for byte).
pub fn verify(w: &EngineWorkload) -> Result<Expect, String> {
    let caravan = matches!(w.engine, Some(CoreEngine::Caravan(_)));
    let mut cfg = w.cfg;
    cfg.mode = EngineMode::Deterministic;
    cfg.digests = true;
    cfg.capture_output = caravan;
    let report = run_engine_on_trace(cfg, w.trace.clone());
    if report.totals.pkts_in != w.trace.len() as u64 {
        return Err(format!(
            "engine took {} of {} packets",
            report.totals.pkts_in,
            w.trace.len()
        ));
    }
    if dropped(&report) != 0 {
        return Err(format!("{} packets dropped", dropped(&report)));
    }
    if caravan {
        check_unbundled(&w.trace, &report.captured_output, w.cfg.pipe.imtu)?;
    } else {
        let mut offered: BTreeMap<FlowKey, u64> = BTreeMap::new();
        for (key, pkt) in &w.trace {
            let range = l4_payload(pkt).ok_or("unparsable input packet")?;
            *offered.entry(*key).or_default() += range.len() as u64;
        }
        let delivered: BTreeMap<FlowKey, u64> = report
            .flow_digests
            .iter()
            .map(|(k, d)| (*k, d.bytes))
            .collect();
        if offered != delivered {
            let bad = offered
                .iter()
                .find(|(k, v)| delivered.get(k) != Some(v))
                .map(|(k, v)| format!("{k:?}: offered {v}, delivered {:?}", delivered.get(k)));
            return Err(format!(
                "per-flow payload bytes differ ({} offered flows, {} delivered): {}",
                offered.len(),
                delivered.len(),
                bad.unwrap_or_else(|| "extra delivered flow".into())
            ));
        }
    }
    Ok(expect_of(&report))
}

/// Unbundles every captured caravan through the outbound caravan engine
/// and checks that each flow's datagrams come back in order, byte for
/// byte. The IPv4 identification differs by design (the gateway restamps
/// it), so the UDP datagrams are compared.
fn check_unbundled(trace: &Trace, captured: &[Vec<u8>], imtu: usize) -> Result<(), String> {
    let udp_of = |pkt: &[u8]| -> Option<(FlowKey, std::ops::Range<usize>)> {
        let ip = Ipv4Packet::new_checked(pkt).ok()?;
        let udp = UdpDatagram::new_checked(ip.payload()).ok()?;
        let key = FlowKey::udp(ip.src(), udp.src_port(), ip.dst(), udp.dst_port());
        Some((key, ip.header_len()..ip.total_len()))
    };
    let mut expected: BTreeMap<FlowKey, Vec<usize>> = BTreeMap::new();
    for (i, (key, _)) in trace.iter().enumerate() {
        expected.entry(*key).or_default().push(i);
    }
    let mut cursor: BTreeMap<FlowKey, usize> = BTreeMap::new();
    let mut err: Option<String> = None;
    let mut unbundler = CaravanEngine::new(CaravanConfig {
        imtu,
        ..CaravanConfig::default()
    });
    for pkt in captured {
        unbundler.push_outbound_into(pkt, &mut |buf: PacketBuf| {
            if err.is_some() {
                return Some(buf);
            }
            let got = buf.as_slice();
            let Some((key, range)) = udp_of(got) else {
                err = Some("unparsable unbundled datagram".into());
                return Some(buf);
            };
            let at = cursor.entry(key).or_default();
            let want = expected
                .get(&key)
                .and_then(|v| v.get(*at))
                .map(|&i| &trace[i].1);
            match want.and_then(|w| udp_of(w).map(|(_, r)| &w[r])) {
                Some(w) if w == &got[range] => *at += 1,
                _ => err = Some(format!("datagram {} of flow {key:?} differs", *at)),
            }
            Some(buf)
        });
    }
    if let Some(e) = err {
        return Err(e);
    }
    for (key, idx) in &expected {
        let got = cursor.get(key).copied().unwrap_or(0);
        if got != idx.len() {
            return Err(format!(
                "flow {key:?}: {got} of {} datagrams delivered",
                idx.len()
            ));
        }
    }
    Ok(())
}

/// The replay's sink: counts what the engine emits, as the worker's
/// accountant does with digests off, and hands every buffer back.
struct CountSink {
    pkts: u64,
    bytes: u64,
    inband_pkts: u64,
    inband_jumbo: u64,
    jumbo_at: usize,
    inband: bool,
}

impl CountSink {
    fn new(jumbo_at: usize) -> Self {
        CountSink {
            pkts: 0,
            bytes: 0,
            inband_pkts: 0,
            inband_jumbo: 0,
            jumbo_at,
            inband: true,
        }
    }
}

impl PacketSink for CountSink {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        let len = buf.len();
        self.pkts += 1;
        self.bytes += len as u64;
        if self.inband {
            self.inband_pkts += 1;
            self.inband_jumbo += u64::from(len >= self.jumbo_at);
        }
        Some(buf)
    }
}

/// What one traced replay pass observed, besides its spans.
pub struct Replay {
    pub out: Expect,
    pub dropped: u64,
    /// `(flows_live, evicted_idle, evicted_pressure, steered_mice_pkts)`
    /// at the end of the trace, before the drain.
    pub flows: (u64, u64, u64, u64),
    pub arena_bytes: usize,
    /// Arena plus pool bytes held after the drain.
    pub state_bytes: usize,
    /// Pool buffers allocated during the second half of the trace.
    pub pool_allocs_warm: u64,
    pub warm_pkts: u64,
    /// Merge engine counters: (flush_timeout, all flushes, passthrough).
    pub merge_flushes: (u64, u64, u64),
    /// Caravan engine counters: (datagrams bundled, caravans emitted).
    pub bundles: (u64, u64),
}

fn pool_stats(engine: &CoreEngine) -> PoolStats {
    match engine {
        CoreEngine::Merge(m) => m.pool_stats(),
        CoreEngine::Caravan(c) => c.pool_stats(),
        CoreEngine::Baseline(_) => PoolStats::default(),
    }
}

/// Bytes of pool buffers the engine still holds (allocated and not
/// released to the allocator), each sized for one iMTU packet plus
/// headroom.
fn pool_bytes(engine: &CoreEngine, imtu: usize) -> usize {
    let s = pool_stats(engine);
    (s.allocated - s.dropped) as usize * (px_wire::buffer::DEFAULT_HEADROOM + imtu)
}

/// Replays the trace on this thread through the layer calls the
/// engine's worker makes — RSS sharding and batch formation, batch
/// parse, the engine push, the drain — timing each call into `tr`.
/// `engine` is a fresh engine of the workload's configuration.
pub fn traced_replay(
    w: &EngineWorkload,
    mut engine: CoreEngine,
    obs: ObsConfig,
    tr: &mut Tracer,
) -> Replay {
    let pipe = w.cfg.pipe;
    if obs.enabled {
        engine.enable_obs(obs);
    }
    engine.set_span_link_base(1 << 48);
    let merge_path = matches!(engine, CoreEngine::Merge(_));
    let layer = if merge_path { "merge" } else { "caravan" };
    let trace = w.trace.clone();
    let n = trace.len() as u64;

    let s = tr.open("rss", ROOT);
    let rss = RssHasher::symmetric();
    let inter_arrival_ns = 1e9 / pipe.offered_pps;
    let batch_pkts = w.cfg.batch_pkts;
    let mut per_core: Vec<Vec<Batch>> = vec![Vec::new(); pipe.cores];
    let mut open: Vec<Batch> = vec![Vec::with_capacity(batch_pkts); pipe.cores];
    for (i, (key, pkt)) in trace.into_iter().enumerate() {
        let core = rss.queue_for(&key, pipe.cores);
        open[core].push(((i as f64 * inter_arrival_ns) as u64, pkt));
        if open[core].len() >= batch_pkts {
            let full = std::mem::replace(&mut open[core], Vec::with_capacity(batch_pkts));
            per_core[core].push(full);
        }
    }
    for (core, tail) in open.into_iter().enumerate() {
        if !tail.is_empty() {
            per_core[core].push(tail);
        }
    }
    tr.close(s);

    // An output packet reached iMTU when one more eMTU payload would
    // not fit, the rule the engine's own accounting uses.
    let mut sink = CountSink::new(pipe.imtu - (pipe.emtu - 40) + 1);
    let mut scratch = Vec::new();
    let mut seen = 0u64;
    let mut pool_at_half = None;
    for batch in per_core.into_iter().flatten() {
        if pool_at_half.is_none() && seen >= n / 2 {
            pool_at_half = Some((pool_stats(&engine).allocated, seen));
        }
        seen += batch.len() as u64;
        let b = tr.open("batch", ROOT);
        if merge_path {
            let p = tr.open("parse", b);
            parse_batch_with(&batch, |(_, p)| p.as_slice(), &mut scratch);
            tr.close(p);
        }
        let m = tr.open(layer, b);
        for (i, (now, pkt)) in batch.into_iter().enumerate() {
            match scratch.get(i) {
                Some(meta) if merge_path => engine.push_parsed_into(now, pkt, meta, &mut sink),
                _ => engine.push_into(now, pkt, &mut sink),
            }
        }
        tr.close(m);
        tr.close(b);
    }
    let flows = engine.flow_stats();
    let arena_bytes = engine.arena_bytes();
    let (half_allocs, half_pkts) = pool_at_half.unwrap_or((0, 0));
    let pool_allocs_warm = pool_stats(&engine).allocated - half_allocs;

    sink.inband = false;
    let d = tr.open("drain", ROOT);
    engine.idle_tick_into(&mut sink);
    engine.finish_into(&mut sink);
    tr.close(d);

    let (merge_flushes, bundles) = match &engine {
        CoreEngine::Merge(m) => {
            let s = &m.stats;
            let flushes = s.flush_full + s.flush_timeout + s.flush_order + s.flush_evict;
            ((s.flush_timeout, flushes, s.passthrough), (0, 0))
        }
        CoreEngine::Caravan(c) => ((0, 0, 0), (c.stats.bundled, c.stats.caravans_out)),
        CoreEngine::Baseline(_) => ((0, 0, 0), (0, 0)),
    };
    let (_, _, backpressure) = engine.degrade_stats();
    let (inconsistent, evasion) = engine.security_drops();
    Replay {
        out: Expect {
            pkts_out: sink.pkts,
            bytes_out: sink.bytes,
            conversion_yield: if sink.inband_pkts == 0 {
                0.0
            } else {
                sink.inband_jumbo as f64 / sink.inband_pkts as f64
            },
        },
        dropped: engine.dropped_malformed() + backpressure + inconsistent + evasion,
        flows,
        arena_bytes,
        state_bytes: arena_bytes + pool_bytes(&engine, pipe.imtu),
        pool_allocs_warm,
        warm_pkts: n - half_pkts,
        merge_flushes,
        bundles,
    }
}

/// Replays the trace's `(arrival, key)` stream through a standalone
/// classifier of the workload's steering configuration, one span per
/// batch. `None` when steering is off.
pub fn steer_replay(w: &EngineWorkload, tr: &mut Tracer) -> Option<u64> {
    let cfg = w.cfg.pipe.steer?;
    let mut classifier = FlowClassifier::new(cfg);
    let inter_arrival_ns = 1e9 / w.cfg.pipe.offered_pps;
    for (b, chunk) in w.trace.chunks(w.cfg.batch_pkts).enumerate() {
        let base = b * w.cfg.batch_pkts;
        let s = tr.open("steer", ROOT);
        for (j, (key, _)) in chunk.iter().enumerate() {
            let now = ((base + j) as f64 * inter_arrival_ns) as u64;
            black_box(classifier.classify(now, key));
        }
        tr.close(s);
    }
    Some(classifier.mouse_pkts)
}

/// Sums every packet's L4 payload with the active checksum kernel, one
/// span per batch. Each batch is summed once untimed first, so the span
/// times the kernel on cache-resident data (a batch of payloads fits in
/// L2), not the memory system. Returns the bytes summed in spans.
pub fn checksum_replay(
    trace: &Trace,
    ranges: &[std::ops::Range<usize>],
    batch: usize,
    tr: &mut Tracer,
) -> u64 {
    let sum_batch = |pkts: &[(FlowKey, Vec<u8>)], rs: &[std::ops::Range<usize>]| {
        for ((_, pkt), r) in pkts.iter().zip(rs) {
            black_box(ones_complement_sum(black_box(&pkt[r.clone()])));
        }
    };
    let mut bytes = 0u64;
    for (pkts, rs) in trace.chunks(batch).zip(ranges.chunks(batch)) {
        sum_batch(pkts, rs);
        let s = tr.open("checksum", ROOT);
        sum_batch(pkts, rs);
        tr.close(s);
        bytes += rs.iter().map(|r| r.len() as u64).sum::<u64>();
    }
    bytes
}

/// Cost of the replay sink per delivered packet: hands one output-sized
/// buffer to a fresh sink `n` times.
pub fn sink_ns_per_pkt(out_len: usize, n: u64) -> f64 {
    let mut sink = CountSink::new(out_len);
    let mut buf = Some(PacketBuf::with_capacity(
        px_wire::buffer::DEFAULT_HEADROOM,
        out_len.max(1),
    ));
    if let Some(b) = buf.as_mut() {
        b.extend_from_slice(&vec![0u8; out_len]);
    }
    let t0 = crate::clock::now_ns();
    for _ in 0..n {
        buf = sink.accept(black_box(
            buf.take().expect("the sink returns every buffer"),
        ));
    }
    let dt = crate::clock::now_ns() - t0;
    black_box(sink.bytes);
    dt as f64 / n as f64
}
