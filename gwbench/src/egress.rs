//! The egress workload: jumbo TCP segments split to eMTU by
//! `SplitEngine::push_into` on one thread, each emitted packet copied
//! into one reused transmit buffer as a tun/tap write would.

use crate::clock::{Cost, Mark};
use crate::spans::{Tracer, ROOT};
use crate::workload::EgressWorkload;
use px_wire::ipv4::Ipv4Packet;
use px_wire::{FlowKey, PacketBuf, PacketSink, SgPacket, TcpSegment, LEGACY_MTU};
use std::collections::BTreeMap;

/// Per-flow payload length and FNV-1a hash, in stream order.
type PayloadDigest = BTreeMap<FlowKey, (u64, u64)>;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The transmit sink. With `check` set it also validates every packet
/// and digests its payload; the timed passes run with it unset.
struct TxSink {
    tx: Vec<u8>,
    pkts: u64,
    bytes: u64,
    full: u64,
    check: Option<(PayloadDigest, Option<String>)>,
}

impl TxSink {
    fn new(check: bool) -> Self {
        TxSink {
            tx: Vec::with_capacity(px_wire::JUMBO_MTU),
            pkts: 0,
            bytes: 0,
            full: 0,
            check: check.then(|| (BTreeMap::new(), None)),
        }
    }

    fn sent(&mut self) {
        let len = self.tx.len();
        self.pkts += 1;
        self.bytes += len as u64;
        self.full += u64::from(len == LEGACY_MTU);
        if let Some((digest, err)) = self.check.as_mut() {
            if err.is_none() {
                if let Err(e) = check_packet(&self.tx, digest) {
                    *err = Some(e);
                }
            }
        }
    }
}

fn check_packet(pkt: &[u8], digest: &mut PayloadDigest) -> Result<(), String> {
    if pkt.len() > LEGACY_MTU {
        return Err(format!("{} B output exceeds the eMTU", pkt.len()));
    }
    let ip = Ipv4Packet::new_checked(pkt).map_err(|e| format!("bad IPv4: {e:?}"))?;
    if !ip.verify_checksum() {
        return Err("bad IPv4 header checksum".into());
    }
    let tcp = TcpSegment::new_checked(ip.payload()).map_err(|e| format!("bad TCP: {e:?}"))?;
    if !tcp.verify_checksum(ip.src(), ip.dst()) {
        return Err("bad TCP checksum".into());
    }
    let key = FlowKey::tcp(ip.src(), tcp.src_port(), ip.dst(), tcp.dst_port());
    let d = digest.entry(key).or_insert((0, FNV_OFFSET));
    d.0 += tcp.payload().len() as u64;
    d.1 = fnv(d.1, tcp.payload());
    Ok(())
}

impl PacketSink for TxSink {
    fn accept(&mut self, buf: PacketBuf) -> Option<PacketBuf> {
        self.tx.clear();
        self.tx.extend_from_slice(buf.as_slice());
        self.sent();
        Some(buf)
    }

    fn push_sg(&mut self, mut pkt: SgPacket<'_>) -> Option<PacketBuf> {
        let header = pkt.take_header();
        self.tx.clear();
        self.tx.extend_from_slice(header.as_slice());
        self.tx.extend_from_slice(pkt.payload());
        self.sent();
        Some(header)
    }
}

/// Output totals of one pass over the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitOut {
    pub pkts: u64,
    pub bytes: u64,
    pub full: u64,
}

pub struct SplitPass {
    pub cost: Cost,
    pub out: SplitOut,
    pub dropped: u64,
}

fn dropped(w: &EgressWorkload) -> u64 {
    w.split.stats.dropped_df + w.split.stats.dropped_malformed
}

fn out_of(sink: &TxSink) -> SplitOut {
    SplitOut {
        pkts: sink.pkts,
        bytes: sink.bytes,
        full: sink.full,
    }
}

/// One timed pass: every jumbo through `push_into`.
pub fn split_pass(w: &mut EgressWorkload) -> SplitPass {
    let mut sink = TxSink::new(false);
    let before = dropped(w);
    let mark = Mark::now();
    for (_, pkt) in &w.trace {
        w.split.push_into(pkt, &mut sink);
    }
    let cost = mark.cost();
    SplitPass {
        cost,
        out: out_of(&sink),
        dropped: dropped(w) - before,
    }
}

/// One traced pass: a span around every `push_into` call.
pub fn traced_pass(w: &mut EgressWorkload, tr: &mut Tracer) -> SplitOut {
    let mut sink = TxSink::new(false);
    for (_, pkt) in &w.trace {
        let s = tr.open("split", ROOT);
        w.split.push_into(pkt, &mut sink);
        tr.close(s);
    }
    out_of(&sink)
}

/// The correctness gate: every output fits the eMTU and carries valid
/// IPv4 and TCP checksums, and each flow's payload comes out whole and
/// in order.
pub fn verify(w: &mut EgressWorkload) -> Result<SplitOut, String> {
    let mut offered = PayloadDigest::new();
    for (key, pkt) in &w.trace {
        let ip = Ipv4Packet::new_checked(&pkt[..]).map_err(|e| format!("bad input: {e:?}"))?;
        let tcp = TcpSegment::new_checked(ip.payload()).map_err(|e| format!("bad input: {e:?}"))?;
        let d = offered.entry(*key).or_insert((0, FNV_OFFSET));
        d.0 += tcp.payload().len() as u64;
        d.1 = fnv(d.1, tcp.payload());
    }
    let mut sink = TxSink::new(true);
    let before = dropped(w);
    for (_, pkt) in &w.trace {
        w.split.push_into(pkt, &mut sink);
    }
    if dropped(w) != before {
        return Err(format!("{} jumbos dropped", dropped(w) - before));
    }
    let out = out_of(&sink);
    let (delivered, err) = sink
        .check
        .take()
        .expect("the checking sink keeps its digest");
    if let Some(e) = err {
        return Err(e);
    }
    if delivered != offered {
        return Err(format!(
            "per-flow payload differs ({} offered flows, {} delivered)",
            offered.len(),
            delivered.len()
        ));
    }
    Ok(out)
}

/// Cost of the transmit sink per packet: copies one full-eMTU packet
/// through it `n` times.
pub fn sink_ns_per_pkt(n: u64) -> f64 {
    let mut sink = TxSink::new(false);
    let payload = vec![0u8; LEGACY_MTU - 40];
    let mut header = Some(PacketBuf::with_capacity(
        px_wire::buffer::DEFAULT_HEADROOM,
        64,
    ));
    if let Some(h) = header.as_mut() {
        h.extend_from_slice(&[0u8; 40]);
    }
    let t0 = crate::clock::now_ns();
    for _ in 0..n {
        let h = header.take().expect("the sink returns every header");
        header = sink.push_sg(SgPacket::untracked(h, std::hint::black_box(&payload)));
    }
    let dt = crate::clock::now_ns() - t0;
    std::hint::black_box(sink.bytes);
    dt as f64 / n as f64
}
