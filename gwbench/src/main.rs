//! The PXGW gateway benchmark.
//!
//! Runs one workload through the gateway's public entry points for a
//! fixed time and prints, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, timed with tracing
//! off; with `--trace 1` they are the per-layer ones, from a single-thread
//! replay that times every layer call (see `README.md`).
//!
//! Usage: `gwbench --workload <tcp_bulk|internet_mix|udp_caravan|tcp_egress>
//! --seed <n> --seconds <s> --trace <0|1> [--perturb <name>] [--out <dir>]`

mod clock;
mod egress;
mod gateway;
mod spans;
mod stats;
mod workload;

use clock::now_ns;
use px_core::engine::CoreEngine;
use px_obs::ObsConfig;
use px_wire::checksum::{active_kernel, force_kernel, Kernel};
use spans::{Ledger, Tracer, ROOT};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use workload::{EgressWorkload, EngineWorkload, Kind, Perturb, Workload};

#[global_allocator]
static ALLOC: clock::CountingAlloc = clock::CountingAlloc;

/// Share of an untraced run's time spent repeating the set-up.
const SETUP_SHARE: f64 = 0.2;
/// Set-ups an untraced run makes at least.
const MIN_SETUPS: usize = 5;
/// Passes a run makes even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;
const MIB: f64 = (1 << 20) as f64;
/// The quantile of per-pass cost, and of set-up time, that the
/// end-to-end time metrics report.
const FAST_QUANTILE: f64 = 0.1;

const USAGE: &str = "usage: gwbench --workload <tcp_bulk|internet_mix|udp_caravan|tcp_egress> \
--seed <n> --seconds <s> --trace <0|1> [--perturb <none|digests|flat_split|scalar_checksum|no_steer>] [--out <dir>]";

struct Args {
    name: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    perturb: Perturb,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut perturb, mut out) = (Perturb::None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--perturb" => {
                perturb = Perturb::parse(&val).ok_or(format!("unknown perturbation {val}"))?
            }
            "--out" => out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        name,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        perturb,
        out,
    })
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed check; the run goes on so every metric is still
    /// reported, but `correct` is false.
    fn fail(&mut self, what: String) {
        eprintln!("gwbench: CHECK FAILED: {what}");
        self.correct = false;
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every per-layer metric with its unit, in the order printed (the
/// `per_layer` list of BENCHMARK.json). A layer that a workload does not
/// run reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.self_ns_per_pkt", "ns/pkt"),
    ("engine.busy_cpus", "cpus"),
    ("engine.allocs_per_pkt", "allocs/pkt"),
    ("rss.ns_per_pkt", "ns/pkt"),
    ("parse.ns_per_pkt", "ns/pkt"),
    ("merge.ns_per_pkt", "ns/pkt"),
    ("merge.batch_us_p50", "us/batch"),
    ("merge.batch_us_p99", "us/batch"),
    ("merge.flush_timeout_frac", "ratio"),
    ("merge.passthrough_frac", "ratio"),
    ("drain.ms", "ms/pass"),
    ("caravan.ns_per_pkt", "ns/pkt"),
    ("caravan.batch_us_p50", "us/batch"),
    ("caravan.batch_us_p99", "us/batch"),
    ("caravan.dgrams_per_bundle", "dgrams/bundle"),
    ("steer.ns_per_pkt", "ns/pkt"),
    ("steer.mice_frac", "ratio"),
    ("flowtable.flows_live", "flows"),
    ("flowtable.evicted_idle", "flows"),
    ("flowtable.evicted_pressure", "flows"),
    ("flowtable.arena_mib", "MiB"),
    ("split.ns_per_jumbo", "ns/jumbo"),
    ("split.ns_per_out_pkt", "ns/pkt"),
    ("split.call_us_p99", "us/call"),
    ("checksum.gbps", "Gbit/s"),
    ("pool.allocated_per_kpkt", "allocs/kpkt"),
    ("obs.overhead_frac", "ratio"),
    ("sink.ns_per_pkt", "ns/pkt"),
    ("trace.ns_per_span", "ns/span"),
];

/// One sample per traced round for each per-layer metric.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.entry(name).or_default().push(v);
    }

    /// Every per-layer metric as the median over rounds.
    fn report(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).map_or(0.0, |vs| median(vs)), unit);
        }
    }
}

/// `fwd_gbps` and `cpu_ns_per_pkt` from the timed passes, each at the
/// first decile of per-pass cost. Other tenants of the shared host steal
/// and slow the vCPUs for seconds at a time; that only ever adds time, so
/// the fast tail of a run moves far less from run to run than its median.
fn report_speed(out: &mut Outcome, costs: &[clock::Cost], bytes_per_pass: u64, pkts_per_pass: u64) {
    let walls: Vec<f64> = costs.iter().map(|c| c.wall_ns as f64).collect();
    let cpus: Vec<f64> = costs.iter().map(|c| c.cpu_ns as f64).collect();
    out.metric(
        "fwd_gbps",
        bytes_per_pass as f64 * 8.0 / quantile(&walls, FAST_QUANTILE),
        "Gbit/s",
    );
    out.metric(
        "cpu_ns_per_pkt",
        quantile(&cpus, FAST_QUANTILE) / pkts_per_pass as f64,
        "ns/pkt",
    );
}

/// Cost of recording one empty span: two clock reads and a push.
fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut tr = Tracer::with_capacity(N);
    let t0 = now_ns();
    for _ in 0..N {
        let s = tr.open("empty", ROOT);
        tr.close(s);
    }
    (now_ns() - t0) as f64 / N as f64
}

/// Byte ranges of every packet's L4 payload, for the checksum replay.
fn payload_ranges(trace: &workload::Trace) -> Vec<std::ops::Range<usize>> {
    trace
        .iter()
        .filter_map(|(_, p)| workload::l4_payload(p))
        .collect()
}

/// Writes a traced run's layer ledger and the span dump of its last pass
/// to the `--out` directory.
fn write_trace(
    args: &Args,
    threads: &str,
    ledger: &Ledger,
    untraced_ns_per_pkt: f64,
    last: Option<(Tracer, usize)>,
) {
    let Some(dir) = &args.out else { return };
    let head = format!(
        "\"workload\":\"{}\",\"seed\":{},\"perturb\":\"{}\",\"checksum_kernel\":\"{}\",\"worker_cores\":{},\"busy_threads\":\"{threads}\",\"replay\":\"in-process replay, no link crossed\"",
        args.name,
        args.seed,
        args.perturb.name(),
        active_kernel().name(),
        u8::from(args.kind != Kind::TcpEgress),
    );
    let mut files = vec![("ledger", ledger.to_json(&head, untraced_ns_per_pkt))];
    if let Some((tr, pass)) = last {
        files.push(("spans", tr.dump_json(&args.name, pass as u32)));
    }
    for (kind, body) in files {
        let path = dir.join(format!("{}-seed{}-{kind}.json", args.name, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
            eprintln!("gwbench: cannot write {}: {e}", path.display());
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("gwbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.perturb == Perturb::ScalarChecksum {
        force_kernel(Some(Kernel::Scalar));
    }

    let mut setups = Setups {
        args: &args,
        ns: Vec::new(),
        spare: None,
    };
    let built = setups.time();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    match built {
        Workload::Engine(w) => run_engine(w, &args, &mut setups, &mut out),
        Workload::Egress(w) => run_egress(w, &args, &mut setups, &mut out),
    }
    if !args.trace {
        while setups.ns.len() < MIN_SETUPS {
            setups.spare = Some(setups.time());
        }
        eprintln!("gwbench: {} set-ups", setups.ns.len());
        out.metric("setup_s", quantile(&setups.ns, FAST_QUANTILE) / 1e9, "s");
    }
    println!("{}", out.to_json());
}

/// The set-ups of a run and their times. The first builds the workload
/// the run measures. An untraced run repeats the set-up between timed
/// passes, spending `SETUP_SHARE` of its time on them, so that `setup_s`
/// comes from many set-ups spread over the run, like the speed metrics
/// from many passes.
struct Setups<'a> {
    args: &'a Args,
    ns: Vec<f64>,
    /// The last repeated set-up, dropped only after the next one is
    /// built, so that each set-up after the first few runs on an
    /// allocator that already holds the memory it needs.
    spare: Option<Workload>,
}

impl Setups<'_> {
    /// Generates the trace and builds the engines, timed.
    fn time(&mut self) -> Workload {
        let t0 = now_ns();
        let w = workload::build(self.args.kind, self.args.seed, self.args.perturb);
        self.ns.push((now_ns() - t0) as f64);
        w
    }

    /// Repeats the set-up if it has had less than its share of the
    /// `since_ns` the run has spent since the timed passes began.
    fn between_passes(&mut self, since_ns: u64) {
        let spent: f64 = self.ns.iter().sum();
        if !self.args.trace && spent < SETUP_SHARE * since_ns as f64 {
            self.spare = Some(self.time());
        }
    }
}

/// One timed pass, as the shared pass loop sees it.
struct Pass<O> {
    cost: clock::Cost,
    pkts_in: u64,
    dropped: u64,
    out: O,
}

/// What a traced run gathers over its rounds.
#[derive(Default)]
struct Traced {
    samples: Samples,
    ledger: Ledger,
    /// The tracer of the last round, with its pass number.
    last: Option<(Tracer, usize)>,
}

/// The pass loop every workload shares. `pass(i, out)` makes timed pass
/// `i` and, in a traced run, that round's traced work. The loop runs
/// until `--seconds` have passed (at least `MIN_PASSES` times), counts
/// input packets and drops, repeats the set-up when one is due, and checks each pass's output against the
/// verified one. Returns the timed passes' costs.
fn pass_loop<O: PartialEq + std::fmt::Debug>(
    args: &Args,
    setups: &mut Setups,
    out: &mut Outcome,
    expect: Option<&O>,
    mut pass: impl FnMut(usize, &mut Outcome) -> Pass<O>,
) -> Vec<clock::Cost> {
    let start = now_ns();
    let deadline = start + (args.seconds * 1e9) as u64;
    let mut costs = Vec::new();
    while costs.len() < MIN_PASSES || now_ns() < deadline {
        let i = costs.len() + 1;
        let p = pass(i, out);
        out.attempted += p.pkts_in;
        out.failed += p.dropped;
        if expect.is_some_and(|e| *e != p.out) {
            out.fail(format!(
                "pass {i}: output {:?} differs from the verified {expect:?}",
                p.out
            ));
        }
        costs.push(p.cost);
        setups.between_passes(now_ns() - start);
    }
    eprintln!(
        "gwbench: {} {} passes in {:.1} s",
        args.name,
        costs.len(),
        (now_ns() - start) as f64 / 1e9
    );
    costs
}

/// The metrics every workload reports the same way: with `--trace 0`
/// the speed of the timed passes and the delivered share, with
/// `--trace 1` the per-layer samples, written out with the ledger and
/// span dump.
fn report_common(
    args: &Args,
    out: &mut Outcome,
    costs: &[clock::Cost],
    pkts_per_pass: u64,
    bytes_per_pass: u64,
    traced: Traced,
    threads: &str,
) {
    if args.trace {
        traced.samples.report(out);
        let walls: Vec<f64> = costs.iter().map(|c| c.wall_ns as f64).collect();
        write_trace(
            args,
            threads,
            &traced.ledger,
            median(&walls) / pkts_per_pass as f64,
            traced.last,
        );
    } else {
        report_speed(out, costs, bytes_per_pass, pkts_per_pass);
        out.metric(
            "delivered_frac",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
    }
}

fn run_engine(mut w: EngineWorkload, args: &Args, setups: &mut Setups, out: &mut Outcome) {
    let expect = gateway::verify(&w)
        .map_err(|e| out.fail(format!("{}: {e}", args.name)))
        .ok();
    let n = w.trace.len() as u64;
    let in_bytes: u64 = w.trace.iter().map(|(_, p)| p.len() as u64).sum();
    let pipe = w.cfg.pipe;
    let mut first_engine = w.engine.take();
    let mut traced = Traced::default();
    let ranges = payload_ranges(&w.trace);
    let costs = pass_loop(args, setups, out, expect.as_ref(), |i, out| {
        let p = gateway::engine_pass(&w, args.perturb == Perturb::Digests && !args.trace);
        if p.pkts_in != n || p.bytes_in != in_bytes {
            out.fail(format!(
                "pass {i}: engine took {} of {n} packets, {} of {in_bytes} bytes",
                p.pkts_in, p.bytes_in
            ));
        }
        let pass = Pass {
            cost: p.cost,
            pkts_in: p.pkts_in,
            dropped: p.dropped,
            out: p.out,
        };
        if args.trace {
            let engine = first_engine
                .take()
                .unwrap_or_else(|| CoreEngine::for_pipe(&pipe));
            engine_round(&w, engine, &ranges, &pass, expect, i, out, &mut traced);
        }
        pass
    });
    let threads = "dispatcher + 1 worker (Parallel), replay on 1 thread";
    report_common(args, out, &costs, n, in_bytes, traced, threads);
    if args.trace {
        return;
    }
    // Deterministic outputs: the verified yield and the state the engine
    // holds after a replay of the trace.
    let replay =
        first_engine.map(|e| gateway::traced_replay(&w, e, w.cfg.obs, &mut Tracer::default()));
    if let (Some(r), Some(e)) = (&replay, expect) {
        if r.out != e {
            out.fail(format!(
                "state replay output {:?} differs from the verified {e:?}",
                r.out
            ));
        }
    }
    out.metric(
        "conversion_yield",
        expect.map_or(0.0, |e| e.conversion_yield),
        "ratio",
    );
    out.metric(
        "state_mib",
        replay.map_or(0.0, |r| r.state_bytes as f64 / MIB),
        "MiB",
    );
}

/// One traced round of an engine workload: a traced replay with the
/// run's observability, the same with observability off, and the
/// standalone steer and checksum replays, interleaved with the untraced
/// pass `p`.
#[allow(clippy::too_many_arguments)]
fn engine_round(
    w: &EngineWorkload,
    engine: CoreEngine,
    ranges: &[std::ops::Range<usize>],
    p: &Pass<gateway::Expect>,
    expect: Option<gateway::Expect>,
    i: usize,
    out: &mut Outcome,
    traced: &mut Traced,
) {
    let n = w.trace.len() as u64;
    let mut tr = Tracer::with_capacity(4 * n as usize / w.cfg.batch_pkts + 8);
    let rep = gateway::traced_replay(w, engine, w.cfg.obs, &mut tr);
    let mut tr_off = Tracer::with_capacity(tr.spans.len());
    let rep_off = gateway::traced_replay(
        w,
        CoreEngine::for_pipe(&w.cfg.pipe),
        ObsConfig::disabled(),
        &mut tr_off,
    );
    for (label, r) in [("replay", &rep), ("obs-off replay", &rep_off)] {
        if expect.is_some_and(|e| e != r.out) || r.dropped != 0 {
            out.fail(format!(
                "{label} {i}: output {:?} differs from the verified {expect:?}",
                r.out
            ));
        }
    }
    let mut tr_steer = Tracer::default();
    let steer_mice = gateway::steer_replay(w, &mut tr_steer);
    let mut tr_sum = Tracer::default();
    let sum_bytes = gateway::checksum_replay(&w.trace, ranges, w.cfg.batch_pkts, &mut tr_sum);
    traced.ledger.add_pass(&tr, n);
    traced.ledger.add_standalone(&tr_steer);
    traced.ledger.add_standalone(&tr_sum);

    let samples = &mut traced.samples;
    let by = tr.self_by_name();
    let layer = |name: &str| by.get(name).copied().unwrap_or(0) as f64;
    let per_pkt = |name: &str| layer(name) / n as f64;
    let layer_sum: f64 = by.values().sum::<u64>() as f64 / n as f64;
    let engine_layer = if by.contains_key("caravan") {
        "caravan"
    } else {
        "merge"
    };
    let off = tr_off
        .self_by_name()
        .get(engine_layer)
        .copied()
        .unwrap_or(0) as f64;

    samples.push(
        "engine.self_ns_per_pkt",
        p.cost.wall_ns as f64 / n as f64 - layer_sum,
    );
    samples.push(
        "engine.busy_cpus",
        p.cost.cpu_ns as f64 / p.cost.wall_ns as f64,
    );
    samples.push("engine.allocs_per_pkt", p.cost.allocs as f64 / n as f64);
    samples.push("rss.ns_per_pkt", per_pkt("rss"));
    samples.push("parse.ns_per_pkt", per_pkt("parse"));
    let merge_batches = tr.durations_us("merge");
    let (timeouts, flushes, passthrough) = rep.merge_flushes;
    samples.push("merge.ns_per_pkt", per_pkt("merge"));
    samples.push("merge.batch_us_p50", quantile(&merge_batches, 0.5));
    samples.push("merge.batch_us_p99", quantile(&merge_batches, 0.99));
    samples.push(
        "merge.flush_timeout_frac",
        timeouts as f64 / flushes.max(1) as f64,
    );
    samples.push("merge.passthrough_frac", passthrough as f64 / n as f64);
    samples.push("drain.ms", layer("drain") / 1e6);
    let caravan_batches = tr.durations_us("caravan");
    samples.push("caravan.ns_per_pkt", per_pkt("caravan"));
    samples.push("caravan.batch_us_p50", quantile(&caravan_batches, 0.5));
    samples.push("caravan.batch_us_p99", quantile(&caravan_batches, 0.99));
    let (bundled, caravans) = rep.bundles;
    samples.push(
        "caravan.dgrams_per_bundle",
        bundled as f64 / caravans.max(1) as f64,
    );
    let steer_ns: u64 = tr_steer.self_by_name().values().sum();
    samples.push("steer.ns_per_pkt", steer_ns as f64 / n as f64);
    samples.push("steer.mice_frac", rep.flows.3 as f64 / n as f64);
    if let Some(mice) = steer_mice {
        if mice != rep.flows.3 {
            out.fail(format!(
                "standalone classifier saw {mice} mice, the engine {}",
                rep.flows.3
            ));
        }
    }
    samples.push("flowtable.flows_live", rep.flows.0 as f64);
    samples.push("flowtable.evicted_idle", rep.flows.1 as f64);
    samples.push("flowtable.evicted_pressure", rep.flows.2 as f64);
    samples.push("flowtable.arena_mib", rep.arena_bytes as f64 / MIB);
    let sum_ns: u64 = tr_sum.self_by_name().values().sum();
    samples.push(
        "checksum.gbps",
        sum_bytes as f64 * 8.0 / sum_ns.max(1) as f64,
    );
    samples.push(
        "pool.allocated_per_kpkt",
        rep.pool_allocs_warm as f64 * 1e3 / rep.warm_pkts.max(1) as f64,
    );
    samples.push(
        "obs.overhead_frac",
        (layer(engine_layer) - off) / off.max(1.0),
    );
    let out_len = rep.out.bytes_out / rep.out.pkts_out.max(1);
    samples.push(
        "sink.ns_per_pkt",
        gateway::sink_ns_per_pkt(out_len as usize, 100_000),
    );
    samples.push("trace.ns_per_span", span_cost_ns());
    traced.last = Some((tr, i));
}

fn run_egress(mut w: EgressWorkload, args: &Args, setups: &mut Setups, out: &mut Outcome) {
    let expect = egress::verify(&mut w)
        .map_err(|e| out.fail(format!("{}: {e}", args.name)))
        .ok();
    let n = w.trace.len() as u64;
    let in_bytes: u64 = w.trace.iter().map(|(_, p)| p.len() as u64).sum();
    let mut traced = Traced::default();
    let ranges = payload_ranges(&w.trace);
    let costs = pass_loop(args, setups, out, expect.as_ref(), |i, out| {
        let pool_before = w.split.pool_stats().allocated;
        let p = egress::split_pass(&mut w);
        let pool_allocs = w.split.pool_stats().allocated - pool_before;
        if args.trace {
            egress_round(
                &mut w,
                &ranges,
                &p,
                pool_allocs,
                expect,
                i,
                out,
                &mut traced,
            );
        }
        Pass {
            cost: p.cost,
            pkts_in: n,
            dropped: p.dropped,
            out: p.out,
        }
    });
    let threads = "1 (split loop on the calling thread)";
    report_common(args, out, &costs, n, in_bytes, traced, threads);
    if args.trace {
        return;
    }
    out.metric(
        "conversion_yield",
        expect.map_or(0.0, |e| e.full as f64 / e.pkts.max(1) as f64),
        "ratio",
    );
    let pool = w.split.pool_stats();
    let pool_bytes = (pool.allocated - pool.dropped) as usize
        * (px_wire::buffer::DEFAULT_HEADROOM + w.split.emtu);
    out.metric("state_mib", pool_bytes as f64 / MIB, "MiB");
}

/// One traced round of the egress workload: a pass with a span around
/// every split call and the standalone checksum replay, after the
/// untraced pass `p`.
#[allow(clippy::too_many_arguments)]
fn egress_round(
    w: &mut EgressWorkload,
    ranges: &[std::ops::Range<usize>],
    p: &egress::SplitPass,
    pool_allocs: u64,
    expect: Option<egress::SplitOut>,
    i: usize,
    out: &mut Outcome,
    traced: &mut Traced,
) {
    let n = w.trace.len() as u64;
    let mut tr = Tracer::with_capacity(n as usize);
    let traced_out = egress::traced_pass(w, &mut tr);
    if expect.is_some_and(|e| e != traced_out) {
        out.fail(format!(
            "traced pass {i}: output {traced_out:?} differs from the verified {expect:?}"
        ));
    }
    let mut tr_sum = Tracer::default();
    let sum_bytes = gateway::checksum_replay(&w.trace, ranges, 32, &mut tr_sum);
    traced.ledger.add_pass(&tr, n);
    traced.ledger.add_standalone(&tr_sum);

    let samples = &mut traced.samples;
    let split_ns: u64 = tr.self_by_name().values().sum();
    let calls = tr.durations_us("split");
    samples.push(
        "engine.self_ns_per_pkt",
        (p.cost.wall_ns as f64 - split_ns as f64) / n as f64,
    );
    samples.push(
        "engine.busy_cpus",
        p.cost.cpu_ns as f64 / p.cost.wall_ns as f64,
    );
    samples.push("engine.allocs_per_pkt", p.cost.allocs as f64 / n as f64);
    samples.push("split.ns_per_jumbo", split_ns as f64 / n as f64);
    samples.push(
        "split.ns_per_out_pkt",
        split_ns as f64 / traced_out.pkts.max(1) as f64,
    );
    samples.push("split.call_us_p99", quantile(&calls, 0.99));
    let sum_ns: u64 = tr_sum.self_by_name().values().sum();
    samples.push(
        "checksum.gbps",
        sum_bytes as f64 * 8.0 / sum_ns.max(1) as f64,
    );
    samples.push(
        "pool.allocated_per_kpkt",
        pool_allocs as f64 * 1e3 / n as f64,
    );
    samples.push("sink.ns_per_pkt", egress::sink_ns_per_pkt(100_000));
    samples.push("trace.ns_per_span", span_cost_ns());
    traced.last = Some((tr, i));
}
