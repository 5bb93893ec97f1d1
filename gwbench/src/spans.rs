//! In-memory spans recorded around the benchmark's calls into each
//! layer, the self-time arithmetic over them, and the JSON writers for
//! the span dump and the per-layer ledger.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Tracer`], or [`ROOT`].
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one pass, in the order they were opened.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(n),
        }
    }

    /// Opens a span now; returns its index for [`close`](Self::close)
    /// and as the parent of spans nested inside it.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        idx
    }

    pub fn close(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = now_ns();
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self nanoseconds summed per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// The spans as a JSON array, times relative to the first span.
    pub fn dump_json(&self, workload: &str, pass: u32) -> String {
        let origin = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"workload\":\"{workload}\",\"pass\":{pass}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns - origin,
                s.end_ns - origin,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Per-layer self time totalled over every traced pass of a run.
#[derive(Default)]
pub struct Ledger {
    /// Layer → (self ns, spans).
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Layers measured in standalone replays, outside the end-to-end
    /// call chain: reported, but not part of the sum.
    pub standalone: BTreeMap<&'static str, (u64, u64)>,
    pub passes: u64,
    pub pkts: u64,
}

impl Ledger {
    pub fn add_pass(&mut self, tr: &Tracer, pkts: u64) {
        for (s, t) in tr.spans.iter().zip(tr.self_times()) {
            let e = self.layers.entry(s.name).or_insert((0, 0));
            e.0 += t;
            e.1 += 1;
        }
        self.passes += 1;
        self.pkts += pkts;
    }

    pub fn add_standalone(&mut self, tr: &Tracer) {
        for (s, t) in tr.spans.iter().zip(tr.self_times()) {
            let e = self.standalone.entry(s.name).or_insert((0, 0));
            e.0 += t;
            e.1 += 1;
        }
    }

    /// Self ns per input packet summed over the in-chain layers.
    pub fn sum_ns_per_pkt(&self) -> f64 {
        let total: u64 = self.layers.values().map(|v| v.0).sum();
        total as f64 / self.pkts.max(1) as f64
    }

    pub fn to_json(&self, head: &str, untraced_ns_per_pkt: f64) -> String {
        let per_pkt = |ns: u64| ns as f64 / self.pkts.max(1) as f64;
        let sum = self.sum_ns_per_pkt();
        let mut out = format!(
            "{{\n{head},\n\"passes\":{},\"pkts\":{},\n\"layers\":{{",
            self.passes, self.pkts
        );
        for (i, (name, (ns, n))) in self.layers.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  \"{name}\":{{\"self_ns\":{ns},\"spans\":{n},\"self_ns_per_pkt\":{:.3},\"share_of_sum\":{:.4}}}",
                if i == 0 { "" } else { "," },
                per_pkt(*ns),
                per_pkt(*ns) / sum.max(f64::MIN_POSITIVE),
            );
        }
        out.push_str("\n},\n\"standalone\":{");
        for (i, (name, (ns, n))) in self.standalone.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  \"{name}\":{{\"self_ns\":{ns},\"spans\":{n},\"self_ns_per_pkt\":{:.3}}}",
                if i == 0 { "" } else { "," },
                per_pkt(*ns),
            );
        }
        let _ = write!(
            out,
            "\n}},\n\"layer_sum_ns_per_pkt\":{sum:.3},\"untraced_wall_ns_per_pkt\":{untraced_ns_per_pkt:.3},\"unexplained_ns_per_pkt\":{:.3}\n}}\n",
            untraced_ns_per_pkt - sum
        );
        out
    }
}
