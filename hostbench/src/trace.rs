//! Host-clock spans recorded around the calls the benchmark makes into
//! each layer, kept in memory and written once as a Chrome trace.
//!
//! Two kinds of span exist. A *call* span times a call where it happens
//! and may enclose other call spans. A *replay* span times a layer's own
//! entry point run again on the same input right after the enclosing
//! call returned: the benchmark cannot see inside a call, so a kernel's
//! share of, say, `PedalContext::compress` is measured by replaying the
//! kernel. Replays are recorded as children of the call they explain and
//! sit after it in time, on their own track.

use pedal_obs::Json;
use std::time::{Duration, Instant};

/// Identifier of a recorded span; `NONE` when tracing is off or for a
/// span without a parent.
pub type SpanId = u32;
pub const NONE: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// Request id: the message or job sequence number the span serves.
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Uncompressed bytes the call handled (0 when not meaningful).
    pub bytes: u64,
    pub replay: bool,
}

/// Times calls and, when on, records them as spans.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span now; close it with [`Tracer::close`]. Returns the id
    /// its children name as parent.
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64, bytes: u64) -> Open {
        let id = if self.on {
            self.spans.push(Span {
                name,
                parent,
                req,
                start_ns: 0,
                dur_ns: 0,
                bytes,
                replay: false,
            });
            self.spans.len() as SpanId
        } else {
            NONE
        };
        let start = Instant::now();
        if id != NONE {
            self.spans[id as usize - 1].start_ns = self.ns_since_origin(start);
        }
        Open { id, start }
    }

    /// Close an open span, returning its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if open.id != NONE {
            self.spans[open.id as usize - 1].dur_ns = dur.as_nanos() as u64;
        }
        dur
    }

    /// Time `f` as a call span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration, SpanId) {
        let open = self.open(name, parent, req, bytes);
        let id = open.id;
        let r = f();
        let dur = self.close(open);
        (r, dur, id)
    }

    /// Time `f` as a replay span explaining `parent`. A no-op returning
    /// `None` when tracing is off: replays exist only in traced runs.
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> Option<(R, SpanId)> {
        if !self.on {
            return None;
        }
        let (r, _, id) = self.call(name, parent, req, bytes, f);
        self.spans[id as usize - 1].replay = true;
        Some((r, id))
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Count, summed duration and summed bytes of every span named `name`.
    pub fn total(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.count += 1;
            t.dur_ns += s.dur_ns;
            t.bytes += s.bytes;
        }
        t
    }

    /// Self time of each span named `name`: its duration minus the
    /// durations of its direct children (call or replay).
    pub fn self_each_ns(&self, name: &str) -> Vec<i64> {
        let mut child = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child[s.parent as usize] += s.dur_ns;
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns as i64 - child[i + 1] as i64)
            .collect()
    }

    /// Summed self time of the spans named `name`.
    pub fn self_ns(&self, name: &str) -> i64 {
        self.self_each_ns(name).iter().sum()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto). Call
    /// spans are on track 1, replays on track 2.
    pub fn chrome_json(&self, facts: &[(String, String)]) -> String {
        let mut events: Vec<Json> = vec![
            thread_name(1, "calls"),
            thread_name(2, "replays (a layer's entry point re-run on the same input)"),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            events.push(Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::num(s.start_ns as f64 / 1e3)),
                ("dur", Json::num(s.dur_ns as f64 / 1e3)),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(if s.replay { 2 } else { 1 })),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::u64(i as u64 + 1)),
                        ("parent", Json::u64(s.parent as u64)),
                        ("req", Json::u64(s.req)),
                        ("bytes", Json::u64(s.bytes)),
                    ]),
                ),
            ]));
        }
        let other = facts.iter().map(|(k, v)| (k.as_str(), Json::str(v.clone()))).collect();
        let mut out = String::new();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
            ("otherData", Json::obj(other)),
        ])
        .write(&mut out);
        out
    }
}

fn thread_name(tid: u64, name: &str) -> Json {
    Json::obj(vec![
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::u64(1)),
        ("tid", Json::u64(tid)),
        ("args", Json::obj(vec![("name", Json::str(name))])),
    ])
}

/// A span opened by [`Tracer::open`].
pub struct Open {
    pub id: SpanId,
    start: Instant,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub dur_ns: u64,
    pub bytes: u64,
}

impl Totals {
    /// Bytes per second in MB/s; 0 when nothing was recorded.
    pub fn mbps(&self) -> f64 {
        if self.dur_ns == 0 {
            return 0.0;
        }
        self.bytes as f64 / (self.dur_ns as f64 / 1e9) / 1e6
    }

    /// Mean duration in microseconds; 0 when nothing was recorded.
    pub fn us_per_op(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.dur_ns as f64 / self.count as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let (_, _, outer) = t.call("outer", NONE, 1, 0, || {
            std::thread::sleep(Duration::from_millis(2));
        });
        t.replay("kernel", outer, 1, 10, || std::thread::sleep(Duration::from_millis(1)));
        let outer_dur = t.total("outer").dur_ns as i64;
        let kernel_dur = t.total("kernel").dur_ns as i64;
        assert_eq!(t.self_ns("outer"), outer_dur - kernel_dur);
        assert_eq!(t.self_ns("kernel"), kernel_dur);
        assert!(t.spans[1].replay && !t.spans[0].replay);
    }

    #[test]
    fn off_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, dur, id) = t.call("x", NONE, 0, 0, || 7);
        assert_eq!((v, id), (7, NONE));
        assert!(dur.as_nanos() > 0 || dur.is_zero());
        assert!(t.replay("k", NONE, 0, 0, || ()).is_none());
        assert!(t.spans.is_empty());
    }

    #[test]
    fn chrome_trace_parses() {
        let mut t = Tracer::new(true);
        t.call("a.b", NONE, 3, 4, || ());
        let json = pedal_obs::json::parse(&t.chrome_json(&[("seed".into(), "1".into())]))
            .expect("valid JSON");
        assert_eq!(json.get("traceEvents").and_then(|e| e.as_arr()).map(|e| e.len()), Some(3));
    }
}
