//! The two closed-loop workloads: one client, one message at a time.
//!
//! `p2p_roundtrip` models an MPI send/recv pair with PEDAL: compress,
//! then decompress, every message. `bcast_decode` models the receiver
//! side of a broadcast: messages are compressed once while inputs are
//! prepared, and the timed loop only decodes.
//!
//! Both draw the same message mix from the seed (see [`messages`]): each
//! seed covers the same (design, dataset, size stratum) grid and differs
//! in exact sizes, the window taken from each dataset, and message order.
//! This keeps work per pass comparable across seeds while the bytes
//! change.

use crate::kernels::{self, ChunkPayload};
use crate::report::{latency_quantile, median, pct, Metric, Report, RssProbe};
use crate::serve::{self, Decisions, ServiceJob};
use crate::trace::{SpanId, Tracer, NONE};
use crate::{Config, Fault};
use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_datasets::{DatasetId, Pcg32};
use pedal_dpu::{Algorithm, Platform};
use pedal_stream::{StreamCodec, StreamConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// BlueField-2: its C-Engine compresses, so the C-Engine designs run on
/// the simulated engine path rather than falling back.
const PLATFORM: Platform = Platform::BlueField2;
/// SZ3's absolute error bound (the paper's 1e-4).
const ERROR_BOUND: f64 = 1e-4;
/// A closed-loop message meets its objective when it round-trips and
/// verifies within this much host time.
const MESSAGE_SLO: Duration = Duration::from_secs(1);

/// Lossless designs carry Table IV byte data; the float designs carry
/// float32 fields.
const DESIGNS: [Design; 9] = [
    Design::SOC_DEFLATE,
    Design::CE_DEFLATE,
    Design::SOC_ZLIB,
    Design::CE_ZLIB,
    Design::SOC_LZ4,
    Design::CE_LZ4,
    Design::SOC_SZ3,
    Design::CE_SZ3,
    Design::SOC_PCO,
];
const FLOAT_DATASETS: [DatasetId; 4] =
    [DatasetId::Exaalt1, DatasetId::Exaalt3, DatasetId::Exaalt2, DatasetId::ObsError];

/// Message sizes and streaming knobs.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Smallest message; sizes span `octaves` octaves above it.
    pub min: usize,
    pub octaves: u32,
    /// Messages per design in one pass.
    pub per_design: usize,
    /// Lossless messages at least this large travel as PSF1 streams.
    pub stream_min: usize,
    /// PSF1 chunk size.
    pub chunk: usize,
}

impl Sizing {
    /// 16 KiB to 2 MiB (the rendezvous range), 14 messages per design;
    /// streams from 512 KiB in 256 KiB frames.
    pub const FULL: Sizing = Sizing {
        min: 16 << 10,
        octaves: 7,
        per_design: 14,
        stream_min: 512 << 10,
        chunk: 256 << 10,
    };
    /// Tiny inputs for smoke tests: 1–8 KiB, streams from 4 KiB.
    pub const SMOKE: Sizing =
        Sizing { min: 1 << 10, octaves: 3, per_design: 3, stream_min: 4 << 10, chunk: 2 << 10 };

    fn max(&self) -> usize {
        self.min << self.octaves
    }
}

#[derive(Debug, Clone)]
pub struct Message {
    pub seq: u64,
    pub design: Design,
    pub datatype: Datatype,
    pub data: Vec<u8>,
    pub streamed: bool,
}

/// Draw the seed's message mix (one pass).
///
/// Sizes are a stratified log-uniform sample: the log range is cut into
/// one stratum per message, and stratum `k` goes to design `k % 9`, so
/// every design spans the whole range and the seed moves each size only
/// within its stratum (under 4% at full size). Datasets rotate over a
/// design's strata. Whether a message streams follows its stratum, and
/// the stream threshold falls on a stratum boundary.
pub fn messages(seed: u64, sizing: Sizing) -> Vec<Message> {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x484f_5354_4245_4e43); // "HOSTBENC"
    let base_len = 2 * sizing.max();
    let strata = DESIGNS.len() * sizing.per_design;
    let octaves_per_stratum = sizing.octaves as f64 / strata as f64;
    let mut bases: Vec<(DatasetId, Vec<u8>)> = Vec::new();
    let mut out = Vec::new();
    for k in 0..strata {
        let (d, j) = (k % DESIGNS.len(), k / DESIGNS.len());
        let design = DESIGNS[d];
        let float = matches!(design.algorithm, Algorithm::Sz3 | Algorithm::Pco);
        let datasets: &[DatasetId] = if float { &FLOAT_DATASETS } else { &DatasetId::LOSSLESS };
        let dataset = datasets[(j + d) % datasets.len()];
        let base = match bases.iter().position(|(id, _)| *id == dataset) {
            Some(i) => &bases[i].1,
            None => {
                bases.push((dataset, dataset.generate_bytes(base_len)));
                &bases.last().expect("just pushed").1
            }
        };
        let lower = sizing.min as f64 * (k as f64 * octaves_per_stratum).exp2();
        let exp = (k as f64 + rng.next_f64()) * octaves_per_stratum;
        let size = ((sizing.min as f64 * exp.exp2()) as usize & !3).max(4);
        let offset = rng.gen_range(0..=base.len() - size) & !3;
        let mut data = base[offset..offset + size].to_vec();
        if design.algorithm == Algorithm::Pco {
            plant_non_finite(&mut data, &mut rng);
        }
        out.push(Message {
            seq: 0,
            design,
            datatype: if float { Datatype::Float32 } else { Datatype::Byte },
            streamed: design.algorithm != Algorithm::Sz3 && lower + 0.5 >= sizing.stream_min as f64,
            data,
        });
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    for (i, m) in out.iter_mut().enumerate() {
        m.seq = i as u64;
    }
    out
}

/// pco must round-trip non-finite floats bit for bit: overwrite a few
/// elements with NaNs (quiet, signalling, with payload) and infinities.
fn plant_non_finite(data: &mut [u8], rng: &mut Pcg32) {
    let elems = data.len() / 4;
    for bits in [0x7fc0_0123u32, 0x7f80_0001, 0xff80_0000, 0x7f80_0000] {
        let i = rng.gen_range(0..elems) * 4;
        data[i..i + 4].copy_from_slice(&bits.to_le_bytes());
    }
}

/// One `PedalContext` per design, created the way `PEDAL_init` would.
struct Contexts(Vec<PedalContext>);

impl Contexts {
    fn init() -> Self {
        Contexts(
            DESIGNS
                .iter()
                .map(|&d| {
                    PedalContext::init(PedalConfig::new(PLATFORM, d).with_error_bound(ERROR_BOUND))
                        .expect("BlueField-2 contexts initialise for every design")
                })
                .collect(),
        )
    }

    fn get(&self, design: Design) -> &PedalContext {
        let i = DESIGNS.iter().position(|&d| d == design).expect("benchmarked design");
        &self.0[i]
    }

    fn pool_counts(&self) -> (u64, u64) {
        self.0.iter().fold((0, 0), |(h, m), c| (h + c.pool.hits(), m + c.pool.misses()))
    }
}

/// Which closed-loop workload is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    RoundTrip,
    Decode,
}

impl Mode {
    fn root(self) -> &'static str {
        match self {
            Mode::RoundTrip => "p2p.roundtrip",
            Mode::Decode => "bcast.decode",
        }
    }
}

/// A message as the decode loop receives it.
#[derive(Default)]
struct Prepared {
    payload: Vec<u8>,
    frames: Vec<Vec<u8>>,
    chunks: Vec<ChunkPayload>,
    wire: u64,
    frame_count: u64,
    raw_frames: u64,
    /// What a correct decode yields (the input, or SZ3's reconstruction).
    expected: Vec<u8>,
}

/// Outcome of one timed operation.
#[derive(Default)]
struct Op {
    dur: Duration,
    ok: bool,
    ctx_host: Duration,
    ctx_virtual_ns: u64,
    wire: u64,
    passthrough: bool,
    fallback: u64,
    frames: u64,
    raw_frames: u64,
}

/// Counters a phase accumulates.
#[derive(Default)]
struct Phase {
    op_s: Vec<f64>,
    pass_mbps: Vec<f64>,
    /// Peak RSS of each pass above its start.
    pass_peak_mb: Vec<f64>,
    attempted: u64,
    failed: u64,
    slo_met: u64,
    ctx_host: Duration,
    ctx_virtual_ns: u64,
    raw: u64,
    wire: u64,
    passthrough: u64,
    fallback: u64,
    frames: u64,
    raw_frames: u64,
}

struct Bench<'a> {
    cfg: &'a Config,
    mode: Mode,
    sizing: Sizing,
    msgs: Vec<Message>,
    ctxs: Contexts,
    prepared: Vec<Prepared>,
}

/// Run one closed-loop workload.
pub(crate) fn run(cfg: &Config, mode: Mode) -> Report {
    let sizing = if cfg.smoke { Sizing::SMOKE } else { Sizing::FULL };
    let mut report = Report { checks_ok: true, ..Report::default() };
    report.fact("platform", "BlueField-2 (modelled)");
    report.fact("designs", DESIGNS.len());
    report.fact("load", "closed loop, 1 client, 1 thread");
    report.fact("threads", 1);
    report.fact("stream_min_bytes", sizing.stream_min);
    report.fact("stream_chunk_bytes", sizing.chunk);

    let mut tracer = Tracer::new(cfg.trace);
    let (msgs, gen) = timed(|| messages(cfg.seed, sizing));
    report.fact("messages_per_pass", msgs.len());
    report.fact("bytes_per_pass", msgs.iter().map(|m| m.data.len()).sum::<usize>());

    // Set-up: contexts plus one warm-up round trip per design on its
    // smallest message, sampled SETUP_SAMPLES times; the last set is kept.
    let mut setup_s = Vec::new();
    let mut ctxs = None;
    for _ in 0..crate::SETUP_SAMPLES {
        let start = Instant::now();
        let c = Contexts::init();
        for &design in &DESIGNS {
            let m = msgs
                .iter()
                .filter(|m| m.design == design && !m.streamed)
                .min_by_key(|m| m.data.len())
                .expect("every design has a whole-message size");
            let ctx = c.get(design);
            let packed = ctx.compress(m.datatype, &m.data).expect("warm-up compress");
            ctx.decompress(&packed.payload, m.data.len()).expect("warm-up decompress");
        }
        setup_s.push(start.elapsed().as_secs_f64());
        ctxs = Some(c);
    }
    let mut bench = Bench {
        cfg,
        mode,
        sizing,
        msgs,
        ctxs: ctxs.expect("at least one set-up sample"),
        prepared: Vec::new(),
    };
    if mode == Mode::Decode {
        report.failed += bench.prepare(&mut tracer);
        report.attempted += bench.msgs.len() as u64;
    }

    // The measured phase. A traced run alternates untraced and traced
    // passes, so the tracing overhead compares passes made under the same
    // host conditions; end-to-end figures come from the untraced passes.
    let mut off = Tracer::new(false);
    let (mut phase, mut traced) = (Phase::default(), Phase::default());
    let start = Instant::now();
    while phase.pass_mbps.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        bench.pass(&mut off, &mut phase);
        if cfg.trace {
            bench.pass(&mut tracer, &mut traced);
        }
    }
    report.attempted += phase.attempted + traced.attempted;
    report.failed += phase.failed + traced.failed;
    end_to_end(&mut report, &phase, &setup_s);

    if cfg.trace {
        let (whatif, decisions) = bench.what_if(&mut tracer);
        report.attempted += whatif.jobs;
        report.failed += whatif.mismatches;
        let pool = bench.ctxs.pool_counts();
        per_layer(&mut report, &tracer, &phase, &traced, &whatif, decisions, pool, gen, mode);
        report.trace_json = Some(tracer.chrome_json(&report.facts));
    }
    report
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

impl Bench<'_> {
    fn stream_cfg(&self, design: Design) -> (StreamCodec, StreamConfig) {
        let codec = kernels::stream_codec(design).expect("only lossless designs stream");
        (codec.clone(), StreamConfig::new(codec).with_chunk_size(self.sizing.chunk))
    }

    /// Compress every message once for the decode workload (not timed)
    /// and check that each decodes; returns how many failed.
    fn prepare(&mut self, t: &mut Tracer) -> u64 {
        let mut failed = 0;
        let mut prepared = Vec::with_capacity(self.msgs.len());
        for m in &self.msgs {
            let n = m.data.len() as u64;
            let mut p = Prepared::default();
            let decoded = if m.streamed {
                let (codec, scfg) = self.stream_cfg(m.design);
                let ((frames, stats), _, id) = t.call("stream.encode", NONE, m.seq, n, || {
                    kernels::stream_encode(&scfg, &m.data)
                });
                p.chunks =
                    kernels::replay_stream_encode(t, id, m.seq, &codec, scfg.chunk_size, &m.data);
                (p.wire, p.frame_count, p.raw_frames) =
                    (stats.wire_bytes, stats.frames, stats.raw_frames);
                p.frames = frames;
                kernels::stream_decode(&p.frames, m.data.len()).ok()
            } else {
                let ctx = self.ctxs.get(m.design);
                let (out, _, id) =
                    t.call("pedal.compress", NONE, m.seq, n, || ctx.compress(m.datatype, &m.data));
                kernels::replay_compress(t, id, m.seq, m.design, ERROR_BOUND, m.datatype, &m.data);
                p.payload = out.map(|o| o.payload).unwrap_or_default();
                p.wire = p.payload.len() as u64;
                ctx.decompress(&p.payload, m.data.len()).ok().map(|d| d.data)
            };
            failed += u64::from(!decoded.as_deref().is_some_and(|d| verify(m, d)));
            p.expected = decoded.unwrap_or_default();
            prepared.push(p);
        }
        self.prepared = prepared;
        failed
    }

    /// One pass over the message mix.
    fn pass(&self, t: &mut Tracer, p: &mut Phase) {
        let probe = RssProbe::start();
        let (mut bytes, mut time) = (0u64, Duration::ZERO);
        let first = p.pass_mbps.is_empty();
        for (i, m) in self.msgs.iter().enumerate() {
            let op = catch_unwind(AssertUnwindSafe(|| match self.mode {
                Mode::RoundTrip => self.round_trip(t, i),
                Mode::Decode => self.decode(t, i),
            }))
            .unwrap_or_default();
            p.attempted += 1;
            p.failed += u64::from(!op.ok);
            p.slo_met += u64::from(op.ok && op.dur <= MESSAGE_SLO);
            p.op_s.push(op.dur.as_secs_f64());
            p.ctx_host += op.ctx_host;
            p.ctx_virtual_ns += op.ctx_virtual_ns;
            p.passthrough += u64::from(op.passthrough);
            p.fallback += op.fallback;
            p.frames += op.frames;
            p.raw_frames += op.raw_frames;
            if first {
                p.raw += m.data.len() as u64;
                p.wire += op.wire;
            }
            bytes += m.data.len() as u64;
            time += op.dur;
        }
        p.pass_mbps.push(bytes as f64 / time.as_secs_f64().max(1e-9) / 1e6);
        p.pass_peak_mb.push(probe.peak_mb());
    }

    fn round_trip(&self, t: &mut Tracer, i: usize) -> Op {
        let m = &self.msgs[i];
        let n = m.data.len();
        let root = t.open(Mode::RoundTrip.root(), NONE, m.seq, n as u64);
        let root_id = root.id;
        let mut op = Op::default();
        let (out, enc_id, dec_id, packed) = if m.streamed {
            let (_, scfg) = self.stream_cfg(m.design);
            let ((frames, stats), _, enc_id) =
                t.call("stream.encode", root_id, m.seq, n as u64, || {
                    kernels::stream_encode(&scfg, &m.data)
                });
            let (decoded, _, dec_id) = t.call("stream.decode", root_id, m.seq, n as u64, || {
                kernels::stream_decode(&frames, n)
            });
            op.wire = stats.wire_bytes;
            op.frames = stats.frames;
            op.raw_frames = stats.raw_frames;
            (decoded.ok(), enc_id, dec_id, Vec::new())
        } else {
            let ctx = self.ctxs.get(m.design);
            let (c, c_dur, enc_id) = t.call("pedal.compress", root_id, m.seq, n as u64, || {
                ctx.compress(m.datatype, &m.data)
            });
            match c {
                Err(_) => (None, enc_id, NONE, Vec::new()),
                Ok(c) => {
                    op.wire = c.payload.len() as u64;
                    op.passthrough = c.passthrough;
                    op.fallback += u64::from(c.fell_back);
                    op.ctx_host += c_dur;
                    op.ctx_virtual_ns += c.timing.total().as_nanos();
                    let (d, d_dur, dec_id) =
                        t.call("pedal.decompress", root_id, m.seq, n as u64, || {
                            ctx.decompress(&c.payload, n)
                        });
                    let out = d.ok().map(|d| {
                        op.fallback += u64::from(d.fell_back);
                        op.ctx_host += d_dur;
                        op.ctx_virtual_ns += d.timing.total().as_nanos();
                        d.data
                    });
                    (out, enc_id, dec_id, c.payload)
                }
            }
        };
        op.dur = t.close(root);
        op.ok = out.is_some_and(|mut o| {
            self.inject(m, &mut o);
            verify(m, &o)
        });
        if t.is_on() {
            self.replay_round_trip(t, root_id, enc_id, dec_id, i, &packed);
        }
        op
    }

    fn replay_round_trip(
        &self,
        t: &mut Tracer,
        root: SpanId,
        enc_id: SpanId,
        dec_id: SpanId,
        i: usize,
        packed: &[u8],
    ) {
        let m = &self.msgs[i];
        if m.streamed {
            let (codec, scfg) = self.stream_cfg(m.design);
            let chunks =
                kernels::replay_stream_encode(t, enc_id, m.seq, &codec, scfg.chunk_size, &m.data);
            kernels::replay_stream_decode(t, dec_id, m.seq, &codec, &chunks);
            if matches!(codec, StreamCodec::Deflate(_)) {
                kernels::replay_fragment_overhead(t, root, m.seq, scfg.chunk_size, &m.data);
            }
        } else {
            kernels::replay_compress(t, enc_id, m.seq, m.design, ERROR_BOUND, m.datatype, &m.data);
            kernels::replay_decompress(t, dec_id, m.seq, packed, m.data.len());
        }
    }

    fn decode(&self, t: &mut Tracer, i: usize) -> Op {
        let m = &self.msgs[i];
        let p = &self.prepared[i];
        let n = m.data.len();
        let root = t.open(Mode::Decode.root(), NONE, m.seq, n as u64);
        let mut op = Op { wire: p.wire, ..Op::default() };
        let (out, span) = if m.streamed {
            op.frames = p.frame_count;
            op.raw_frames = p.raw_frames;
            let (d, _, id) = t.call("stream.decode", root.id, m.seq, n as u64, || {
                kernels::stream_decode(&p.frames, n)
            });
            (d.ok(), id)
        } else {
            let ctx = self.ctxs.get(m.design);
            let (d, dur, id) = t.call("pedal.decompress", root.id, m.seq, n as u64, || {
                ctx.decompress(&p.payload, n)
            });
            let d = d.ok().map(|d| {
                op.fallback += u64::from(d.fell_back);
                op.ctx_host += dur;
                op.ctx_virtual_ns += d.timing.total().as_nanos();
                d.data
            });
            (d, id)
        };
        op.dur = t.close(root);
        op.ok = out.is_some_and(|mut o| {
            self.inject(m, &mut o);
            o == p.expected && verify(m, &o)
        });
        if m.streamed {
            let (codec, _) = self.stream_cfg(m.design);
            kernels::replay_stream_decode(t, span, m.seq, &codec, &p.chunks);
        } else if t.is_on() {
            kernels::replay_decompress(t, span, m.seq, &p.payload, n);
        }
        op
    }

    /// Corrupt a decoded output when the configuration asks for it, so
    /// tests can show that verification trips.
    fn inject(&self, m: &Message, out: &mut [u8]) {
        if self.cfg.fault == Fault::CorruptDecode && m.seq.is_multiple_of(3) && out.len() >= 4 {
            // Byte 3 of a little-endian f32 holds the sign and exponent:
            // flipping it moves a value far outside any error bound.
            out[3] ^= 0x40;
        }
    }

    /// The service and policy layers are not on a closed loop's path;
    /// run each message through them once so their per-layer numbers
    /// exist on this workload too: every message through the policy's
    /// probe, every whole-message compress through a service.
    fn what_if(&self, t: &mut Tracer) -> (serve::Replay, Decisions) {
        let mut decisions = Decisions::default();
        for m in &self.msgs {
            decisions.count(serve::probe(t, NONE, m.seq, &m.data));
        }
        let jobs: Vec<ServiceJob> = self
            .msgs
            .iter()
            .filter(|m| !m.streamed)
            .map(|m| ServiceJob {
                req: m.seq,
                design: m.design,
                datatype: m.datatype,
                data: &m.data,
            })
            .collect();
        (serve::replay(t, NONE, ERROR_BOUND, &jobs), decisions)
    }
}

/// Is `out` a correct decode of `m`? Lossless and pco decodes must be
/// byte-identical (bit-exact for floats, non-finite values included);
/// SZ3 decodes must stay within the error bound.
fn verify(m: &Message, out: &[u8]) -> bool {
    if m.design.algorithm == Algorithm::Sz3 {
        kernels::within_bound(&m.data, out, ERROR_BOUND)
    } else {
        out == m.data
    }
}

fn end_to_end(report: &mut Report, p: &Phase, setup_s: &[f64]) {
    let ops = p.op_s.len() as u64;
    let passes = p.pass_mbps.len() as u64;
    let m = &mut report.end_to_end;
    m.push(Metric {
        name: "throughput_MBps",
        value: median(&p.pass_mbps),
        unit: "MB/s",
        samples: passes,
    });
    m.push(Metric {
        name: "op_p50_ms",
        value: latency_quantile(&p.op_s, 0.5) * 1e3,
        unit: "ms",
        samples: ops,
    });
    m.push(Metric {
        name: "op_p90_ms",
        value: latency_quantile(&p.op_s, 0.9) * 1e3,
        unit: "ms",
        samples: ops,
    });
    m.push(Metric {
        name: "host_s_per_virtual_s",
        value: p.ctx_host.as_secs_f64() / (p.ctx_virtual_ns.max(1) as f64 / 1e9),
        unit: "s/s",
        samples: ops,
    });
    m.push(Metric {
        name: "slo_attainment_pct",
        value: pct(p.slo_met, p.attempted),
        unit: "%",
        samples: p.attempted,
    });
    // Raw over wire bytes of one pass's messages (the decode loop's are
    // those it receives).
    let ratio = p.raw as f64 / p.wire.max(1) as f64;
    m.push(Metric { name: "ratio", value: ratio, unit: "x", samples: ops / passes.max(1) });
    m.push(Metric {
        name: "peak_rss_MB",
        value: median(&p.pass_peak_mb),
        unit: "MB",
        samples: passes,
    });
    m.push(Metric {
        name: "setup_s",
        value: median(setup_s),
        unit: "s",
        samples: setup_s.len() as u64,
    });
    m.push(Metric {
        name: "ok_pct",
        value: 100.0 - pct(p.failed, p.attempted),
        unit: "%",
        samples: p.attempted,
    });
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    t: &Tracer,
    untraced: &Phase,
    traced: &Phase,
    whatif: &serve::Replay,
    decisions: Decisions,
    (hits, misses): (u64, u64),
    gen: Duration,
    mode: Mode,
) {
    // Self times count only the calls on this workload's timed path.
    let (pedal_names, stream_names, zlib_names): (&[&str], &[&str], &[&str]) = match mode {
        Mode::RoundTrip => (
            &["pedal.compress", "pedal.decompress"],
            &["stream.encode", "stream.decode"],
            &["zlib.compress", "zlib.decompress"],
        ),
        Mode::Decode => (&["pedal.decompress"], &["stream.decode"], &["zlib.decompress"]),
    };
    let traced_ops = traced.op_s.len() as u64;
    let mut l = crate::layers::Layers::new(t);
    l.kernels();
    l.self_pct("zlib.self_pct", zlib_names);
    l.self_us("pedal.self_us_per_op", pedal_names);
    l.push("pedal.pool_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, hits + misses);
    l.push("pedal.passthrough_ops", traced.passthrough as f64, traced_ops);
    l.push("pedal.fallback_ops", traced.fallback as f64, traced_ops);
    l.self_pct("stream.self_pct", stream_names);
    l.push("stream.frames", traced.frames as f64, traced_ops);
    l.push("stream.raw_frames", traced.raw_frames as f64, traced_ops);
    l.fragment_overhead();
    l.policy(decisions);
    l.service(whatif);
    l.fleet_absent();
    l.push("datasets.payload_gen_s", gen.as_secs_f64(), 1);
    let overhead =
        100.0 * (median(&untraced.pass_mbps) / median(&traced.pass_mbps).max(1e-9) - 1.0);
    l.push("trace.overhead_pct", overhead, traced.pass_mbps.len() as u64);
    report.per_layer = l.finish();
}
