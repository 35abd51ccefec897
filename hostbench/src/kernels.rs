//! The calls into the codec crates that the benchmark times: PSF1
//! stream encode/decode the way `pedal-codesign`'s streamed send and
//! receive drive them, and replays of each kernel crate's own entry
//! point on the inputs a `PedalContext` or PSF1 call just handled.

use crate::trace::{SpanId, Tracer};
use pedal::{wire, Datatype, Design, PedalHeader};
use pedal_dpu::Algorithm;
use pedal_stream::{
    EncoderStats, Level, PcoConfig, StreamCodec, StreamConfig, StreamDecoder, StreamEncoder,
};
use std::hint::black_box;

/// The PSF1 codec a lossless design streams with, as in
/// `pedal-codesign`: zlib streams as raw DEFLATE fragments because PSF1
/// already carries Adler-32 checksums. `None` for SZ3, whose chunks are
/// not independently decodable.
pub fn stream_codec(design: Design) -> Option<StreamCodec> {
    match design.algorithm {
        Algorithm::Deflate | Algorithm::Zlib => Some(StreamCodec::Deflate(Level::DEFAULT)),
        Algorithm::Lz4 => Some(StreamCodec::Lz4 { accel: 1 }),
        Algorithm::Pco => Some(StreamCodec::Pco(PcoConfig::default())),
        Algorithm::Sz3 => None,
    }
}

/// Encode `data` chunk by chunk, draining the wire after every push the
/// way a streamed send hands frames to the transport.
pub fn stream_encode(cfg: &StreamConfig, data: &[u8]) -> (Vec<Vec<u8>>, EncoderStats) {
    let mut enc = StreamEncoder::new(cfg);
    let mut frames = Vec::new();
    for piece in data.chunks(cfg.chunk_size) {
        enc.push(piece);
        let wire = enc.take();
        if !wire.is_empty() {
            frames.push(wire);
        }
    }
    let (tail, stats) = enc.finish_with_stats();
    frames.push(tail);
    (frames, stats)
}

/// Decode the pieces a streamed send produced, feeding each as it
/// "arrives" and draining the output after every feed.
pub fn stream_decode(frames: &[Vec<u8>], len: usize) -> Result<Vec<u8>, String> {
    let mut dec = StreamDecoder::new(len);
    let mut out = Vec::with_capacity(len);
    for frame in frames {
        dec.feed(frame).map_err(|e| e.to_string())?;
        out.extend_from_slice(&dec.take());
    }
    if !dec.is_finished() {
        return Err("stream ended before its trailer".into());
    }
    Ok(out)
}

/// Replay the compress kernel a context ran for `design` on `data`.
/// zlib's span gets its DEFLATE body as a child replay, so the zlib
/// span's self time is the header and Adler-32 work.
pub fn replay_compress(
    t: &mut Tracer,
    parent: SpanId,
    req: u64,
    design: Design,
    error_bound: f64,
    datatype: Datatype,
    data: &[u8],
) {
    let n = data.len() as u64;
    match design.algorithm {
        Algorithm::Deflate => {
            t.replay("deflate.compress", parent, req, n, || {
                black_box(pedal_deflate::compress(data, Level::DEFAULT))
            });
        }
        Algorithm::Zlib => {
            if let Some((_, z)) = t.replay("zlib.compress", parent, req, n, || {
                black_box(pedal_zlib::compress(data, Level::DEFAULT))
            }) {
                t.replay("deflate.compress", z, req, n, || {
                    black_box(pedal_deflate::compress(data, Level::DEFAULT))
                });
            }
        }
        Algorithm::Lz4 => {
            t.replay("lz4.compress", parent, req, n, || {
                black_box(pedal_lz4::compress_block(data, 1))
            });
        }
        Algorithm::Sz3 => {
            let cfg = wire::sz3_config(design, error_bound);
            t.replay("sz3.compress", parent, req, n, || {
                let field =
                    pedal_sz3::Field::<f32>::from_bytes(pedal_sz3::Dims::d1(data.len() / 4), data);
                black_box(pedal_sz3::compress(&field, &cfg))
            });
        }
        Algorithm::Pco => {
            let cfg = PcoConfig::default();
            t.replay("pco.compress", parent, req, n, || match datatype {
                Datatype::Float32 => black_box(pedal_pco::compress_typed_bytes(
                    data,
                    pedal_pco::ColumnType::F32,
                    &cfg,
                )),
                Datatype::Float64 => black_box(pedal_pco::compress_typed_bytes(
                    data,
                    pedal_pco::ColumnType::F64,
                    &cfg,
                )),
                Datatype::Byte => black_box(pedal_pco::compress_bytes(data, &cfg)),
            });
        }
    }
}

/// Replay the decode kernel for a complete PEDAL message of `len`
/// uncompressed bytes. Passthrough messages run no kernel.
pub fn replay_decompress(t: &mut Tracer, parent: SpanId, req: u64, payload: &[u8], len: usize) {
    let Ok((PedalHeader::Compressed(design), _, body)) = wire::unframe(payload) else {
        return;
    };
    let n = len as u64;
    match design.algorithm {
        Algorithm::Deflate => {
            t.replay("deflate.inflate", parent, req, n, || {
                black_box(pedal_deflate::decompress_with_limit(body, len))
            });
        }
        Algorithm::Zlib => {
            if let Some((_, z)) = t.replay("zlib.decompress", parent, req, n, || {
                black_box(pedal_zlib::decompress_with_limit(body, len))
            }) {
                if let Ok((deflate_body, _)) = pedal_zlib::split_stream(body) {
                    t.replay("deflate.inflate", z, req, n, || {
                        black_box(pedal_deflate::decompress_with_limit(deflate_body, len))
                    });
                }
            }
        }
        Algorithm::Lz4 => {
            t.replay("lz4.decompress", parent, req, n, || {
                black_box(pedal_lz4::decompress_block(body, Some(len), len))
            });
        }
        Algorithm::Sz3 => {
            t.replay("sz3.decompress", parent, req, n, || {
                black_box(pedal_sz3::decompress_with_limit::<f32>(body, len).map(|f| f.to_bytes()))
            });
        }
        Algorithm::Pco => {
            t.replay("pco.decompress", parent, req, n, || {
                black_box(pedal_pco::decompress_bytes_with_limit(body, len))
            });
        }
    }
}

/// One PSF1 frame's codec payload, kept so its decode can be replayed.
#[derive(Debug, Clone)]
pub struct ChunkPayload {
    pub payload: Vec<u8>,
    pub raw_len: usize,
    /// Stored raw by the encoder (no codec runs on decode).
    pub raw: bool,
}

/// Replay the per-chunk codec calls a PSF1 encode made, as children of
/// the stream span; returns the payloads for decode replays (empty when
/// tracing is off).
pub fn replay_stream_encode(
    t: &mut Tracer,
    parent: SpanId,
    req: u64,
    codec: &StreamCodec,
    chunk: usize,
    data: &[u8],
) -> Vec<ChunkPayload> {
    if !t.is_on() {
        return Vec::new();
    }
    let chunks = data.len().div_ceil(chunk);
    let mut out = Vec::with_capacity(chunks);
    for (i, piece) in data.chunks(chunk).enumerate() {
        let n = piece.len() as u64;
        let last = i + 1 == chunks;
        let replayed = match codec {
            StreamCodec::Deflate(level) => t.replay("deflate.compress", parent, req, n, || {
                pedal_deflate::compress_fragment(piece, *level, last)
            }),
            StreamCodec::Lz4 { accel } => t.replay("lz4.compress", parent, req, n, || {
                pedal_lz4::compress_block(piece, *accel)
            }),
            StreamCodec::Pco(cfg) => t.replay("pco.compress", parent, req, n, || {
                pedal_pco::encode_bytes_chunk(piece, cfg)
            }),
        };
        let (payload, _) = replayed.expect("replays run while tracing is on");
        // The encoder stores a chunk raw when its codec would expand it
        // (never for DEFLATE fragments).
        let raw = !matches!(codec, StreamCodec::Deflate(_)) && payload.len() >= piece.len();
        out.push(ChunkPayload { payload, raw_len: piece.len(), raw });
    }
    out
}

/// Replay the per-frame codec calls a PSF1 decode made.
pub fn replay_stream_decode(
    t: &mut Tracer,
    parent: SpanId,
    req: u64,
    codec: &StreamCodec,
    chunks: &[ChunkPayload],
) {
    for c in chunks.iter().filter(|c| !c.raw) {
        let n = c.raw_len as u64;
        match codec {
            StreamCodec::Deflate(_) => t.replay("deflate.inflate", parent, req, n, || {
                black_box(pedal_deflate::decompress_fragment_with_limit(&c.payload, c.raw_len))
                    .is_ok()
            }),
            StreamCodec::Lz4 { .. } => t.replay("lz4.decompress", parent, req, n, || {
                black_box(pedal_lz4::decompress_block(&c.payload, Some(c.raw_len), c.raw_len))
                    .is_ok()
            }),
            StreamCodec::Pco(_) => t.replay("pco.decompress", parent, req, n, || {
                black_box(pedal_pco::decode_bytes_chunk(&c.payload, c.raw_len)).is_ok()
            }),
        };
    }
}

/// Replay sync-flush fragment DEFLATE (pedal-par, one worker, the
/// stream's chunk size) against one-shot DEFLATE on the same bytes.
pub fn replay_fragment_overhead(
    t: &mut Tracer,
    parent: SpanId,
    req: u64,
    chunk: usize,
    data: &[u8],
) {
    let n = data.len() as u64;
    let cfg = pedal_par::ParConfig::new(1).with_chunk_size(chunk);
    t.replay("par.deflate", parent, req, n, || {
        black_box(pedal_par::par_deflate(data, Level::DEFAULT, &cfg))
    });
    t.replay("deflate.oneshot", parent, req, n, || {
        black_box(pedal_deflate::compress(data, Level::DEFAULT))
    });
}

/// Does a lossy decode of `original` stay within `error_bound` at every
/// element? NaN differences fail.
pub fn within_bound(original: &[u8], decoded: &[u8], error_bound: f64) -> bool {
    let limit = error_bound * (1.0 + 1e-12);
    original.len() == decoded.len()
        && original.chunks_exact(4).zip(decoded.chunks_exact(4)).all(|(a, b)| {
            let a = f32::from_le_bytes([a[0], a[1], a[2], a[3]]) as f64;
            let b = f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64;
            (a - b).abs() <= limit
        })
}
