//! Incremental PSF1 encoder: buffer at most one chunk, emit frames as
//! soon as a chunk is provably not the stream's last.

use crate::frame::{
    put_uvarint, CODEC_DEFLATE, CODEC_LZ4, CODEC_PCO, FRAME_LAST, FRAME_RAW, MAGIC, MAX_CHUNK_SIZE,
    VERSION,
};
use pedal_deflate::Level;
use pedal_pco::PcoConfig;
use pedal_zlib::{adler32, Adler32};

/// Default streaming chunk: 1 MiB, matching `pedal-par`'s default shard.
pub const DEFAULT_CHUNK: usize = 1 << 20;

/// Which codec fills the frame payloads, with its encoder-side knobs.
/// The knobs never reach the wire — a decoder needs only the codec id.
#[derive(Debug, Clone)]
pub enum StreamCodec {
    /// Sync-flush DEFLATE fragments; concatenated payloads form one
    /// valid RFC 1951 stream (byte-identical to `pedal_par::par_deflate`
    /// at the same chunk size).
    Deflate(Level),
    /// Independent LZ4 blocks, raw-stored when compression expands.
    Lz4 {
        /// Acceleration factor, as in `pedal_lz4::compress_block`.
        accel: u32,
    },
    /// pco bytes-mode chunks, raw-stored when compression expands.
    Pco(PcoConfig),
}

impl StreamCodec {
    /// Wire codec id for the stream header.
    pub fn id(&self) -> u8 {
        match self {
            StreamCodec::Deflate(_) => CODEC_DEFLATE,
            StreamCodec::Lz4 { .. } => CODEC_LZ4,
            StreamCodec::Pco(_) => CODEC_PCO,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            StreamCodec::Deflate(_) => "deflate",
            StreamCodec::Lz4 { .. } => "lz4",
            StreamCodec::Pco(_) => "pco",
        }
    }
}

/// Encoder configuration: codec plus the plaintext chunk size each frame
/// carries. Output bytes are a pure function of `(data, codec,
/// chunk_size)` — never of how the input was sliced across writes.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    pub codec: StreamCodec,
    pub chunk_size: usize,
}

impl StreamConfig {
    pub fn new(codec: StreamCodec) -> Self {
        Self { codec, chunk_size: DEFAULT_CHUNK }
    }

    /// Override the chunk size (clamped to `1..=MAX_CHUNK_SIZE`).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.clamp(1, MAX_CHUNK_SIZE as usize);
        self
    }
}

/// Encoder-side tallies of one finished stream, for throughput and
/// ratio reporting without re-parsing the wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderStats {
    /// Frames emitted (including the final, possibly empty, LAST frame).
    pub frames: u64,
    /// Frames stored raw because the codec output would have expanded.
    pub raw_frames: u64,
    /// Plaintext bytes consumed.
    pub raw_bytes: u64,
    /// Complete wire size: header + every frame + trailer.
    pub wire_bytes: u64,
}

impl EncoderStats {
    /// Plaintext over wire bytes (0.0 for an empty stream).
    pub fn ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.wire_bytes as f64
    }
}

/// Incremental encoder. Feed plaintext with [`push`](Self::push) (or via
/// `std::io::Write`), drain wire bytes with [`take`](Self::take), close
/// with [`finish`](Self::finish).
///
/// A full chunk is emitted only once at least one later byte exists, so
/// the final frame always carries between 1 and `chunk_size` plaintext
/// bytes (0 only for an empty stream) — an exact chunk-multiple input
/// marks its last full chunk as the final frame instead of appending an
/// empty one, which is what keeps the concatenated DEFLATE payloads
/// byte-identical to the one-shot path.
pub struct StreamEncoder {
    codec: StreamCodec,
    chunk: usize,
    pending: Vec<u8>,
    ready: Vec<u8>,
    next_index: u64,
    total_raw: u64,
    raw_frames: u64,
    wire_out: u64,
    adler: Adler32,
    finished: bool,
}

impl StreamEncoder {
    pub fn new(cfg: &StreamConfig) -> Self {
        let chunk = cfg.chunk_size.clamp(1, MAX_CHUNK_SIZE as usize);
        let mut ready = Vec::with_capacity(16);
        ready.extend_from_slice(&MAGIC);
        ready.push(VERSION);
        ready.push(cfg.codec.id());
        ready.push(0); // header flags, reserved
        put_uvarint(&mut ready, chunk as u64);
        let wire_out = ready.len() as u64;
        Self {
            codec: cfg.codec.clone(),
            chunk,
            pending: Vec::new(),
            ready,
            next_index: 0,
            total_raw: 0,
            raw_frames: 0,
            wire_out,
            adler: Adler32::new(),
            finished: false,
        }
    }

    /// Append plaintext. Consumes directly from `data`, so a large write
    /// still buffers at most one chunk of pending plaintext.
    pub fn push(&mut self, mut data: &[u8]) {
        assert!(!self.finished, "push after finish");
        while self.pending.len() + data.len() > self.chunk {
            if self.pending.is_empty() {
                let (head, rest) = data.split_at(self.chunk);
                data = rest;
                self.emit_frame(head, false);
            } else {
                let need = self.chunk - self.pending.len();
                let (head, rest) = data.split_at(need);
                data = rest;
                self.pending.extend_from_slice(head);
                let full = std::mem::take(&mut self.pending);
                self.emit_frame(&full, false);
                self.pending = full;
                self.pending.clear();
            }
        }
        self.pending.extend_from_slice(data);
    }

    /// Drain every wire byte produced so far (header, then frames as
    /// they complete). Safe to call at any granularity; the
    /// concatenation of all takes plus [`finish`](Self::finish) is the
    /// complete stream.
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.ready)
    }

    /// Bytes of buffered plaintext not yet emitted as a frame (< one
    /// chunk by construction, plus the current chunk remainder).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Bytes of encoded output waiting to be taken.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Frames stored raw so far (codec output would have expanded).
    pub fn raw_frames(&self) -> u64 {
        self.raw_frames
    }

    /// Emit the final frame and trailer; returns all not-yet-taken wire
    /// bytes.
    pub fn finish(self) -> Vec<u8> {
        self.finish_with_stats().0
    }

    /// [`finish`](Self::finish) plus the stream's encoder-side tallies.
    /// `wire_bytes` counts the whole stream, including bytes already
    /// drained through [`take`](Self::take).
    pub fn finish_with_stats(mut self) -> (Vec<u8>, EncoderStats) {
        let tail = std::mem::take(&mut self.pending);
        self.emit_frame(&tail, true);
        let before = self.ready.len();
        put_uvarint(&mut self.ready, self.total_raw);
        let sum = self.adler.finish();
        self.ready.extend_from_slice(&sum.to_le_bytes());
        self.wire_out += (self.ready.len() - before) as u64;
        self.finished = true;
        let stats = EncoderStats {
            frames: self.next_index,
            raw_frames: self.raw_frames,
            raw_bytes: self.total_raw,
            wire_bytes: self.wire_out,
        };
        (self.ready, stats)
    }

    fn emit_frame(&mut self, chunk: &[u8], last: bool) {
        let (payload, raw) = match &self.codec {
            StreamCodec::Deflate(level) => {
                (pedal_deflate::compress_fragment(chunk, *level, last), false)
            }
            StreamCodec::Lz4 { accel } => {
                let p = pedal_lz4::compress_block(chunk, *accel);
                if p.len() >= chunk.len() {
                    (chunk.to_vec(), true)
                } else {
                    (p, false)
                }
            }
            StreamCodec::Pco(cfg) => {
                let p = pedal_pco::encode_bytes_chunk(chunk, cfg);
                if p.len() >= chunk.len() {
                    (chunk.to_vec(), true)
                } else {
                    (p, false)
                }
            }
        };
        let mut flags = 0u8;
        if last {
            flags |= FRAME_LAST;
        }
        if raw {
            flags |= FRAME_RAW;
        }
        let before = self.ready.len();
        self.ready.push(flags);
        put_uvarint(&mut self.ready, self.next_index);
        put_uvarint(&mut self.ready, chunk.len() as u64);
        put_uvarint(&mut self.ready, payload.len() as u64);
        self.ready.extend_from_slice(&adler32(&payload).to_le_bytes());
        self.ready.extend_from_slice(&payload);
        self.wire_out += (self.ready.len() - before) as u64;
        if raw {
            self.raw_frames += 1;
        }
        self.adler.update(chunk);
        self.total_raw += chunk.len() as u64;
        self.next_index += 1;
    }
}

impl std::io::Write for StreamEncoder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.push(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Frame boundaries are fixed by the chunk size; there is no
        // partial-frame flush in the format, so this is a no-op.
        Ok(())
    }
}

/// One-shot convenience: encode `data` as a complete PSF1 stream.
pub fn encode_all(data: &[u8], cfg: &StreamConfig) -> Vec<u8> {
    let mut enc = StreamEncoder::new(cfg);
    enc.push(data);
    enc.finish()
}
