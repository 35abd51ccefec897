//! Parallel and hybrid compression — the paper's forward-looking designs.
//!
//! §IV: "future developments could involve various compression designs
//! using the SoC and C-Engine to achieve parallel compression and
//! decompression"; §V-C2 points at "a prospective hybrid design avenue for
//! exploiting both SoC and C-Engine in parallel".
//!
//! [`hybrid_deflate`] implements both on top of `pedal-par`'s sync-flush
//! DEFLATE fragments:
//!
//! * [`ParallelStrategy::SocParallel`] — every chunk is compressed on up to
//!   `cores` ARM cores (virtual time is the slowest core's track),
//! * [`ParallelStrategy::Hybrid`] — the first chunks go to the C-Engine (a
//!   single FIFO server) and the rest to the SoC cores, split by their
//!   calibrated throughput ratio so both tracks finish together.
//!
//! Either way the output is one plain RFC 1951 stream, byte-identical to
//! [`pedal_par::par_deflate`] at the same chunk size: the strategy changes
//! only virtual time, and any DEFLATE decoder inflates the result.

use crate::context::PedalError;
use pedal_doca::{CompressJob, DocaContext, JobKind};
use pedal_dpu::{Algorithm, CostModel, Direction, Placement, SimDuration, SimInstant};
use pedal_par::{par_deflate, Level, ParConfig, MIN_CHUNK};

/// How to parallelize a chunked compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Split across `cores` SoC cores.
    SocParallel { cores: usize },
    /// Split between the C-Engine and `soc_cores` SoC cores; if the engine
    /// cannot compress on this platform, everything goes to the SoC.
    Hybrid { soc_cores: usize },
}

/// Result of a chunked compression: the DEFLATE stream, the virtual
/// makespan, and per-track times for analysis.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    pub bytes: Vec<u8>,
    /// Virtual completion time of the slowest track.
    pub makespan: SimDuration,
    /// Virtual busy time of the engine track (zero when unused).
    pub engine_time: SimDuration,
    /// Virtual busy time of the slowest SoC core.
    pub soc_time: SimDuration,
    pub chunks: usize,
}

/// Compress `data` into one raw DEFLATE stream of `chunk_size` fragments
/// (clamped to [`MIN_CHUNK`]).
///
/// The engine's share is the leading chunks, submitted through the DOCA
/// queue as stream fragments; the SoC share is the rest, compressed by
/// [`par_deflate`] on `cores` host threads and appended. The virtual
/// makespan models the engine's FIFO track against `cores` SoC cores.
pub fn hybrid_deflate(
    doca: &DocaContext,
    data: &[u8],
    chunk_size: usize,
    strategy: ParallelStrategy,
) -> Result<ParallelOutcome, PedalError> {
    let costs = doca.costs;
    let chunk_size = chunk_size.max(MIN_CHUNK);
    let n = data.len().div_ceil(chunk_size);

    // Decide which chunks the engine takes.
    let (engine_take, cores) = match strategy {
        ParallelStrategy::SocParallel { cores } => (0, cores.max(1)),
        ParallelStrategy::Hybrid { soc_cores } => {
            let cores = soc_cores.max(1);
            if doca.supports(JobKind::DeflateCompress) {
                (optimal_engine_take(n, chunk_size, cores, costs), cores)
            } else {
                (0, cores)
            }
        }
    };

    // Engine share: sequential fragments through the DOCA queue; only the
    // stream's last chunk carries the final block.
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    let mut engine_time = SimDuration::ZERO;
    for (i, chunk) in data.chunks(chunk_size).enumerate().take(engine_take) {
        let job =
            CompressJob::new(JobKind::DeflateCompress, chunk.to_vec()).with_final_block(i == n - 1);
        let (r, done) = doca
            .submit(job, SimInstant::EPOCH + engine_time)
            .map_err(|e| PedalError::Doca(e.to_string()))?;
        out.extend_from_slice(&r.output);
        engine_time = done.elapsed_since(SimInstant::EPOCH);
    }

    // SoC share: the remaining chunks continue the same stream. An empty
    // input still needs its one (empty) final block.
    let soc = &data[(engine_take * chunk_size).min(data.len())..];
    if engine_take < n || data.is_empty() {
        let cfg = ParConfig::new(cores).with_chunk_size(chunk_size);
        out.extend_from_slice(&par_deflate(soc, Level::DEFAULT, &cfg));
    }

    // Virtual SoC track: round-robin chunk assignment across cores.
    let mut core_busy = vec![SimDuration::ZERO; cores];
    for (k, chunk) in soc.chunks(chunk_size).enumerate() {
        core_busy[k % cores] +=
            costs.soc_lossless(Algorithm::Deflate, Direction::Compress, chunk.len());
    }
    let soc_time = core_busy.into_iter().max().unwrap_or(SimDuration::ZERO);

    Ok(ParallelOutcome {
        bytes: out,
        makespan: engine_time.max(soc_time),
        engine_time,
        soc_time,
        chunks: n,
    })
}

/// Choose how many of `n` uniform chunks the engine should take so the
/// discrete two-track makespan is minimal. Accounts for chunk granularity:
/// when the engine dwarfs the combined SoC cores, the optimum is engine-only
/// (a single SoC chunk would dominate the makespan).
fn optimal_engine_take(n: usize, chunk_bytes: usize, cores: usize, costs: CostModel) -> usize {
    let engine_chunk = costs
        .cengine_lossless(Algorithm::Deflate, Direction::Compress, chunk_bytes)
        .expect("caller checked engine capability");
    let soc_chunk = costs.soc_lossless(Algorithm::Deflate, Direction::Compress, chunk_bytes);
    let mut best = (SimDuration(u64::MAX), n);
    for k in 0..=n {
        let engine = SimDuration(engine_chunk.0 * k as u64);
        let rounds = (n - k).div_ceil(cores) as u64;
        let soc = SimDuration(soc_chunk.0 * rounds);
        let makespan = engine.max(soc);
        if makespan < best.0 {
            best = (makespan, k);
        }
    }
    best.1
}

/// Placement summary for reporting.
pub fn strategy_name(s: ParallelStrategy, engine_usable: bool) -> String {
    match s {
        ParallelStrategy::SocParallel { cores } => format!("SoC x{cores}"),
        ParallelStrategy::Hybrid { soc_cores } if engine_usable => {
            format!("Hybrid (engine + SoC x{soc_cores})")
        }
        ParallelStrategy::Hybrid { soc_cores } => {
            format!("Hybrid -> SoC x{soc_cores} (engine unavailable)")
        }
    }
}

/// Which placement dominates the makespan of an outcome.
pub fn bottleneck(o: &ParallelOutcome) -> Placement {
    if o.engine_time >= o.soc_time {
        Placement::CEngine
    } else {
        Placement::Soc
    }
}

/// Predict the single-core sequential time for comparison tables.
pub fn sequential_time(costs: &CostModel, dir: Direction, bytes: usize) -> SimDuration {
    costs.soc_lossless(Algorithm::Deflate, dir, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_dpu::Platform;

    fn data() -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..200_000u32 {
            out.extend_from_slice(format!("record {} payload {}\n", i, i % 97).as_bytes());
            if out.len() > 3_000_000 {
                break;
            }
        }
        out
    }

    /// The single-worker `par_deflate` stream every strategy must reproduce.
    fn reference(data: &[u8], chunk: usize) -> Vec<u8> {
        par_deflate(data, Level::DEFAULT, &ParConfig::new(1).with_chunk_size(chunk))
    }

    fn soc(cores: usize) -> ParallelStrategy {
        ParallelStrategy::SocParallel { cores }
    }

    fn hybrid(soc_cores: usize) -> ParallelStrategy {
        ParallelStrategy::Hybrid { soc_cores }
    }

    /// Sweep platforms and core counts over prefixes of `data()` with chunk
    /// sizes below, at and above `MIN_CHUNK`, asserting byte identity with
    /// `par_deflate` and a stock inflate.
    fn assert_matches_par_deflate(lens: &[usize], strategy: fn(usize) -> ParallelStrategy) {
        let data = data();
        for &len in lens {
            let data = &data[..len];
            for chunk in [1_000, MIN_CHUNK, 2 * MIN_CHUNK] {
                let want = reference(data, chunk);
                assert_eq!(pedal_deflate::decompress(&want).unwrap(), data);
                for platform in Platform::ALL {
                    let doca = DocaContext::open(platform).unwrap();
                    for cores in [1, 2, 8, 16] {
                        let out = hybrid_deflate(&doca, data, chunk, strategy(cores)).unwrap();
                        assert!(out.bytes == want, "{platform:?} {cores} cores, {len} B / {chunk}");
                    }
                }
            }
        }
    }

    /// One input that is an exact multiple of every swept chunk size, and
    /// one that is not.
    const MULTI_CHUNK: [usize; 2] = [4 * MIN_CHUNK, 4 * MIN_CHUNK + 1_000];

    #[test]
    fn soc_parallel_roundtrip() {
        assert_matches_par_deflate(&MULTI_CHUNK, soc);
    }

    #[test]
    fn hybrid_matches_par_deflate() {
        assert_matches_par_deflate(&MULTI_CHUNK, hybrid);
    }

    #[test]
    fn single_chunk_and_empty_input() {
        assert_matches_par_deflate(&[0, 4], soc);
        assert_matches_par_deflate(&[0, 4], hybrid);
    }

    #[test]
    fn more_cores_shrink_the_makespan() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = data();
        let t1 = hybrid_deflate(&doca, &data, 256 * 1024, soc(1)).unwrap().makespan;
        let t8 = hybrid_deflate(&doca, &data, 256 * 1024, soc(8)).unwrap().makespan;
        assert!(
            t8.as_nanos() * 4 < t1.as_nanos(),
            "8 cores should be >4x faster: {t1:?} vs {t8:?}"
        );
    }

    #[test]
    fn hybrid_roundtrip_and_beats_engine_alone_on_bf2() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = data();
        // Small chunks make the SoC worth enlisting: both tracks get work,
        // and the engine's fragments must stitch onto the SoC's.
        let chunk = MIN_CHUNK;
        let out = hybrid_deflate(&doca, &data, chunk, hybrid(8)).unwrap();
        assert!(out.bytes == reference(&data, chunk));
        assert_eq!(pedal_deflate::decompress(&out.bytes).unwrap(), data);
        assert!(out.engine_time > SimDuration::ZERO, "engine must participate");
        assert!(out.soc_time > SimDuration::ZERO, "SoC must participate");
        // The hybrid makespan can't exceed an engine-only run of all chunks.
        let engine_only: Option<SimDuration> = data
            .chunks(chunk)
            .map(|c| doca.costs.cengine_lossless(Algorithm::Deflate, Direction::Compress, c.len()))
            .sum();
        assert!(out.makespan <= engine_only.unwrap());
    }

    #[test]
    fn hybrid_on_bf3_degrades_to_soc() {
        let doca = DocaContext::open(Platform::BlueField3).unwrap();
        let data = data();
        let out = hybrid_deflate(&doca, &data, 512 * 1024, hybrid(16)).unwrap();
        assert_eq!(out.engine_time, SimDuration::ZERO, "BF3 engine cannot compress");
        let soc_only = hybrid_deflate(&doca, &data, 512 * 1024, soc(16)).unwrap();
        assert_eq!(out.makespan, soc_only.makespan);
        assert!(out.bytes == soc_only.bytes);
    }
}
