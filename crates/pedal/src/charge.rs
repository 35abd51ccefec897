//! The one virtual-time charge of a PEDAL codec operation.
//!
//! Every caller computes bytes with [`crate::wire`] and charges them
//! here, from the [`CostProfile`] the pure codec recorded: the
//! synchronous [`crate::PedalContext`] and `pedal-service`'s core alike.
//! Placement decides only where the lossless stage runs and at what
//! rate — the simulated C-Engine emits the same bytes as the SoC codec,
//! so an engine is a rate on the same profile, not a second codec path.

use crate::wire::CostProfile;
use pedal_dpu::{Algorithm, CostModel, Direction, Placement, Platform, SimDuration, SimInstant};
use pedal_sz3::BackendKind;

/// A costed stage of one operation, reported in execution order so a
/// tracing caller can journal it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A copy of an uncompressed payload.
    Memcpy,
    /// A lossless codec on the SoC.
    SocExecute,
    /// zlib's Adler-32 pass (nested inside `SocExecute` on the SoC).
    Checksum,
    /// An engine submission; zero-length, since an executor never
    /// submits before its previous work completes.
    WorkqQueue,
    /// An engine pass over the lossless stage.
    EngineExecute,
    Sz3Predict,
    Sz3Quantize,
    Sz3Huffman,
    /// SZ3's lossless backend, on either placement.
    Sz3Backend,
}

/// What one operation cost and where its lossless stage ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// The codec stage: SoC work, engine work, or the SZ3 core plus its
    /// backend.
    pub main: SimDuration,
    /// The zlib split design's SoC-side Adler-32 after an engine pass
    /// (on the SoC, `main` already includes it).
    pub checksum: SimDuration,
    /// Where the lossless stage ran.
    pub placement: Placement,
    /// A C-Engine design ran on the SoC for lack of engine support.
    pub fell_back: bool,
}

impl Charge {
    pub fn total(&self) -> SimDuration {
        self.main + self.checksum
    }
}

/// Charge one operation begun at `begin` from its profile, reporting each
/// stage to `stage(stage, start, end, bytes)`. `engine` says the executor
/// has a C-Engine: the lossless stage then runs there whenever the design
/// is engine-placed on `platform` for `dir` (for SZ3, only a DEFLATE
/// backend). The reported stages sum exactly to [`Charge::total`].
pub fn charge(
    costs: &CostModel,
    platform: Platform,
    dir: Direction,
    engine: bool,
    profile: &CostProfile,
    begin: SimInstant,
    mut stage: impl FnMut(Stage, SimInstant, SimInstant, u64),
) -> Charge {
    let bytes = profile.lossless_bytes;
    let Some(design) = profile.design else {
        let end = begin + costs.memcpy(bytes);
        stage(Stage::Memcpy, begin, end, bytes as u64);
        return Charge {
            main: end.elapsed_since(begin),
            checksum: SimDuration::ZERO,
            placement: Placement::Soc,
            fell_back: false,
        };
    };
    let on_engine = engine
        && design.effective_placement(platform, dir) == Placement::CEngine
        && (design.algorithm != Algorithm::Sz3
            || profile.sz3_backend == Some(BackendKind::Deflate));
    let engine_pass =
        |at: SimInstant, stage: &mut dyn FnMut(Stage, SimInstant, SimInstant, u64)| {
            let algo = if design.algorithm == Algorithm::Lz4 {
                Algorithm::Lz4
            } else {
                Algorithm::Deflate
            };
            let done = at
                + costs
                    .cengine_lossless(algo, dir, bytes)
                    .expect("engine placement implies engine support");
            stage(Stage::WorkqQueue, at, at, profile.engine_input as u64);
            stage(Stage::EngineExecute, at, done, profile.engine_input as u64);
            done
        };
    let mut checksum = SimDuration::ZERO;
    let end = match design.algorithm {
        Algorithm::Sz3 => {
            let backend = match profile.sz3_backend {
                Some(BackendKind::Deflate) => costs.soc_lossless(Algorithm::Deflate, dir, bytes),
                Some(BackendKind::Pco) => costs.soc_lossless(Algorithm::Pco, dir, bytes),
                _ => costs.sz3_zs_backend(dir, bytes),
            };
            let core = profile.sz3_core_bytes as u64;
            let stages = costs.sz3_core_stages(dir, profile.sz3_core_bytes);
            match dir {
                Direction::Compress => {
                    // predict → quantize → huffman → backend
                    let t1 = begin + stages.predict;
                    let t2 = t1 + stages.quantize;
                    let t3 = t2 + stages.huffman;
                    stage(Stage::Sz3Predict, begin, t1, core);
                    stage(Stage::Sz3Quantize, t1, t2, core);
                    stage(Stage::Sz3Huffman, t2, t3, bytes as u64);
                    let end = if on_engine { engine_pass(t3, &mut stage) } else { t3 + backend };
                    stage(Stage::Sz3Backend, t3, end, bytes as u64);
                    end
                }
                Direction::Decompress => {
                    // backend → huffman → quantize → predict
                    let t1 =
                        if on_engine { engine_pass(begin, &mut stage) } else { begin + backend };
                    let t2 = t1 + stages.huffman;
                    let t3 = t2 + stages.quantize;
                    let end = t3 + stages.predict;
                    stage(Stage::Sz3Backend, begin, t1, bytes as u64);
                    stage(Stage::Sz3Huffman, t1, t2, bytes as u64);
                    stage(Stage::Sz3Quantize, t2, t3, core);
                    stage(Stage::Sz3Predict, t3, end, core);
                    end
                }
            }
        }
        algo if on_engine => {
            let done = engine_pass(begin, &mut stage);
            if algo == Algorithm::Zlib {
                // Split design: header and Adler-32 trailer on the SoC.
                checksum = costs.checksum(profile.checksum_bytes);
                stage(Stage::Checksum, done, done + checksum, profile.checksum_bytes as u64);
            }
            done
        }
        algo => {
            let total = costs.soc_lossless(algo, dir, bytes);
            let end = begin + total;
            stage(Stage::SocExecute, begin, end, bytes as u64);
            if algo == Algorithm::Zlib {
                // soc_lossless already includes the Adler-32 pass; surface
                // it as a tail span nested inside the SoC execution.
                let ck_start = begin + total.saturating_sub(costs.checksum(bytes));
                stage(Stage::Checksum, ck_start, end, bytes as u64);
            }
            end
        }
    };
    Charge {
        main: end.elapsed_since(begin),
        checksum,
        placement: if on_engine { Placement::CEngine } else { Placement::Soc },
        fell_back: design.falls_back(platform, dir),
    }
}
