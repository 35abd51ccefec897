//! Ablation A4: parallel and hybrid SoC+C-Engine compression — the
//! forward-looking designs the paper sketches (§IV "parallel compression
//! and decompression"; §V-C2 "hybrid design avenue for exploiting both SoC
//! and C-Engine in parallel").
//!
//! Sweeps core counts and placement strategies for chunked DEFLATE over a
//! large dataset, reporting the virtual makespan of each configuration.
//! Every strategy must emit exactly `par_deflate`'s stream, decompression
//! is one engine inflate of that stream, and the run exits non-zero if the
//! hybrid loses to engine-only on BF2 or uses the engine on BF3.

use bench::{banner, dataset, fmt_ms, Table};
use pedal::parallel::{
    bottleneck, hybrid_deflate, sequential_time, strategy_name, ParallelOutcome, ParallelStrategy,
};
use pedal_datasets::DatasetId;
use pedal_doca::{CompressJob, DocaContext, JobKind};
use pedal_dpu::{Algorithm, CostModel, Direction, Platform, SimDuration, SimInstant};
use pedal_par::{par_deflate, Level, ParConfig, DEFAULT_CHUNK};

fn main() {
    banner("Ablation A4", "Parallel / hybrid chunked DEFLATE (1 MiB chunks)");
    let data = dataset(DatasetId::SilesiaMozilla);
    println!("input: {} ({:.1} MB)\n", DatasetId::SilesiaMozilla.name(), data.len() as f64 / 1e6);
    let want =
        par_deflate(&data, Level::DEFAULT, &ParConfig::new(1).with_chunk_size(DEFAULT_CHUNK));

    for platform in Platform::ALL {
        let doca = DocaContext::open(platform).expect("doca");
        let cores_max = platform.spec().soc_cores;
        println!(
            "[{}] sequential single-core compress: {} ms",
            platform.name(),
            fmt_ms(sequential_time(&doca.costs, Direction::Compress, data.len()))
        );
        let mut t = Table::new(vec![
            "Strategy",
            "Compress(ms)",
            "Engine share(ms)",
            "SoC share(ms)",
            "Bottleneck",
            "Decompress(ms)",
        ]);
        let mut strategies = vec![
            ParallelStrategy::SocParallel { cores: 1 },
            ParallelStrategy::SocParallel { cores: 2 },
            ParallelStrategy::SocParallel { cores: cores_max / 2 },
            ParallelStrategy::SocParallel { cores: cores_max },
            ParallelStrategy::Hybrid { soc_cores: cores_max },
        ];
        strategies.dedup();
        for strategy in strategies {
            doca.workq.reset();
            let c = hybrid_deflate(&doca, &data, DEFAULT_CHUNK, strategy).expect("compress");
            assert!(c.bytes == want, "{strategy:?}: stream differs from par_deflate");
            if let ParallelStrategy::Hybrid { .. } = strategy {
                check_hybrid(&doca.costs, &data, &c);
            }
            doca.workq.reset();
            let job = CompressJob::new(JobKind::DeflateDecompress, c.bytes.clone())
                .with_expected_len(data.len());
            let (d, done) = doca.submit(job, SimInstant::EPOCH).expect("decompress");
            assert!(d.output == data, "round-trip");
            let engine_usable = c.engine_time.as_nanos() > 0;
            t.row(vec![
                strategy_name(strategy, engine_usable),
                fmt_ms(c.makespan),
                fmt_ms(c.engine_time),
                fmt_ms(c.soc_time),
                bottleneck(&c).name().to_string(),
                fmt_ms(done.elapsed_since(SimInstant::EPOCH)),
            ]);
        }
        t.print();
        println!();
    }
    println!(
        "On BF2 the engine is faster than all SoC cores combined, so the hybrid\n\
         planner sends (nearly) everything to the engine; on BF3 (no engine\n\
         compression) hybrid degenerates to SoC-parallel — scaling with cores.\n\
         Every strategy emits the same DEFLATE stream, so decompression is one\n\
         engine inflate whatever placement compressed it."
    );
}

/// The hybrid gates: never slower than the engine alone where the engine
/// compresses (BF2), and the engine untouched where it cannot (BF3).
fn check_hybrid(costs: &CostModel, data: &[u8], c: &ParallelOutcome) {
    let engine_only: Option<SimDuration> = data
        .chunks(DEFAULT_CHUNK)
        .map(|chunk| costs.cengine_lossless(Algorithm::Deflate, Direction::Compress, chunk.len()))
        .sum();
    match engine_only {
        Some(e) => assert!(c.makespan <= e, "hybrid {:?} > engine-only {e:?}", c.makespan),
        None => assert_eq!(c.engine_time, SimDuration::ZERO, "engine cannot compress here"),
    }
}
