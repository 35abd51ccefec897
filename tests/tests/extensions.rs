//! Integration coverage of the post-reproduction extensions (DESIGN.md §6):
//! parallel/hybrid compression, deployment modes, REL bounds, predictor
//! auto-selection, gzip, and the extra collectives — exercised together.

use pedal::{Datatype, Design, ParallelStrategy};
use pedal_codesign::{Deployment, PedalComm, PedalCommConfig};
use pedal_datasets::DatasetId;
use pedal_doca::{CompressJob, DocaContext, JobKind};
use pedal_dpu::{Platform, SimDuration, SimInstant};
use pedal_mpi::{run_world, WorldConfig};

#[test]
fn hybrid_compression_feeds_cross_platform_consumers() {
    // Compress with the BF2 hybrid planner; the result is a plain DEFLATE
    // stream, so one BF3 engine decompression job decodes it.
    let data = DatasetId::SilesiaSamba.generate_bytes(3_000_000);
    let bf2 = DocaContext::open(Platform::BlueField2).unwrap();
    let bf3 = DocaContext::open(Platform::BlueField3).unwrap();
    let packed =
        pedal::hybrid_deflate(&bf2, &data, 512 * 1024, ParallelStrategy::Hybrid { soc_cores: 8 })
            .unwrap();
    assert!(packed.engine_time > SimDuration::ZERO);
    let job =
        CompressJob::new(JobKind::DeflateDecompress, packed.bytes).with_expected_len(data.len());
    let (out, done) = bf3.submit(job, SimInstant::EPOCH).unwrap();
    assert_eq!(out.output, data);
    assert!(done > SimInstant::EPOCH);
}

#[test]
fn host_offload_pipelining_recovers_most_of_the_penalty() {
    let data = DatasetId::SilesiaXml.generate_bytes(4_000_000);
    let latency = |deployment: Deployment| {
        let payload = data.clone();
        let results = run_world(WorldConfig::new(2, Platform::BlueField2), move |mpi| {
            let cfg = PedalCommConfig::new(Design::CE_DEFLATE).with_deployment(deployment);
            let (mut comm, _) = PedalComm::init(mpi, cfg).unwrap();
            if mpi.rank == 0 {
                let mut out = 0u64;
                for it in 0..2u64 {
                    let t0 = mpi.now();
                    comm.send(mpi, 1, it, Datatype::Byte, &payload).unwrap();
                    let (_, done) = comm.recv(mpi, 1, 100 + it, payload.len()).unwrap();
                    if it == 1 {
                        out = done.elapsed_since(t0).as_nanos();
                    }
                }
                out
            } else {
                for it in 0..2u64 {
                    let (msg, _) = comm.recv(mpi, 0, it, payload.len()).unwrap();
                    comm.send(mpi, 0, 100 + it, Datatype::Byte, &msg).unwrap();
                }
                0
            }
        });
        results[0]
    };
    let on_dpu = latency(Deployment::OnDpu);
    let serial = latency(Deployment::HostOffload { pipelined: false });
    let piped = latency(Deployment::HostOffload { pipelined: true });
    assert!(serial > on_dpu, "offload must cost something");
    assert!(piped >= on_dpu, "pipelining can't beat on-DPU");
    assert!(piped < serial, "pipelining must help");
    // Pipelining recovers at least half the penalty.
    assert!((serial - piped) * 2 >= serial - on_dpu);
}

#[test]
fn rel_bound_travels_through_the_mpi_path() {
    // REL-mode SZ3 via the raw sz3 crate, shipped as opaque bytes over MPI
    // and decoded at the receiver, with the range-scaled bound verified.
    let field = pedal_sz3::Field::<f32>::from_bytes(
        pedal_sz3::Dims::d1(100_000),
        &DatasetId::Exaalt3.generate_bytes(400_000),
    );
    let cfg = pedal_sz3::Sz3Config::with_relative_bound(1e-4);
    let packed = pedal_sz3::compress(&field, &cfg);
    let results = run_world(WorldConfig::new(2, Platform::BlueField2), move |mpi| {
        use pedal_mpi::Bytes;
        if mpi.rank == 0 {
            mpi.send(1, 1, Bytes::from(packed.clone())).unwrap();
            Vec::new()
        } else {
            let (msg, _) = mpi.recv(0, 1).unwrap();
            pedal_sz3::decompress::<f32>(&msg).unwrap().data
        }
    });
    let (lo, hi) = field.range();
    let bound = 1e-4 * (hi - lo);
    for (a, b) in field.data.iter().zip(&results[1]) {
        assert!(((a - b).abs() as f64) <= bound * 1.0001);
    }
}

#[test]
fn auto_predictor_composes_with_backends() {
    let field = pedal_sz3::Field::<f32>::from_bytes(
        pedal_sz3::Dims::d1(50_000),
        &DatasetId::Exaalt1.generate_bytes(200_000),
    );
    for backend in [pedal_sz3::BackendKind::Zs, pedal_sz3::BackendKind::Deflate] {
        let cfg = pedal_sz3::Sz3Config { backend, ..pedal_sz3::Sz3Config::with_error_bound(1e-4) };
        let (stream, picked) = pedal_sz3::compress_auto(&field, &cfg);
        let recon = pedal_sz3::decompress::<f32>(&stream).unwrap();
        assert!(field.max_abs_diff(&recon) <= 1e-4, "{picked:?}/{backend:?}");
    }
}

#[test]
fn gzip_carries_dataset_content() {
    // The gzip envelope over a realistic dataset, including the CRC path.
    let data = DatasetId::SilesiaMozilla.generate_bytes(800_000);
    let z = pedal_zlib::gzip_compress(&data, pedal_zlib::Level::DEFAULT);
    assert!(z.len() < data.len() / 2, "mozilla-like data compresses ~2.7x");
    assert_eq!(pedal_zlib::gzip_decompress(&z).unwrap(), data);
}

#[test]
fn alltoall_of_compressed_blobs() {
    // Each rank pre-compresses a distinct dataset slice, exchanges blobs
    // all-to-all, and decodes what it received.
    let results = run_world(WorldConfig::new(4, Platform::BlueField3), |mpi| {
        use pedal_mpi::Bytes;
        let parts: Vec<Bytes> = (0..mpi.size)
            .map(|j| {
                let raw = DatasetId::SilesiaXml.generate_bytes(40_000 + (mpi.rank * 4 + j) * 1000);
                Bytes::from(pedal_deflate::compress(&raw, pedal_deflate::Level::FAST))
            })
            .collect();
        let got = pedal_mpi::alltoall(mpi, parts).unwrap();
        got.iter().map(|b| pedal_deflate::decompress(b).unwrap().len()).collect::<Vec<_>>()
    });
    for (me, lens) in results.iter().enumerate() {
        for (from, &len) in lens.iter().enumerate() {
            assert_eq!(len, 40_000 + (from * 4 + me) * 1000, "{from}->{me}");
        }
    }
}
