//! Virtual-time golden: one fixed-seed corpus through the service on
//! BlueField-2 and BlueField-3, with every job's lane, batching flag,
//! start and completion instants, output size and output digest pinned,
//! plus the per-lane statistics tables. Routing and charging are pure
//! functions of the submission order, so any drift is a behaviour change.
//!
//! The corpus covers every design in both directions (decompression
//! follows the payload header, so two cross-placement decodes are
//! included), sub-threshold jobs coalesced into engine batches, two
//! three-fragment fan-outs, incompressible passthroughs, adaptive-policy
//! store-raw decisions, and three tenants. Every job succeeds.
//!
//! Pattern: pause, submit everything, resume, drain — the scheduler sees
//! the whole backlog at once. Regenerate deliberately with
//! `PEDAL_BLESS=1 cargo test -p pedal-service --test virtual_golden`.

use std::fmt::Write as _;

use pedal::{wire, Datatype, Design, PedalHeader};
use pedal_datasets::DatasetId;
use pedal_dpu::{Pcg32, Platform, SimDuration, SimInstant};
use pedal_obs::ToJson;
use pedal_policy::fnv1a64;
use pedal_service::{JobDesc, JobOp, PedalService, PolicyConfig, ServiceConfig, MIN_PAR_CHUNK};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/virtual_golden.txt");

fn text_payload(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    for b in data.iter_mut().skip(1).step_by(2) {
        *b = b'x';
    }
    data
}

fn f32_payload(rng: &mut Pcg32, elements: usize) -> Vec<u8> {
    let mut acc = 0.0f32;
    (0..elements)
        .flat_map(|_| {
            acc += rng.gen_range(-0.5f64..0.5) as f32;
            acc.to_le_bytes()
        })
        .collect()
}

fn f64_payload(rng: &mut Pcg32, elements: usize) -> Vec<u8> {
    let mut acc = 0.0f64;
    (0..elements)
        .flat_map(|_| {
            acc += rng.gen_range(-0.5f64..0.5);
            acc.to_le_bytes()
        })
        .collect()
}

/// Compress with the wire layer (the service's own byte format) so
/// decompress jobs get well-formed payloads of any design.
fn payload(design: Design, datatype: Datatype, data: &[u8]) -> Vec<u8> {
    wire::compress_payload(design, datatype, 1e-4, data).unwrap().0
}

/// The mixed corpus in submission order; each job carries the bytes a
/// lossless decompression must reproduce.
fn mixed_corpus(seed: u64) -> Vec<(JobDesc, Option<Vec<u8>>)> {
    let mut rng = Pcg32::seed_from_u64(seed);
    let text = text_payload(&mut rng, 8 << 10);
    let floats = f32_payload(&mut rng, 2 << 10);
    let doubles = f64_payload(&mut rng, 1 << 10);
    let mut noise = vec![0u8; 4 << 10];
    rng.fill_bytes(&mut noise);
    let big = text_payload(&mut rng, 2 * MIN_PAR_CHUNK + 8_000);

    // Fan-outs: one onto idle channels, one behind queued engine work.
    let mut jobs = vec![(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, big.clone()), None)];
    for design in Design::EXTENDED {
        let (datatype, data) =
            if design.is_lossy() { (Datatype::Float32, &floats) } else { (Datatype::Byte, &text) };
        jobs.push((JobDesc::compress(design, datatype, data.clone()), None));
        let p = payload(design, datatype, data);
        let expected = if design.is_lossy() { None } else { Some(data.clone()) };
        jobs.push((JobDesc::decompress(design, p, data.len()), expected));
    }
    jobs.push((JobDesc::compress(Design::CE_SZ3, Datatype::Float64, doubles.clone()), None));
    // Decompression follows the header, not the submitted design.
    let lz4 = payload(Design::SOC_LZ4, Datatype::Byte, &text);
    jobs.push((JobDesc::decompress(Design::CE_DEFLATE, lz4, text.len()), Some(text.clone())));
    let zlib = payload(Design::CE_ZLIB, Datatype::Byte, &text);
    jobs.push((JobDesc::decompress(Design::SOC_ZLIB, zlib, text.len()), Some(text.clone())));
    // Incompressible: break-even passthrough on both placements, then a
    // decode of the passthrough frame.
    jobs.push((JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, noise.clone()), None));
    jobs.push((JobDesc::compress(Design::SOC_LZ4, Datatype::Byte, noise.clone()), None));
    let raw = wire::frame(PedalHeader::Uncompressed, noise.len(), &noise);
    jobs.push((JobDesc::decompress(Design::CE_DEFLATE, raw, noise.len()), Some(noise.clone())));
    jobs.push((JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, big[4_000..].to_vec()), None));
    // Sub-threshold engine compressions inside one batch window.
    for len in [500, 1_200, 2_000, 700, 3_000, 900] {
        jobs.push((
            JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, text[..len].to_vec()),
            None,
        ));
    }
    jobs
}

fn adaptive_corpus() -> Vec<(JobDesc, Option<Vec<u8>>)> {
    [
        DatasetId::LogText.generate_bytes(16 << 10),
        DatasetId::RandomBlob.generate_bytes(16 << 10),
        DatasetId::FloatColumn.generate_bytes(16 << 10),
        DatasetId::LogText.generate_bytes(256),
        DatasetId::LogText.generate_bytes(4 << 10),
    ]
    .into_iter()
    .map(|data| (JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data), None))
    .collect()
}

/// Run one scenario and render its golden lines.
fn run(label: &str, cfg: ServiceConfig, corpus: Vec<(JobDesc, Option<Vec<u8>>)>) -> String {
    let svc = PedalService::start(cfg.with_queue_capacity(256));
    svc.pause();
    let mut expected = Vec::new();
    for (i, (desc, want)) in corpus.into_iter().enumerate() {
        let desc = desc.with_tenant(i as u32 % 3).with_arrival(SimInstant(i as u64 * 20_000));
        let compress = matches!(desc.op, JobOp::Compress { .. });
        let id = svc.submit(desc).unwrap();
        expected.push((id, compress, want));
    }
    svc.resume();
    let done = svc.drain();
    let (_, stats) = svc.shutdown();
    assert_eq!(done.len(), expected.len(), "{label}: every job completes");

    let mut out = String::new();
    for (job, (id, compress, want)) in done.iter().zip(&expected) {
        assert_eq!(job.id, *id);
        let bytes = &job.result.as_ref().unwrap_or_else(|e| panic!("{label}: job {id}: {e}")).bytes;
        if let Some(want) = want {
            assert_eq!(bytes, want, "{label}: job {id} round-trip");
        }
        let m = job.metrics.expect("served jobs carry metrics");
        writeln!(
            out,
            "{label} id={id} {} tenant={} lane={} batched={} started={} completed={} \
             bytes_out={} fnv={:016x}",
            if *compress { "compress" } else { "decompress" },
            job.tenant,
            m.lane,
            m.batched,
            m.started.0,
            m.completed.0,
            bytes.len(),
            fnv1a64(bytes),
        )
        .unwrap();
    }
    let mut json = String::new();
    for lane in stats.soc_lanes.iter().chain(&stats.channel_lanes) {
        json.clear();
        lane.to_json().write(&mut json);
        writeln!(out, "{label} lane {json}").unwrap();
    }
    writeln!(
        out,
        "{label} completed={} failed={} batched_jobs={} makespan={}",
        stats.completed,
        stats.failed,
        stats.batched_jobs,
        stats.makespan.as_nanos()
    )
    .unwrap();
    out
}

#[test]
fn virtual_timeline_matches_golden() {
    let mut actual = String::new();
    for platform in [Platform::BlueField2, Platform::BlueField3] {
        let mixed = ServiceConfig::new(platform)
            .with_soc_workers(2)
            .with_ce_channels(2)
            .with_batching(4_096, 4, SimDuration::from_micros(200))
            .with_parallel(2 * MIN_PAR_CHUNK, MIN_PAR_CHUNK);
        actual += &run(&format!("{platform:?} mixed"), mixed, mixed_corpus(0x601D_0001));
        let adaptive = ServiceConfig::new(platform)
            .with_soc_workers(2)
            .with_ce_channels(2)
            .with_adaptive_policy(PolicyConfig::default());
        actual += &run(&format!("{platform:?} adaptive"), adaptive, adaptive_corpus());
    }

    if std::env::var_os("PEDAL_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} drifted", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "golden line count");
}
