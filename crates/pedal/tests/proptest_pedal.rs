//! Seeded random tests of the PEDAL context: round-trip integrity over
//! every design, header robustness, and passthrough correctness. Ported
//! from proptest to an in-tree fixed-seed case generator (`--features
//! fuzz` multiplies case counts).

use pedal::{Datatype, Design, PedalConfig, PedalContext, PedalHeader};
use pedal_dpu::{Pcg32, Platform};

fn cases(base: usize) -> usize {
    if cfg!(feature = "fuzz") {
        base * 16
    } else {
        base
    }
}

const LOSSLESS_DESIGNS: [Design; 6] = [
    Design::SOC_DEFLATE,
    Design::CE_DEFLATE,
    Design::SOC_ZLIB,
    Design::CE_ZLIB,
    Design::SOC_LZ4,
    Design::CE_LZ4,
];

const PLATFORMS: [Platform; 2] = [Platform::BlueField2, Platform::BlueField3];

fn arbitrary_vec(rng: &mut Pcg32, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn lossless_roundtrip_arbitrary_bytes() {
    let mut rng = Pcg32::seed_from_u64(0x9EDA_0001);
    for case in 0..cases(16) {
        let data = arbitrary_vec(&mut rng, 30_000);
        let design = LOSSLESS_DESIGNS[rng.gen_range(0usize..6)];
        let platform = PLATFORMS[rng.gen_range(0usize..2)];
        let ctx = PedalContext::init(PedalConfig::new(platform, design)).unwrap();
        let packed = ctx.compress(Datatype::Byte, &data).unwrap();
        // Wire message never blows up beyond raw + small framing.
        assert!(packed.wire_len() <= data.len() + data.len() / 8 + 64, "case {case}");
        let out = ctx.decompress(&packed.payload, data.len()).unwrap();
        assert_eq!(out.data, data, "case {case} {design:?}");
    }
}

#[test]
fn sz3_roundtrip_bounded() {
    let mut rng = Pcg32::seed_from_u64(0x9EDA_0002);
    for case in 0..cases(16) {
        let vals: Vec<f32> =
            (0..rng.gen_range(1usize..4_000)).map(|_| rng.gen_range(-1e5f64..1e5) as f32).collect();
        let platform = PLATFORMS[rng.gen_range(0usize..2)];
        let design = if rng.gen::<bool>() { Design::CE_SZ3 } else { Design::SOC_SZ3 };
        let mut data = Vec::with_capacity(vals.len() * 4);
        for v in &vals {
            data.extend_from_slice(&v.to_le_bytes());
        }
        let ctx =
            PedalContext::init(PedalConfig::new(platform, design).with_error_bound(1e-2)).unwrap();
        let packed = ctx.compress(Datatype::Float32, &data).unwrap();
        let out = ctx.decompress(&packed.payload, data.len()).unwrap();
        for (a, b) in vals.iter().zip(out.data.chunks_exact(4)) {
            let y = f32::from_le_bytes(b.try_into().unwrap());
            assert!(((a - y).abs() as f64) <= 1e-2 + 1e-9, "case {case}: {a} vs {y}");
        }
    }
}

#[test]
fn decompress_never_panics_on_garbage() {
    let mut rng = Pcg32::seed_from_u64(0x9EDA_0003);
    for _ in 0..cases(48) {
        let junk = arbitrary_vec(&mut rng, 2_000);
        let claimed_len = rng.gen_range(0usize..10_000);
        let design = LOSSLESS_DESIGNS[rng.gen_range(0usize..6)];
        let ctx = PedalContext::init(PedalConfig::new(Platform::BlueField2, design)).unwrap();
        let _ = ctx.decompress(&junk, claimed_len);
    }
}

#[test]
fn header_parse_total_for_any_three_bytes() {
    // Parsing is total: every 3-byte prefix either parses or errors, and
    // the only accepted headers are the canonical ones. The 3-byte domain
    // is small enough to sweep exhaustively instead of sampling.
    for b0 in [0x00u8, 0x7F, 0xFE, 0xFF] {
        for b1 in 0..=255u8 {
            for b2 in [0x00u8, 0x7F, 0xFE, 0xFF] {
                let parsed = PedalHeader::parse(&[b0, b1, b2]);
                if b0 == 0xFF && b2 == 0xFF && (b1 == 0 || Design::from_algo_id(b1).is_some()) {
                    assert!(parsed.is_ok(), "{b0:#x} {b1:#x} {b2:#x}");
                } else {
                    assert!(parsed.is_err(), "{b0:#x} {b1:#x} {b2:#x}");
                }
            }
        }
    }
}

#[test]
fn chunked_parallel_roundtrip() {
    // Every strategy and core count emits exactly `par_deflate`'s stream,
    // so a stock inflate round-trips it. Inputs span several chunks.
    let mut rng = Pcg32::seed_from_u64(0x9EDA_0004);
    let doca = pedal_doca::DocaContext::open(Platform::BlueField2).unwrap();
    for case in 0..cases(16) {
        let data = arbitrary_vec(&mut rng, 300_000);
        let chunk = rng.gen_range(1usize..150_000);
        let cores = rng.gen_range(1usize..17);
        let strategy = if rng.gen::<bool>() {
            pedal::ParallelStrategy::SocParallel { cores }
        } else {
            pedal::ParallelStrategy::Hybrid { soc_cores: cores }
        };
        let c = pedal::hybrid_deflate(&doca, &data, chunk, strategy).unwrap();
        let cfg = pedal_par::ParConfig::new(1).with_chunk_size(chunk);
        let want = pedal_par::par_deflate(&data, pedal_deflate::Level::DEFAULT, &cfg);
        assert!(c.bytes == want, "case {case}: {strategy:?} chunk {chunk}");
        assert_eq!(pedal_deflate::decompress(&c.bytes).unwrap(), data, "case {case}");
    }
}
