//! Virtual-time golden for the synchronous context: fixed-seed payloads
//! through every design on BlueField-2 and BlueField-3, under both
//! overhead modes, with every [`TimingBreakdown`] field, the placement,
//! the fallback and passthrough flags, and the output's length and
//! FNV-1a digest pinned per operation.
//!
//! Each context compresses then decompresses text, f32 and f64 payloads
//! (whichever its algorithm accepts), one incompressible buffer, and the
//! payload of its opposite-placement twin (decompression follows the
//! header, not the context's design). Charging is a pure function of the
//! bytes and the context's own clock, so any drift is a behaviour change.
//!
//! Regenerate deliberately with
//! `PEDAL_BLESS=1 cargo test -p pedal --test context_golden`.

use std::fmt::Write as _;

use pedal::{wire, Datatype, Design, PedalConfig, PedalContext, TimingBreakdown};
use pedal_dpu::{Algorithm, Pcg32, Placement, Platform};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/context_golden.txt");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

struct Corpus {
    text: Vec<u8>,
    floats: Vec<u8>,
    doubles: Vec<u8>,
    noise: Vec<u8>,
}

fn corpus() -> Corpus {
    let mut rng = Pcg32::seed_from_u64(0xC7_0001);
    let mut text = vec![0u8; 16 << 10];
    rng.fill_bytes(&mut text);
    for b in text.iter_mut().skip(1).step_by(2) {
        *b = b'x';
    }
    let mut acc = 0.0f64;
    let mut walk = |rng: &mut Pcg32| {
        acc += rng.gen_range(-0.5f64..0.5);
        acc
    };
    let floats = (0..4 << 10).flat_map(|_| (walk(&mut rng) as f32).to_le_bytes()).collect();
    let doubles = (0..2 << 10).flat_map(|_| walk(&mut rng).to_le_bytes()).collect();
    let mut noise = vec![0u8; 4 << 10];
    rng.fill_bytes(&mut noise);
    Corpus { text, floats, doubles, noise }
}

/// The payloads a design accepts, labelled.
fn inputs(design: Design, c: &Corpus) -> Vec<(&'static str, Datatype, &[u8])> {
    let text = ("text", Datatype::Byte, &c.text[..]);
    let f32s = ("f32", Datatype::Float32, &c.floats[..]);
    let f64s = ("f64", Datatype::Float64, &c.doubles[..]);
    let noise = ("noise", Datatype::Byte, &c.noise[..]);
    match design.algorithm {
        Algorithm::Sz3 => vec![f32s, f64s],
        Algorithm::Pco => vec![text, f32s, f64s, noise],
        _ => vec![text, noise],
    }
}

/// The same algorithm at the other placement.
fn twin(design: Design) -> Design {
    let placement = match design.placement {
        Placement::Soc => Placement::CEngine,
        Placement::CEngine => Placement::Soc,
    };
    Design { placement, ..design }
}

fn timing(t: &TimingBreakdown) -> String {
    format!(
        "doca_init={} buffer_prep={} compress={} decompress={} checksum={}",
        t.doca_init.as_nanos(),
        t.buffer_prep.as_nanos(),
        t.compress.as_nanos(),
        t.decompress.as_nanos(),
        t.checksum.as_nanos(),
    )
}

fn run(platform: Platform, design: Design, baseline: bool, c: &Corpus) -> String {
    let mut cfg = PedalConfig::new(platform, design);
    if baseline {
        cfg = cfg.baseline();
    }
    let ctx = PedalContext::init(cfg).unwrap();
    let label = format!("{platform:?} {design} {:?}", cfg.overhead_mode);
    let mut out = String::new();
    for (name, datatype, data) in inputs(design, c) {
        let packed = ctx.compress(datatype, data).unwrap();
        writeln!(
            out,
            "{label} compress {name} {} placement={:?} fell_back={} passthrough={} len={} fnv={:016x}",
            timing(&packed.timing),
            packed.placement,
            packed.fell_back,
            packed.passthrough,
            packed.payload.len(),
            fnv1a64(&packed.payload),
        )
        .unwrap();
        let mut decode = |what: String, payload: &[u8]| {
            let d = ctx.decompress(payload, data.len()).unwrap();
            if !design.is_lossy() {
                assert_eq!(d.data, data, "{label} {what}");
            }
            writeln!(
                out,
                "{label} decompress {what} {} placement={:?} fell_back={} len={} fnv={:016x}",
                timing(&d.timing),
                d.placement,
                d.fell_back,
                d.data.len(),
                fnv1a64(&d.data),
            )
            .unwrap();
        };
        decode(name.to_string(), &packed.payload);
        let other = twin(design);
        let foreign = wire::compress_payload(other, datatype, cfg.error_bound, data).unwrap().0;
        decode(format!("{name} from {other}"), &foreign);
    }
    out
}

#[test]
fn context_timing_matches_golden() {
    let c = corpus();
    let mut actual = String::new();
    for platform in [Platform::BlueField2, Platform::BlueField3] {
        for design in Design::EXTENDED {
            for baseline in [false, true] {
                actual += &run(platform, design, baseline, &c);
            }
        }
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
