//! # hostbench
//!
//! Host wall-clock benchmark of pedal-rs. Three workloads, each a
//! function of its seed: `p2p_roundtrip` (closed-loop PEDAL compress +
//! decompress, MPI point-to-point style), `bcast_decode` (closed-loop
//! decode only, broadcast receiver style) and `fleet_small` (the adaptive
//! fleet replaying an open-loop trace). An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) reports per-layer
//! metrics from spans around every call the benchmark makes into a layer
//! and writes them as a Chrome trace. See README.md.

pub mod closed;
mod fleet;
mod kernels;
pub mod layers;
pub mod report;
mod serve;
mod trace;

use report::Report;

/// Name and unit of each end-to-end metric, in the order every workload
/// reports them (BENCHMARK.json lists the same names).
pub const END_TO_END: [(&str, &str); 9] = [
    ("throughput_MBps", "MB/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("host_s_per_virtual_s", "s/s"),
    ("slo_attainment_pct", "%"),
    ("ratio", "x"),
    ("peak_rss_MB", "MB"),
    ("setup_s", "s"),
    ("ok_pct", "%"),
];

/// Set-up is repeated this many times per run and reported as the
/// median, so a one-off stall does not read as a set-up regression.
pub const SETUP_SAMPLES: usize = 9;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    P2pRoundtrip,
    BcastDecode,
    FleetSmall,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::P2pRoundtrip, Workload::BcastDecode, Workload::FleetSmall];

    pub fn name(self) -> &'static str {
        match self {
            Workload::P2pRoundtrip => "p2p_roundtrip",
            Workload::BcastDecode => "bcast_decode",
            Workload::FleetSmall => "fleet_small",
        }
    }
}

/// A fault the benchmark injects into its own outputs, so tests can show
/// that verification trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Corrupt every third decoded output of a closed-loop workload.
    CorruptDecode,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for smoke tests.
    pub smoke: bool,
    pub fault: Fault,
}

pub const USAGE: &str = "usage: hostbench --workload <p2p_roundtrip|bcast_decode|fleet_small> \
     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

impl Config {
    /// Parse command-line arguments (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("seconds must be in (0, 120], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            smoke,
            fault: Fault::None,
        })
    }
}

/// Run one workload and report it, run facts first.
pub fn run(cfg: &Config) -> Report {
    let mut report = match cfg.workload {
        Workload::P2pRoundtrip => closed::run(cfg, closed::Mode::RoundTrip),
        Workload::BcastDecode => closed::run(cfg, closed::Mode::Decode),
        Workload::FleetSmall => fleet::run(cfg),
    };
    let mut facts = Report::default();
    report::machine_facts(&mut facts);
    facts.fact("workload", cfg.workload.name());
    facts.fact("seed", cfg.seed);
    facts.fact("seconds", cfg.seconds);
    facts.fact("traced", cfg.trace);
    facts.fact("smoke", cfg.smoke);
    facts.facts.append(&mut report.facts);
    report.facts = facts.facts;
    report
}
