//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload, print facts and metrics by name, then the result as
//! one JSON line. A traced run also writes its spans to
//! `hostbench/out/<workload>-seed<n>.trace.json`.

use hostbench::{Config, USAGE};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = hostbench::run(&cfg);
    if let Some(trace) = report.trace_json.take() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.trace.json", cfg.workload.name(), cfg.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, trace)) {
            Ok(()) => report.fact("trace_file", path.display()),
            Err(e) => eprintln!("hostbench: could not write {}: {e}", path.display()),
        }
    }
    print!("{}", report.human(cfg.trace));
    println!("{}", report.result_line(cfg.trace));
    ExitCode::SUCCESS
}
