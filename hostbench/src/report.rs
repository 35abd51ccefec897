//! Metric values, run facts, the result line, and the host probes they
//! come from (percentiles, resident memory, machine facts).

use pedal_obs::Json;

/// One named measurement with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub facts: Vec<(String, String)>,
    /// The end-to-end metrics (untraced measurement).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable extras printed but not part of the result line.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Run-level checks beyond per-operation verification (replay
    /// digests); false fails the run.
    pub checks_ok: bool,
    /// Chrome trace of the traced phase, when there was one.
    pub trace_json: Option<String>,
}

impl Report {
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks_ok && self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).chain(&self.notes).find(|m| m.name == name)
    }

    /// The human-readable lines: facts, then every metric by name with
    /// its unit and sample count.
    pub fn human(&self, traced: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.facts {
            out.push_str(&format!("fact {k} = {v}\n"));
        }
        let sections: [(&str, &[Metric]); 3] = [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
            ("note", &self.notes),
        ];
        for (label, metrics) in sections {
            for m in metrics {
                out.push_str(&format!(
                    "{label} {} = {} {} (n={})\n",
                    m.name, m.value, m.unit, m.samples
                ));
            }
        }
        out.push_str(&format!(
            "outcome attempted={} failed={} failed_pct={} correct={} traced={}\n",
            self.attempted,
            self.failed,
            pct(self.failed, self.attempted),
            self.correct(),
            traced
        ));
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        let fields = metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        let mut out = String::new();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::obj(fields)),
        ])
        .write(&mut out);
        out
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Nearest-rank quantile `q` in `0..=1` of unsorted `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Latency quantile `q`, estimated as the mean of the samples ranked
/// within two percentile points of it. A run repeats a fixed set of
/// messages or traces, so its samples come in clusters, one per input; a
/// plain order statistic jumps from one input's latency to the next when
/// noise swaps their ranks, while the window mean moves smoothly.
pub fn latency_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = |p: f64| ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let window = &v[rank(q - 0.02) - 1..rank(q + 0.02)];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Peak resident memory of a phase, above the level when it started.
pub struct RssProbe {
    start_kb: u64,
}

impl RssProbe {
    /// Return freed heap pages to the OS, reset the kernel's high-water
    /// mark, and note the current level.
    pub fn start() -> Self {
        trim_heap();
        // Writing 5 to clear_refs resets VmHWM to the current RSS. Where
        // it is refused the high-water mark still bounds the phase.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        Self { start_kb: status_kb("VmRSS:").unwrap_or(0) }
    }

    /// Peak RSS since [`RssProbe::start`] above the starting level, in MB.
    pub fn peak_mb(&self) -> f64 {
        let hwm = status_kb("VmHWM:").unwrap_or(self.start_kb);
        hwm.saturating_sub(self.start_kb) as f64 * 1024.0 / 1e6
    }
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only releases
    // free heap pages; it is safe to call at any point outside a signal
    // handler.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Facts about the machine and build every run reports.
pub fn machine_facts(report: &mut Report) {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    report.fact("nproc", nproc);
    report.fact("rustc", env!("HOSTBENCH_RUSTC"));
    report.fact("git_commit", git_commit().unwrap_or_else(|| "unknown".into()));
}

/// The checked-out commit, read from the checkout's `.git` (the
/// benchmark reads nothing outside its checkout, so no `git` call).
fn git_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find(|l| l.ends_with(name)).and_then(|l| l.split(' ').next()).map(String::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn latency_quantile_averages_a_window_around_the_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(latency_quantile(&v, 0.9), 90.0);
        assert_eq!(latency_quantile(&v, 0.5), 50.0);
        assert_eq!(latency_quantile(&[4.0], 0.9), 4.0);
        // Two clusters: the estimate sits between them, not on either.
        let mut c = vec![10.0; 89];
        c.extend(vec![20.0; 11]);
        let q = latency_quantile(&c, 0.9);
        assert!(q > 10.0 && q < 20.0, "{q}");
    }

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let mut r = Report { checks_ok: true, attempted: 2, ..Report::default() };
        r.end_to_end.push(Metric { name: "x_ms", value: 1.25, unit: "ms", samples: 2 });
        let json = pedal_obs::parse_json(&r.result_line(false)).unwrap();
        let Json::Obj(fields) = &json else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let x = json.get("metrics").and_then(|m| m.get("x_ms")).unwrap();
        assert_eq!(x.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
