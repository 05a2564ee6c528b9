//! Run results, the host description, and the in-memory span log.

use std::fmt::Write as _;
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation prints as its last line.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations run: one per wave, one per campaign cell.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Counts one operation and reports a failed check on stderr.
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            eprintln!("CHECK FAILED {what}: {why}");
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with all the digits of its value.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // Non-finite values have no JSON form; no metric produces one
            // unless a denominator the workload guarantees is zero.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc` and the CPU model, recorded with every run.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("host nproc={nproc} cpu=\"{cpu}\"")
}

/// One closed span, or one engine profiler path converted to self time
/// (`start_ns` is `None` for those: the profiler keeps totals only).
#[derive(Debug)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    /// The operation the span belongs to; spans of one operation share it.
    pub op: u64,
    pub name: String,
    pub start_ns: Option<u64>,
    pub dur_ns: u64,
}

/// Spans kept in memory during a traced run and written when it ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    records: Vec<SpanRecord>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            records: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &str) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.push(op, parent, name, Some(start_ns), 0)
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now_ns = self.origin.elapsed().as_nanos() as u64;
        let record = &mut self.records[id];
        record.dur_ns = now_ns - record.start_ns.expect("opened spans have a start");
        record.dur_ns as f64 * 1e-9
    }

    /// Records a span of `dur_ns`; engine profiler paths have no start.
    pub fn push(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        start_ns: Option<u64>,
        dur_ns: u64,
    ) -> usize {
        let id = self.records.len();
        self.records.push(SpanRecord {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            dur_ns,
        });
        id
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let start = r.start_ns.map_or("null".to_string(), |s| s.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {start}, \"dur_ns\": {}}}",
                r.id, r.op, r.name, r.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut r = RunResult::default();
        r.record("op", Ok(()));
        r.metric("run_s", 0.123456789012, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
    }
}
