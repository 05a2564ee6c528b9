//! Per-layer metrics of the traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use snd_crypto::sha256::Sha256;
use snd_observe::json::{parse, Value};

use crate::report::{median, ratio, RunResult};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them. A
/// traced run prints all of them; one that does not apply to the workload
/// (the campaign sub-grids on a wave workload) reads 0.
pub fn layer_metrics() -> &'static [(String, String)] {
    static METRICS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    METRICS.get_or_init(|| {
        parse(BENCHMARK)
            .expect("BENCHMARK.json is valid JSON")
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists its per-layer metrics")
            .iter()
            .map(|m| {
                let field = |key: &str| {
                    m.get(key)
                        .and_then(Value::as_str)
                        .expect("a per-layer metric has a name and a unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    })
}

/// Per-wave values summed over the traced waves (reported as means per
/// wave), plus run-level values set once.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    waves: u64,
    collect_frames: u64,
    collect_bytes: u64,
    run_level: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Starts the next traced wave.
    pub fn wave(&mut self) {
        self.waves += 1;
    }

    /// Adds one wave's value of a per-wave metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(known(name), "unknown per-layer metric {name}");
        *self.sums.entry(name).or_default() += value;
    }

    /// Adds one wave's collect-phase traffic, which sizes the SHA-256 probe.
    pub fn add_collect_bytes(&mut self, frames: u64, bytes: u64) {
        self.collect_frames += frames;
        self.collect_bytes += bytes;
    }

    /// Sets a run-level metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(known(name), "unknown per-layer metric {name}");
        self.run_level.insert(name, value);
    }

    /// Pushes every per-layer metric into `result`, in table order.
    pub fn finish(mut self, result: &mut RunResult) {
        let waves = self.waves.max(1) as f64;
        let frame_len = ratio(self.collect_bytes as f64, self.collect_frames as f64).round();
        let sha256_ns = sha256_ns(frame_len as usize);
        let hash_ops = self.sums.get("crypto.hash_ops").copied().unwrap_or(0.0) / waves;
        self.run_level.insert("crypto.sha256_ns", sha256_ns);
        // An estimate: every hash op priced at one SHA-256 call over a
        // mean-sized collect frame.
        self.run_level
            .insert("crypto.est_s", hash_ops * sha256_ns * 1e-9);
        for (name, unit) in layer_metrics() {
            let value = match self.run_level.get(name.as_str()) {
                Some(&v) => v,
                None => self.sums.get(name.as_str()).map_or(0.0, |s| s / waves),
            };
            result.metric(name, value, unit);
        }
    }
}

fn known(name: &str) -> bool {
    layer_metrics().iter().any(|(n, _)| n == name)
}

/// Nanoseconds of one SHA-256 call over `len` bytes (median of 7 timed
/// batches).
fn sha256_ns(len: usize) -> f64 {
    const CALLS: u32 = 2_000;
    let data = vec![0x5a_u8; len];
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(Sha256::digest(black_box(&data)));
            }
            t.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `layers.json` documents every per-layer metric under one layer.
    #[test]
    fn layers_json_documents_every_metric_once() {
        let doc = parse(include_str!("../layers.json")).expect("layers.json is valid JSON");
        let mut documented: Vec<&str> = doc
            .get("layers")
            .and_then(Value::as_object)
            .expect("layers.json keys its metrics by layer")
            .iter()
            .flat_map(|(_, layer)| {
                layer
                    .get("metrics")
                    .and_then(Value::as_object)
                    .expect("each layer lists its metrics")
                    .iter()
                    .map(|(name, _)| name.as_str())
            })
            .collect();
        let mut listed: Vec<&str> = layer_metrics().iter().map(|(n, _)| n.as_str()).collect();
        documented.sort_unstable();
        listed.sort_unstable();
        assert_eq!(documented, listed);
        listed.dedup();
        assert_eq!(listed.len(), layer_metrics().len(), "names are unique");
    }
}
