//! Counters recorded for the default seed (`perfbench/expected.json`).
//!
//! A change that only makes the program faster leaves every one of them
//! as it is; a change that alters the simulation fails the check.

use std::sync::OnceLock;

use snd_observe::json::{parse, Value};

use crate::wave::Counters;

const EXPECTED: &str = include_str!("../expected.json");

struct Expected {
    seed: u64,
    waves: Vec<(String, Vec<Counters>)>,
}

fn load() -> &'static Expected {
    static CELL: OnceLock<Expected> = OnceLock::new();
    CELL.get_or_init(|| {
        let root = parse(EXPECTED).expect("expected.json is valid JSON");
        let num = |v: &Value| v.as_f64().expect("expected.json holds numbers") as u64;
        let waves = root
            .get("waves")
            .and_then(Value::as_object)
            .expect("expected.json has a waves object")
            .iter()
            .map(|(name, rows)| {
                let rows = rows
                    .as_array()
                    .expect("one array of waves per workload")
                    .iter()
                    .map(|row| {
                        let f = row.as_array().expect("one array per wave");
                        Counters {
                            frames_delivered: num(&f[0]),
                            bytes_sent: num(&f[1]),
                            hash_ops: num(&f[2]),
                            functional_edges: num(&f[3]),
                        }
                    })
                    .collect();
                (name.clone(), rows)
            })
            .collect();
        Expected {
            seed: num(root.get("seed").expect("expected.json has a seed")),
            waves,
        }
    })
}

/// The recorded counters of wave `k` of `workload`, when `seed` is the
/// seed they were recorded for and wave `k` was recorded.
pub fn wave(workload: &str, seed: u64, k: u64) -> Option<Counters> {
    let e = load();
    if seed != e.seed {
        return None;
    }
    e.waves
        .iter()
        .find(|(name, _)| name == workload)
        .and_then(|(_, rows)| rows.get(k as usize).copied())
}
