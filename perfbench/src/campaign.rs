//! The `campaign-grid` workload: the committed 84-cell spec run through
//! `run_campaign` on one worker, every cell checked.

use std::hint::black_box;
use std::time::Instant;

use snd_campaign::{run_campaign, CampaignSpec, CellRow, DefenseSpec, EnvironmentSpec};
use snd_core::protocol::{DiscoveryEngine, ProtocolConfig};
use snd_exec::{stream_seed, Executor};
use snd_observe::json::{parse, Value};
use snd_observe::profile::Profiler;
use snd_sim::faults::{FaultPlan, FaultSpec, LossBurst};
use snd_sim::jamming::JamZone;
use snd_sim::time::SimTime;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{Circle, Field, NodeId, Point};

use crate::layers::Layers;
use crate::report::{median, peak_rss_mb, RunResult, Spans};
use crate::wave::{reliability, traced_wave};

/// The committed spec behind `BENCH_campaign.json`.
pub const SPEC: &str = include_str!("../../crates/campaign/specs/ci.campaign");
/// The committed grid the default seed must reproduce.
const COMMITTED: &str = include_str!("../../BENCH_campaign.json");
/// Spec parses per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Seed stream of the traced run's fault probes.
const PROBE_STREAM: u64 = 0x9B0;

/// The committed spec, reseeded: cell `i` runs under `stream_seed(seed, i)`.
pub fn spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::parse(SPEC).expect("the committed spec parses");
    spec.seed = seed;
    spec
}

/// A cell's verdict: the fields `BENCH_campaign.json` commits.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub attacker: String,
    pub environment: String,
    pub defense: String,
    pub attempts: u64,
    pub blocked: u64,
    pub detection_rate: f64,
    pub benign_pairs: u64,
    pub false_positives: u64,
    pub fp_rate: f64,
    pub two_r_safe: bool,
    pub worst_radius_m: f64,
    pub rejected_records: u64,
    pub unconfirmed_links: u64,
    pub detector_messages: u64,
}

impl Verdict {
    pub fn of(row: &CellRow) -> Self {
        let o = &row.outcome;
        Verdict {
            attacker: row.attacker.clone(),
            environment: row.environment.clone(),
            defense: row.defense.clone(),
            attempts: o.attempts,
            blocked: o.blocked,
            detection_rate: o.detection_rate,
            benign_pairs: o.benign_pairs,
            false_positives: o.false_positives,
            fp_rate: o.fp_rate,
            two_r_safe: o.two_r_safe,
            worst_radius_m: o.worst_radius_m,
            rejected_records: o.rejected_records,
            unconfirmed_links: o.unconfirmed_links,
            detector_messages: o.detector_messages,
        }
    }

    fn from_json(cell: &Value) -> Self {
        let text = |k: &str| {
            cell.get(k)
                .and_then(Value::as_str)
                .expect("committed cells carry their labels")
                .to_string()
        };
        let num = |k: &str| {
            cell.get(k)
                .and_then(Value::as_f64)
                .expect("committed cells carry their counters")
        };
        Verdict {
            attacker: text("attacker"),
            environment: text("environment"),
            defense: text("defense"),
            attempts: num("attempts") as u64,
            blocked: num("blocked") as u64,
            detection_rate: num("detection_rate"),
            benign_pairs: num("benign_pairs") as u64,
            false_positives: num("false_positives") as u64,
            fp_rate: num("fp_rate"),
            two_r_safe: cell.get("two_r_safe") == Some(&Value::Bool(true)),
            worst_radius_m: num("worst_radius_m"),
            rejected_records: num("rejected_records") as u64,
            unconfirmed_links: num("unconfirmed_links") as u64,
            detector_messages: num("detector_messages") as u64,
        }
    }
}

/// The committed grid: its spec seed and its cells in grid order.
pub fn committed() -> (u64, Vec<Verdict>) {
    let root = parse(COMMITTED).expect("BENCH_campaign.json is valid JSON");
    let seed = root
        .get("seed")
        .and_then(Value::as_f64)
        .expect("BENCH_campaign.json records its seed") as u64;
    let cells = root
        .get("cells")
        .and_then(Value::as_array)
        .expect("BENCH_campaign.json lists its cells")
        .iter()
        .map(Verdict::from_json)
        .collect();
    (seed, cells)
}

/// One result per cell. On any seed the paper rule posts no false
/// positive on a no-attack cell and blocks at least as much replication as
/// both Parno baselines; on the committed seed every verdict equals the
/// committed one.
pub fn check(cells: &[Verdict], committed: Option<&[Verdict]>) -> Vec<Result<(), String>> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            if let Some(want) = committed {
                match want.get(i) {
                    Some(w) if w == cell => {}
                    Some(w) => {
                        return Err(format!("verdict {cell:?} differs from committed {w:?}"))
                    }
                    None => return Err(format!("cell {i} is not in the committed grid")),
                }
            }
            if cell.defense != "paper" {
                return Ok(());
            }
            if cell.attacker == "none" && cell.false_positives > 0 {
                return Err(format!(
                    "paper rule posted {} false positives on a no-attack cell",
                    cell.false_positives
                ));
            }
            if cell.attacker.starts_with("repl-") {
                for other in cells.iter().filter(|o| {
                    o.attacker == cell.attacker
                        && o.environment == cell.environment
                        && o.defense.starts_with("parno")
                }) {
                    if cell.detection_rate < other.detection_rate - 1e-12 {
                        return Err(format!(
                            "paper rule detection {} below {} baseline {}",
                            cell.detection_rate, other.defense, other.detection_rate
                        ));
                    }
                }
            }
            Ok(())
        })
        .collect()
}

/// One `run_campaign` call: its wall seconds, its cells' delivered frames,
/// and every cell's check recorded into `result`.
fn timed_pass(
    spec: &CampaignSpec,
    want: Option<&[Verdict]>,
    result: &mut RunResult,
) -> (f64, u64, Vec<Verdict>) {
    let t = Instant::now();
    let rows = run_campaign(spec, &Executor::serial());
    let run_s = t.elapsed().as_secs_f64();
    let frames = rows.iter().map(|r| r.report.totals.received).sum();
    let cells: Vec<Verdict> = rows.iter().map(Verdict::of).collect();
    drop(rows);
    for (cell, verdict) in cells.iter().zip(check(&cells, want)) {
        let label = format!(
            "cell {}/{}/{}",
            cell.attacker, cell.environment, cell.defense
        );
        result.record(&label, verdict);
    }
    eprintln!(
        "campaign-grid pass: run {run_s:.4} s, {} cells, delivered {frames}",
        cells.len()
    );
    (run_s, frames, cells)
}

/// The untraced run: grid passes until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(CampaignSpec::parse(black_box(SPEC)).expect("the committed spec parses"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let spec = spec(seed);
    let (committed_seed, committed) = committed();
    let want = (committed_seed == seed).then_some(&committed[..]);

    let mut result = RunResult::default();
    let (mut run_s, mut rate) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while run_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (secs, frames, _) = timed_pass(&spec, want, &mut result);
        run_s.push(secs);
        rate.push(frames as f64 / secs);
    }
    result.metric("run_s", median(&run_s), "s");
    result.metric("setup_s", median(&setup_s), "s");
    result.metric("frames_per_s", median(&rate), "1/s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result
}

/// The traced run. Each batch runs the grid once (every cell checked),
/// then once per defense as a one-defense sub-grid, then one probe wave
/// per environment of the spec, untraced and again profiled:
/// `run_campaign` keeps its engines inside, so the probes rebuild each
/// environment's fault plan through the public engine API to expose
/// phase, ARQ, drop and scoring figures.
pub fn run_traced(seed: u64, seconds: f64, spans: &mut Spans) -> RunResult {
    let spec = spec(seed);
    let (committed_seed, committed) = committed();
    let want = (committed_seed == seed).then_some(&committed[..]);

    let mut result = RunResult::default();
    let mut layers = Layers::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut defense_s: Vec<(DefenseSpec, Vec<f64>)> =
        spec.defenses.iter().map(|&d| (d, Vec::new())).collect();
    let (mut detector_messages, mut no_attack_fp) = (0, 0);
    let start = Instant::now();
    let mut batch = 0;
    while batch == 0 || start.elapsed().as_secs_f64() < seconds {
        let root = spans.open(batch, None, "campaign_op");
        let s = spans.open(batch, Some(root), "run_campaign");
        let (_, _, cells) = timed_pass(&spec, want, &mut result);
        spans.close(s);
        detector_messages = cells.iter().map(|c| c.detector_messages).sum();
        no_attack_fp = cells
            .iter()
            .filter(|c| c.attacker == "none" && c.defense == "paper")
            .map(|c| c.false_positives)
            .sum();

        for (defense, times) in &mut defense_s {
            let mut sub = spec.clone();
            sub.defenses = vec![*defense];
            let s = spans.open(batch, Some(root), defense.label());
            black_box(run_campaign(&sub, &Executor::serial()));
            times.push(spans.close(s));
        }
        for (i, env) in spec.environments.iter().enumerate() {
            let probe_seed = stream_seed(seed, PROBE_STREAM + i as u64);
            let (mut engine, ids) = probe(&spec, env, probe_seed, Profiler::disabled());
            let t = Instant::now();
            black_box(engine.run_wave(&ids));
            untraced.push(t.elapsed().as_secs_f64());
            drop(engine);
            let wave = traced_wave(spans, &mut layers, batch, spec.threshold, |profiler| {
                probe(&spec, env, probe_seed, profiler)
            });
            traced.push(wave.run_s);
        }
        spans.close(root);
        batch += 1;
    }
    for (defense, times) in &defense_s {
        let name = match defense {
            DefenseSpec::PaperRule => "campaign.defense.paper_s",
            DefenseSpec::DirectOnly => "campaign.defense.direct_s",
            DefenseSpec::ParnoRandomized => "campaign.defense.parno_randomized_s",
            DefenseSpec::ParnoLine => "campaign.defense.parno_line_s",
        };
        layers.set(name, median(times));
    }
    layers.set("campaign.detector_messages", detector_messages as f64);
    layers.set("campaign.paper_no_attack_fp", no_attack_fp as f64);
    layers.set(
        "observe.tracing_overhead_s",
        median(&traced) - median(&untraced),
    );
    layers.finish(&mut result);
    result
}

/// One wave of the campaign's base population under `env`, built the way
/// the campaign builds a cell's engine for the paper defense.
fn probe(
    spec: &CampaignSpec,
    env: &EnvironmentSpec,
    seed: u64,
    profiler: Profiler,
) -> (DiscoveryEngine, Vec<NodeId>) {
    let side = spec.scenario.side;
    let mut engine = DiscoveryEngine::new(
        Field::square(side),
        RadioSpec::uniform(env.range.unwrap_or(spec.scenario.range)),
        ProtocolConfig::with_threshold(spec.threshold).without_updates(),
        seed,
    );
    engine.set_executor(Executor::serial());
    engine.set_profiler(profiler);
    if env.retry_budget > 0 {
        engine.set_reliability(reliability(env.retry_budget));
    }
    if env.has_faults() {
        let mut faults = FaultSpec {
            loss: env.loss,
            crash: env.crash,
            ..FaultSpec::default()
        };
        if env.loss > 0.0 {
            faults.duplicate = 0.05;
            faults.reorder = 0.10;
        }
        if env.burst > 0.0 {
            faults.bursts.push(LossBurst {
                from: SimTime::from_millis(0),
                until: SimTime::from_millis(150),
                loss: env.burst,
            });
        }
        if env.jam {
            faults.jams.push(JamZone::permanent(Circle::new(
                Point::new(0.25 * side, 0.75 * side),
                0.15 * side,
            )));
        }
        engine
            .sim_mut()
            .set_fault_plan(FaultPlan::new(faults, stream_seed(seed, 0xFA)));
    }
    let ids = engine.deploy_uniform(env.nodes.unwrap_or(spec.scenario.nodes));
    (engine, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_grid_passes_its_own_check() {
        let (seed, cells) = committed();
        assert_eq!(seed, crate::DEFAULT_SEED);
        assert_eq!(cells.len(), spec(seed).cell_count());
        assert!(check(&cells, Some(&cells)).iter().all(Result::is_ok));
    }

    #[test]
    fn check_rejects_a_flipped_verdict() {
        let (_, want) = committed();
        let mut cells = want.clone();
        let i = cells
            .iter()
            .position(|c| c.defense == "direct")
            .expect("a direct cell");
        cells[i].two_r_safe = !cells[i].two_r_safe;
        let results = check(&cells, Some(&want));
        assert!(results[i].is_err());
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn paper_gates_hold_on_any_seed() {
        let (_, want) = committed();
        let no_attack: Vec<usize> = (0..want.len())
            .filter(|&i| want[i].attacker == "none" && want[i].defense == "paper")
            .collect();
        assert_eq!(
            no_attack.len(),
            spec(crate::DEFAULT_SEED).environments.len()
        );
        for &i in &no_attack {
            let mut cells = want.clone();
            cells[i].false_positives = 1;
            let results = check(&cells, None);
            assert!(results[i].is_err(), "{}", cells[i].environment);
            assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        }
        let mut cells = want.clone();
        let repl = cells
            .iter()
            .position(|c| c.attacker.starts_with("repl-") && c.defense == "paper")
            .expect("a replication paper cell");
        cells[repl].detection_rate = -1.0;
        let results = check(&cells, None);
        assert!(results[repl].is_err());
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn one_seed_gives_identical_cells() {
        let mut small = spec(11);
        small.attackers.truncate(2);
        small.environments.truncate(1);
        let run = || -> Vec<Verdict> {
            run_campaign(&small, &Executor::serial())
                .iter()
                .map(Verdict::of)
                .collect()
        };
        let first = run();
        assert_eq!(first.len(), 8);
        assert_eq!(first, run());
        assert!(check(&first, None).iter().all(Result::is_ok));
    }
}
