//! The discovery-wave workloads: one engine per wave, each wave checked
//! against the model's t+1 rule.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use snd_core::model::safety::check_d_safety;
use snd_core::model::{functional_topology, CommonNeighborRule};
use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig, WaveReport};
use snd_exec::{trial_seed, Executor};
use snd_observe::profile::{ProfTotals, Profiler};
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::{unit_disk_graph, RadioSpec};
use snd_topology::{Deployment, DiGraph, Field, FrozenGraph, NodeId};

use crate::expected;
use crate::layers::Layers;
use crate::report::{median, ratio, RunResult, Spans};

/// Waves run before timing starts: they fault in the allocator's arenas.
/// They are still checked and counted as operations.
const WARMUP_WAVES: u64 = 1;
/// Waves in one traced batch; the traced run repeats whole batches, so
/// its per-wave counts are exact for a seed.
const TRACE_BATCH: u64 = 4;
/// Nodes a traced wave's d-safety check treats as compromised: as many as
/// the campaign's replication attackers collude with.
const COMPROMISED: usize = 2;

/// A field, a radio and a threshold: everything a wave workload varies.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub name: &'static str,
    pub nodes: usize,
    pub side_m: f64,
    pub range_m: f64,
    pub threshold: usize,
}

/// The `protocol` bin's ladder configuration (0.002 nodes/m², R = 50 m,
/// t = 5) at its n = 2 000 row: about 15.7 neighbours per node.
pub const SPARSE: Geometry = Geometry {
    name: "wave-sparse",
    nodes: 2_000,
    side_m: 1_000.0,
    range_m: 50.0,
    threshold: 5,
};

/// The paper's evaluation field (§4.5): 200 nodes in 100 m × 100 m with
/// R = 50 m, about 96 functional neighbours per node; t = 10.
pub const PAPER: Geometry = Geometry {
    name: "wave-paper",
    nodes: 200,
    side_m: 100.0,
    range_m: 50.0,
    threshold: 10,
};

/// The ARQ settings the ladder and the campaign share, at `retry_budget`
/// (the ladder's is 2).
pub fn reliability(retry_budget: u32) -> ReliabilityConfig {
    ReliabilityConfig {
        enabled: true,
        retry_budget,
        hello_rounds: retry_budget + 1,
        base_backoff: SimDuration::from_millis(4),
        max_backoff: SimDuration::from_millis(32),
        phase_timeout: SimDuration::from_millis(400),
    }
}

/// Builds and provisions the engine of one wave: serial executor, the
/// default `NullRecorder`, and `profiler` (disabled when timing).
pub fn setup(geom: &Geometry, seed: u64, profiler: Profiler) -> (DiscoveryEngine, Vec<NodeId>) {
    let mut engine = DiscoveryEngine::new(
        Field::square(geom.side_m),
        RadioSpec::uniform(geom.range_m),
        ProtocolConfig::with_threshold(geom.threshold),
        seed,
    );
    engine.set_executor(Executor::serial());
    engine.set_reliability(reliability(2));
    engine.set_profiler(profiler);
    let ids = engine.deploy_uniform(geom.nodes);
    (engine, ids)
}

/// Simulated counters of one wave that the default seed pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub frames_delivered: u64,
    pub bytes_sent: u64,
    pub hash_ops: u64,
    pub functional_edges: u64,
}

/// What a wave produced, captured from its engine for checking.
#[derive(Debug)]
pub struct WaveOutput {
    pub functional: DiGraph,
    pub tentative: DiGraph,
    pub deployment: Deployment,
    pub rejected_records: u64,
    pub unconfirmed_links: usize,
    pub timed_out_phases: u64,
    pub counters: Counters,
}

impl WaveOutput {
    pub fn new(
        engine: &DiscoveryEngine,
        report: &WaveReport,
        functional: DiGraph,
        tentative: DiGraph,
    ) -> Self {
        let totals = engine.sim().metrics().totals();
        WaveOutput {
            counters: Counters {
                frames_delivered: totals.received,
                bytes_sent: totals.bytes_sent,
                hash_ops: engine.hash_ops(),
                functional_edges: functional.edge_count() as u64,
            },
            functional,
            tentative,
            deployment: engine.deployment().clone(),
            rejected_records: report.rejected_records,
            unconfirmed_links: report.unconfirmed_links.len(),
            timed_out_phases: report.timed_out_phases,
        }
    }
}

/// The model's functional topology: `CommonNeighborRule` (t + 1 shared
/// tentative neighbours) applied to the tentative topology the engine built.
pub fn model_functional(threshold: usize, tentative: &DiGraph) -> DiGraph {
    functional_topology(&CommonNeighborRule::new(threshold), tentative)
}

/// The per-wave oracle. The engine's functional topology must equal the
/// model's, no functional edge may be longer than R, a benign clean wave
/// must converge, and on the default seed the counters must equal the
/// recorded ones.
pub fn check(
    geom: &Geometry,
    out: &WaveOutput,
    model: &DiGraph,
    expected: Option<&Counters>,
) -> Result<(), String> {
    if let Some((u, v)) = first_difference(&out.functional, model) {
        return Err(format!(
            "engine functional topology ({} edges) differs from the t+1 rule over its \
             tentative topology ({} edges), first at ({}, {})",
            out.functional.edge_count(),
            model.edge_count(),
            u.0,
            v.0
        ));
    }
    for (u, v) in out.functional.edges() {
        let (Some(a), Some(b)) = (out.deployment.position(u), out.deployment.position(v)) else {
            return Err(format!(
                "functional edge ({}, {}) has an undeployed end",
                u.0, v.0
            ));
        };
        let d = a.distance(&b);
        if d > geom.range_m {
            return Err(format!(
                "functional edge ({}, {}) spans {d:.3} m > R = {} m",
                u.0, v.0, geom.range_m
            ));
        }
    }
    if out.unconfirmed_links != 0 || out.rejected_records != 0 || out.timed_out_phases != 0 {
        return Err(format!(
            "benign wave did not converge: {} unconfirmed links, {} rejected records, \
             {} timed-out phases",
            out.unconfirmed_links, out.rejected_records, out.timed_out_phases
        ));
    }
    match expected {
        Some(want) if *want != out.counters => Err(format!(
            "counters {:?} differ from the recorded {:?}",
            out.counters, want
        )),
        _ => Ok(()),
    }
}

/// First edge in one graph but not the other (both iterate sorted).
fn first_difference(a: &DiGraph, b: &DiGraph) -> Option<(NodeId, NodeId)> {
    let mut x = a.edges().peekable();
    let mut y = b.edges().peekable();
    loop {
        match (x.peek(), y.peek()) {
            (None, None) => return None,
            (Some(&e), None) | (None, Some(&e)) => return Some(e),
            (Some(&e), Some(&f)) if e == f => {
                x.next();
                y.next();
            }
            (Some(&e), Some(&f)) => return Some(e.min(f)),
        }
    }
}

/// A wave with telemetry off: setup and `run_wave` timed, then checked.
struct Timed {
    setup_s: f64,
    run_s: f64,
    frames: u64,
}

fn timed_wave(geom: &Geometry, seed: u64, k: u64, result: &mut RunResult) -> Timed {
    let expected = expected::wave(geom.name, seed, k);
    let t0 = Instant::now();
    let (mut engine, ids) = setup(geom, trial_seed(seed, k), Profiler::disabled());
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = engine.run_wave(&ids);
    let run_s = t1.elapsed().as_secs_f64();

    let out = WaveOutput::new(
        &engine,
        &report,
        engine.functional_topology(),
        engine.tentative_topology(),
    );
    drop(engine);
    let model = model_functional(geom.threshold, &out.tentative);
    let c = out.counters;
    eprintln!(
        "{} wave {k}: run {run_s:.4} s, setup {setup_s:.6} s, delivered {}, bytes {}, \
         hash ops {}, functional edges {}",
        geom.name, c.frames_delivered, c.bytes_sent, c.hash_ops, c.functional_edges
    );
    result.record(
        &format!("{} wave {k}", geom.name),
        check(geom, &out, &model, expected.as_ref()),
    );
    Timed {
        setup_s,
        run_s,
        frames: c.frames_delivered,
    }
}

/// The untraced run: waves `0, 1, 2, …` of the seed until `seconds` have
/// passed; end-to-end metrics are medians over the timed waves.
pub fn run(geom: &Geometry, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let (mut setup_s, mut run_s, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for k in 0.. {
        let t = timed_wave(geom, seed, k, &mut result);
        if k >= WARMUP_WAVES {
            setup_s.push(t.setup_s);
            run_s.push(t.run_s);
            rate.push(t.frames as f64 / t.run_s);
        }
        if k >= WARMUP_WAVES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    result.metric("run_s", median(&run_s), "s");
    result.metric("setup_s", median(&setup_s), "s");
    result.metric("frames_per_s", median(&rate), "1/s");
    result.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    result
}

/// The traced run: batches of waves `0..TRACE_BATCH`, each wave run once
/// untraced and once traced, until `seconds` have passed.
pub fn run_traced(geom: &Geometry, seed: u64, seconds: f64, spans: &mut Spans) -> RunResult {
    let mut result = RunResult::default();
    let mut layers = Layers::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // The first batch is warm-up and is left out of every figure; later
    // batches repeat its waves exactly, so the counts stay exact.
    let mut warmup = Layers::default();
    let mut batch = 0;
    while batch <= 1 || start.elapsed().as_secs_f64() < seconds {
        let into = if batch == 0 { &mut warmup } else { &mut layers };
        for k in 0..TRACE_BATCH {
            let plain = timed_wave(geom, seed, k, &mut result);
            let op = batch * TRACE_BATCH + k;
            let t = traced_wave(spans, into, op, geom.threshold, |profiler| {
                setup(geom, trial_seed(seed, k), profiler)
            });
            result.record(
                &format!("{} traced wave {k}", geom.name),
                check(
                    geom,
                    &t.output,
                    &t.model,
                    expected::wave(geom.name, seed, k).as_ref(),
                ),
            );
            if batch > 0 {
                untraced.push(plain.run_s);
                traced.push(t.run_s);
            }
        }
        batch += 1;
    }
    layers.set(
        "observe.tracing_overhead_s",
        median(&traced) - median(&untraced),
    );
    layers.finish(&mut result);
    result
}

/// A wave run under the engine's profiler with benchmark spans around
/// every public call it makes.
pub struct TracedWave {
    pub output: WaveOutput,
    pub model: DiGraph,
    pub run_s: f64,
}

/// Runs one traced wave on the engine `build` provisions (with the
/// profiler it is given) and adds the wave's per-layer numbers to `layers`.
pub fn traced_wave(
    spans: &mut Spans,
    layers: &mut Layers,
    op: u64,
    threshold: usize,
    build: impl FnOnce(Profiler) -> (DiscoveryEngine, Vec<NodeId>),
) -> TracedWave {
    let profiler = Profiler::enabled();
    let root = spans.open(op, None, "wave_op");
    let setup_span = spans.open(op, Some(root), "setup");
    let (mut engine, ids) = build(profiler.clone());
    spans.close(setup_span);
    let run_span = spans.open(op, Some(root), "run_wave");
    let report = engine.run_wave(&ids);
    let run_s = spans.close(run_span);
    let s = spans.open(op, Some(root), "functional_build");
    let functional = engine.functional_topology();
    let functional_build_s = spans.close(s);
    let s = spans.open(op, Some(root), "tentative_build");
    let tentative = engine.tentative_topology();
    spans.close(s);
    let s = spans.open(op, Some(root), "rule_eval");
    let model = model_functional(threshold, &tentative);
    let rule_eval_s = spans.close(s);
    // What a campaign cell's scoring calls: the Parno baselines freeze the
    // unit-disk graph for their hop table, and the 2R verdict checks
    // d-safety over the accepted (here the functional) relation.
    let unit_disk = unit_disk_graph(engine.deployment(), engine.radio());
    let s = spans.open(op, Some(root), "freeze_unit_disk");
    let frozen = FrozenGraph::freeze(&unit_disk);
    let freeze_s = spans.close(s);
    drop(frozen);
    let compromised: BTreeSet<NodeId> = engine.deployment().ids().take(COMPROMISED).collect();
    let two_r = 2.0 * engine.radio().max_range();
    let s = spans.open(op, Some(root), "d_safety");
    black_box(check_d_safety(
        &functional,
        engine.deployment(),
        &compromised,
        two_r,
    ));
    let d_safety_s = spans.close(s);
    spans.close(root);

    // Engine profiler paths, converted to self time, under the benchmark
    // span that contains them.
    let totals = profiler.totals();
    let mut attributed_ns = 0;
    for path in totals.keys() {
        let own = self_ns(&totals, path);
        let in_wave = path.starts_with("wave;");
        if in_wave {
            attributed_ns += own;
        }
        let parent = if in_wave || path == "wave" {
            run_span
        } else {
            setup_span
        };
        spans.push(op, Some(parent), path, None, own);
    }
    let secs = |path: &str| self_ns(&totals, path) as f64 * 1e-9;
    let inclusive_ns = |path: &str| totals.get(path).map_or(0, |t| t.total_ns) as f64;

    let output = WaveOutput::new(&engine, &report, functional, tentative);
    let ledger = engine.sim().ledger();
    let rx = |phase: &str| {
        ledger
            .phases()
            .find(|(name, _)| *name == phase)
            .map_or((0, 0), |(_, p)| (p.rx_msgs, p.rx_bytes))
    };
    let (hello_rx, _) = rx("hello");
    let (collect_rx, collect_rx_bytes) = rx("collect");
    let (finalize_rx, _) = rx("finalize");
    let lt = ledger.totals();
    let totals_sim = engine.sim().metrics().totals();
    let delivered = totals_sim.received as f64;
    let hits = engine.key_cache_hits() as f64;
    let hash_ops = engine.hash_ops() as f64;
    let peaks = engine.mem_table().subsystem_peaks();
    let peak = |sub: &str| peaks.get(sub).copied().unwrap_or(0) as f64;
    let tentative_edges = output.tentative.edge_count() as f64;
    let functional_edges = output.functional.edge_count() as f64;

    layers.wave();
    layers.add("core.hello_s", secs("wave;hello"));
    layers.add(
        "core.hello.ns_per_frame",
        ratio(inclusive_ns("wave;hello"), hello_rx as f64),
    );
    layers.add("sim.hello.rx_frames", hello_rx as f64);
    layers.add("sim.frames_sent", lt.tx_frames as f64);
    layers.add("sim.frames_delivered", delivered);
    layers.add("sim.bytes_sent", totals_sim.bytes_sent as f64);
    layers.add("core.collect_s", secs("wave;collect"));
    layers.add(
        "core.collect.ns_per_frame",
        ratio(inclusive_ns("wave;collect"), collect_rx as f64),
    );
    layers.add("sim.collect.rx_frames", collect_rx as f64);
    layers.add_collect_bytes(collect_rx, collect_rx_bytes);
    layers.add("core.finalize_s", secs("wave;finalize"));
    layers.add("core.finalize.validate_s", secs("wave;finalize;validate"));
    layers.add(
        "core.finalize.ns_per_frame",
        ratio(inclusive_ns("wave;finalize"), finalize_rx as f64),
    );
    layers.add("sim.finalize.rx_frames", finalize_rx as f64);
    layers.add("crypto.hash_ops", hash_ops);
    layers.add("crypto.key_cache_hits", hits);
    layers.add("crypto.key_cache_hit_ratio", ratio(hits, hits + hash_ops));
    layers.add("sim.frames_dropped", lt.dropped_frames as f64);
    layers.add(
        "sim.delivery_ratio",
        ratio(delivered, delivered + lt.dropped_frames as f64),
    );
    layers.add("sim.retransmissions", lt.retransmissions as f64);
    layers.add("core.collect.arq_repull_s", secs("wave;collect;arq_repull"));
    layers.add(
        "core.finalize.arq_resend_s",
        secs("wave;finalize;arq_resend"),
    );
    layers.add("mem.nodes_bytes", peak("nodes"));
    layers.add("mem.inboxes_bytes", peak("inboxes"));
    layers.add("mem.ledger_bytes", peak("ledger"));
    layers.add("mem.envelope_pool_bytes", peak("envelope_pool"));
    layers.add("mem.key_cache_bytes", peak("key_cache"));
    layers.add("core.provision_s", secs("provision"));
    layers.add("core.commit_s", secs("wave;commit"));
    layers.add("model.functional_build_s", functional_build_s);
    layers.add("model.rule_eval_s", rule_eval_s);
    layers.add("model.d_safety_s", d_safety_s);
    layers.add("topology.freeze_s", freeze_s);
    layers.add("core.tentative_edges", tentative_edges);
    layers.add("core.functional_edges", functional_edges);
    layers.add(
        "core.functional_ratio",
        ratio(functional_edges, tentative_edges),
    );
    layers.add("core.rejected_records", report.rejected_records as f64);
    layers.add(
        "core.unconfirmed_links",
        report.unconfirmed_links.len() as f64,
    );
    layers.add("core.timed_out_phases", report.timed_out_phases as f64);
    layers.add("core.duplicates_ignored", report.duplicates_ignored as f64);
    layers.add("core.unattributed_s", run_s - attributed_ns as f64 * 1e-9);
    TracedWave {
        output,
        model,
        run_s,
    }
}

/// A profiler path's inclusive total minus its direct children's.
fn self_ns(totals: &std::collections::BTreeMap<String, ProfTotals>, path: &str) -> u64 {
    let Some(t) = totals.get(path) else {
        return 0;
    };
    let prefix = format!("{path};");
    let children: u64 = totals
        .iter()
        .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains(';'))
        .map(|(_, c)| c.total_ns)
        .sum();
    t.total_ns.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_output(geom: &Geometry, seed: u64) -> (WaveOutput, DiGraph) {
        let (mut engine, ids) = setup(geom, seed, Profiler::disabled());
        let report = engine.run_wave(&ids);
        let out = WaveOutput::new(
            &engine,
            &report,
            engine.functional_topology(),
            engine.tentative_topology(),
        );
        let model = model_functional(geom.threshold, &out.tentative);
        (out, model)
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_counters() {
        let (a, _) = wave_output(&PAPER, trial_seed(3, 1));
        let (b, _) = wave_output(&PAPER, trial_seed(3, 1));
        let positions = |o: &WaveOutput| o.deployment.iter().collect::<Vec<_>>();
        assert_eq!(positions(&a), positions(&b));
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.functional, b.functional);
        assert_eq!(a.tentative, b.tentative);
        let (c, _) = wave_output(&PAPER, trial_seed(3, 2));
        assert_ne!(
            positions(&a),
            positions(&c),
            "another wave gets other inputs"
        );
    }

    #[test]
    fn default_seed_wave_passes_with_its_recorded_counters() {
        let want = expected::wave(PAPER.name, crate::DEFAULT_SEED, 0).expect("recorded");
        let (out, model) = wave_output(&PAPER, trial_seed(crate::DEFAULT_SEED, 0));
        assert_eq!(check(&PAPER, &out, &model, Some(&want)), Ok(()));
    }

    #[test]
    fn check_rejects_a_removed_functional_edge() {
        let (mut out, model) = wave_output(&PAPER, trial_seed(5, 0));
        assert_eq!(check(&PAPER, &out, &model, None), Ok(()));
        let (u, v) = out.functional.edges().nth(100).expect("a dense field");
        out.functional.remove_edge(u, v);
        let err = check(&PAPER, &out, &model, None).unwrap_err();
        assert!(err.contains("differs from the t+1 rule"), "{err}");
    }

    #[test]
    fn check_rejects_a_changed_frame_count() {
        let want = expected::wave(PAPER.name, crate::DEFAULT_SEED, 0).expect("recorded");
        let (mut out, model) = wave_output(&PAPER, trial_seed(crate::DEFAULT_SEED, 0));
        out.counters.frames_delivered += 1;
        let err = check(&PAPER, &out, &model, Some(&want)).unwrap_err();
        assert!(err.contains("differ from the recorded"), "{err}");
    }

    #[test]
    fn a_traced_wave_fills_every_per_wave_metric() {
        let mut spans = Spans::default();
        let mut layers = Layers::default();
        let t = traced_wave(&mut spans, &mut layers, 0, PAPER.threshold, |profiler| {
            setup(&PAPER, trial_seed(5, 0), profiler)
        });
        assert_eq!(check(&PAPER, &t.output, &t.model, None), Ok(()));
        let mut result = RunResult::default();
        layers.finish(&mut result);
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("every per-layer metric is printed")
        };
        assert_eq!(result.metrics.len(), crate::layers::layer_metrics().len());
        for name in [
            "core.hello_s",
            "sim.collect.rx_frames",
            "crypto.hash_ops",
            "mem.nodes_bytes",
        ] {
            assert!(value(name) > 0.0, "{name}");
        }
        assert_eq!(value("core.functional_ratio"), 1.0);
        assert_eq!(value("campaign.detector_messages"), 0.0);
    }

    #[test]
    fn check_rejects_an_edge_longer_than_the_range() {
        let (mut out, model) = wave_output(&PAPER, trial_seed(5, 0));
        // Move a node far away while its edges stay in both graphs.
        let (u, _) = out.functional.edges().next().expect("edges");
        out.deployment
            .place(u, snd_topology::Point::new(1_000.0, 1_000.0));
        let err = check(&PAPER, &out, &model, None).unwrap_err();
        assert!(err.contains("> R"), "{err}");
    }
}
