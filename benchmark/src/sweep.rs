//! The in-process workloads, `fig8-sweep` and `layer-vdd`: one campaign
//! spec run on the sweep pool with a fresh baseline cache, the path
//! `repro sweep` takes.

use std::time::{Duration, Instant};

use neurofi_core::attacks::ExperimentSetup;
use neurofi_core::sweep::{
    assemble_sweep, execute_cell, mean_baseline_accuracy, run_indexed, scenario_sweep_cached,
    SweepPlan, SweepResult,
};
use neurofi_core::{BaselineCache, Parallelism, PowerTransferTable};
use neurofi_dist::{named_campaign, parse_campaign_text, CampaignSpec};

use crate::env::worker_threads;
use crate::replay::{self, Campaign, Replay};
use crate::stats;
use crate::trace::{maybe_span, Tracer};
use crate::Outcome;

/// Set-up is tens of microseconds here, near the timer's noise. So one
/// sample times a batch of set-ups and keeps their mean, and the run
/// reports the median of its samples.
const SETUP_SAMPLES: usize = 15;
const SETUP_BATCH: usize = 64;

/// The `layer-vdd` campaign in the spec grammar `repro submit --spec`
/// reads.
const LAYER_VDD: &str = "\
name = layer-vdd
setup = bench
attack = vdd
axis vdd = 0.8, 0.9, 1, 1.1
axis neurons = 4, 16
seeds = 42
transfer = paper
";

/// Result digests of the two campaigns at the commit that defined the
/// benchmark; the sweep engine is deterministic, so any change in them
/// is a change in results.
const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig8,
    LayerVdd,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8 => "fig8-sweep",
            Kind::LayerVdd => "layer-vdd",
        }
    }

    /// Campaign wall time at the commit that defined the benchmark, on
    /// its 2-core reference machine. It fixes how many campaigns fit in a
    /// run's seconds, so every commit measures the same work.
    fn nominal_s(self) -> f64 {
        match self {
            Kind::Fig8 => 14.0,
            Kind::LayerVdd => 19.0,
        }
    }

    fn reference(self) -> Result<u64, String> {
        REFERENCE
            .lines()
            .find_map(|l| l.strip_prefix(self.name())?.trim().strip_prefix("0x"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("reference.txt has no digest for {}", self.name()))
    }
}

/// A validated, planned campaign ready to run.
struct Prepared {
    spec: CampaignSpec,
    plan: SweepPlan,
    transfer: Option<PowerTransferTable>,
    setup: ExperimentSetup,
}

fn spec(kind: Kind) -> Result<CampaignSpec, String> {
    match kind {
        Kind::Fig8 => named_campaign("fig8").ok_or_else(|| "no `fig8` preset".to_string()),
        Kind::LayerVdd => parse_campaign_text(LAYER_VDD)
            .map(|parsed| parsed.spec)
            .map_err(|e| e.to_string()),
    }
}

/// Everything before the first campaign: parse, validate, plan, resolve
/// the transfer table and materialise the setup. With a tracer, the
/// planning and transfer-table calls get spans.
fn prepare(kind: Kind, tracer: Option<&Tracer>) -> Result<Prepared, String> {
    let spec = spec(kind)?;
    let plan = maybe_span(tracer, "core.plan", 0, || {
        spec.validate().map(|()| spec.plan())
    })
    .map_err(|e| e.to_string())?;
    let transfer = maybe_span(tracer, "analog.transfer_table", 0, || spec.transfer_table())
        .map_err(|e| e.to_string())?;
    let setup = spec
        .materialize()
        .with_parallelism(Parallelism::Threads(worker_threads()));
    Ok(Prepared {
        spec,
        plan,
        transfer,
        setup,
    })
}

fn prepare_repeated(kind: Kind) -> Result<(Prepared, f64), String> {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut prepared = None;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            prepared = Some(prepare(kind, None)?);
        }
        samples.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    Ok((
        prepared.expect("at least one set-up"),
        stats::median(&samples),
    ))
}

/// The untraced campaign: `repro sweep`'s call.
fn run_untraced(p: &Prepared) -> (Result<SweepResult, String>, f64) {
    let start = Instant::now();
    let result = scenario_sweep_cached(&BaselineCache::new(&p.setup), &p.spec.scenario)
        .map_err(|e| e.to_string());
    (result, start.elapsed().as_secs_f64())
}

/// Counts one campaign's cells and its digest check into `outcome`.
fn check(kind: Kind, p: &Prepared, result: &Result<SweepResult, String>, outcome: &mut Outcome) {
    let cells = p.plan.jobs.len() as u64;
    outcome.attempted += cells + 1;
    match (result, kind.reference()) {
        (Ok(r), Ok(want)) if replay::digest(r) == want => {}
        (Ok(r), Ok(want)) => {
            outcome.fail(format!(
                "{} digest {:#018x} != reference {want:#018x}",
                kind.name(),
                replay::digest(r)
            ));
        }
        (Ok(_), Err(e)) => outcome.fail(e),
        (Err(e), _) => {
            outcome.failed += cells;
            outcome.fail(e.clone());
        }
    }
}

/// Runs as many campaigns back to back as fit `seconds` at their
/// nominal duration (at least one), reporting their median.
pub fn run(kind: Kind, seconds: f64) -> Result<Outcome, String> {
    let (p, setup_s) = prepare_repeated(kind)?;
    let mut outcome = Outcome::default();
    let reps = ((seconds / kind.nominal_s()).floor() as usize).max(1);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (result, took) = run_untraced(&p);
        check(kind, &p, &result, &mut outcome);
        times.push(took);
    }
    let campaign_s = stats::median(&times);
    outcome.note(format!(
        "{} campaign(s) of {} cells: {:?}",
        times.len(),
        p.plan.jobs.len(),
        times
            .iter()
            .map(|t| Duration::from_secs_f64(*t))
            .collect::<Vec<_>>()
    ));
    outcome.set("setup_s", setup_s);
    outcome.set("campaign_s", campaign_s);
    outcome.set("cells_per_s", p.plan.jobs.len() as f64 / campaign_s);
    Ok(outcome)
}

/// The traced run, one pass whatever `seconds` says, so its counts are
/// per campaign: one untraced campaign for the overhead reference, one
/// campaign driven stage by stage under spans (campaign id 1), then a
/// replay of the baseline and every cell through the lower layers,
/// bit-checked (campaign id 2).
pub fn run_traced(kind: Kind) -> Result<Outcome, String> {
    let replay = Replay::default();
    let tracer = &replay.tracer;
    let mut outcome = Outcome::default();
    let threads = worker_threads();
    let p = prepare(kind, Some(tracer))?;
    let (result, untraced_s) = run_untraced(&p);
    check(kind, &p, &result, &mut outcome);

    let traced_start = Instant::now();
    let result = tracer.span("bench.campaign", None, 1, |root| {
        let cache = BaselineCache::new(&p.setup);
        let baseline = tracer.span("core.baseline", Some(root), 1, |_| {
            mean_baseline_accuracy(&cache, &p.plan.seeds)
        });
        let cells = tracer.span("core.pool", Some(root), 1, |pool| {
            run_indexed(p.plan.jobs.len(), Parallelism::Threads(threads), |i| {
                tracer.span("core.cell", Some(pool), 1, |_| {
                    execute_cell(
                        &cache,
                        &p.plan.seeds,
                        baseline,
                        &p.plan.jobs[i],
                        p.transfer.as_ref(),
                    )
                })
            })
        });
        tracer.span("core.assemble", Some(root), 1, |_| {
            let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
            assemble_sweep(&p.plan, baseline, cells)
        })
    });
    let overhead_s = traced_start.elapsed().as_secs_f64() - untraced_s;
    let result = result.map_err(|e| e.to_string());
    check(kind, &p, &result, &mut outcome);

    if let Ok(result) = result {
        let c = Campaign {
            setup: &p.setup,
            seeds: &p.plan.seeds,
            baseline: result.baseline_accuracy,
        };
        let mut replays = vec![tracer.span("bench.replay_baseline", None, 2, |root| {
            replay.baseline(root, 2, &c)
        })];
        replays.extend(tracer.span("bench.replay", None, 2, |root| {
            run_indexed(p.plan.jobs.len(), Parallelism::Threads(threads), |i| {
                replay.cell(root, 2, &c, &p.plan.jobs[i], &result.cells[i])
            })
        }));
        for check in replays {
            outcome.attempted += 1;
            if let Err(e) = check {
                outcome.fail(e);
            }
        }
    }
    outcome.metrics = replay.layer_metrics(threads);
    replay::flag_divergence(&mut outcome);
    outcome.set("bench.trace_overhead_s", overhead_s);
    outcome.spans = tracer.spans();
    Ok(outcome)
}
