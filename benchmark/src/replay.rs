//! Cell replays through the lower layers, and the per-layer metrics the
//! traced run derives from their spans.
//!
//! A replay redoes one cell's work call by call — dataset generation,
//! network construction and fault application, training, label
//! assignment, evaluation; or netlist build, compile and transient — with
//! a span around each call, and rebuilds the cell from the results. The
//! rebuilt cell must match the campaign's cell bit for bit. That shows
//! the replay reproduces the campaign's results; whether it still does
//! the campaign's work is what [`flag_divergence`] checks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use neurofi_analog::LayerNetlist;
use neurofi_core::attacks::ExperimentSetup;
use neurofi_core::detection::VDD_NOMINAL;
use neurofi_core::injection::{
    FaultPlan, Selection, TargetLayer, ThresholdConvention, ThresholdFault,
};
use neurofi_core::scenario::{AttackFamily, DefenseSel, DetectorSel};
use neurofi_core::sweep::{CellJob, SweepCell, SweepResult};
use neurofi_snn::{assign_labels, evaluate, train, DiehlCook2015};
use neurofi_spice::{measure, Engine, Netlist, TranSpec, TranStats};

use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::Outcome;

/// Work counts gathered beside the spans of a replay.
#[derive(Debug, Default)]
struct Counts {
    presentations: u64,
    steps: u64,
    transients: Vec<TranStats>,
}

/// A traced run's span recorder plus the work counts its replays
/// gather.
#[derive(Debug, Default)]
pub struct Replay {
    pub tracer: Tracer,
    counts: Mutex<Counts>,
}

/// The campaign a replayed cell belongs to: its setup, the seeds every
/// cell averages over, and the baseline accuracy cells are compared to.
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    pub setup: &'a ExperimentSetup,
    pub seeds: &'a [u64],
    pub baseline: f64,
}

/// FNV-1a over the bits of a sweep result: baseline, then every cell's
/// four fields in slot order.
pub fn digest(result: &SweepResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(result.baseline_accuracy);
    for c in &result.cells {
        eat(c.rel_change);
        eat(c.fraction);
        eat(c.accuracy);
        eat(c.relative_change_percent);
    }
    hash
}

/// Bit equality of two cells.
pub fn same_cell(a: &SweepCell, b: &SweepCell) -> bool {
    [
        a.rel_change,
        a.fraction,
        a.accuracy,
        a.relative_change_percent,
    ]
    .iter()
    .zip([
        b.rel_change,
        b.fraction,
        b.accuracy,
        b.relative_change_percent,
    ])
    .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The relative change a cell reports, as the sweep engine computes it.
fn percent_change(value: f64, reference: f64) -> f64 {
    if reference > 0.0 {
        (value - reference) / reference * 100.0
    } else {
        0.0
    }
}

impl Replay {
    fn counts(&self) -> std::sync::MutexGuard<'_, Counts> {
        self.counts.lock().expect("counts poisoned")
    }

    /// One training + evaluation run under `plan`, call by call; returns
    /// the held-out accuracy.
    fn run(
        &self,
        parent: usize,
        campaign: u64,
        setup: &ExperimentSetup,
        plan: &FaultPlan,
    ) -> Result<f64, String> {
        let (t, at) = (&self.tracer, Some(parent));
        let (train_data, test_data) = t.span("data.generate", at, campaign, |_| setup.datasets());
        let mut net = t.span("snn.new", at, campaign, |_| {
            DiehlCook2015::new(setup.network.clone(), setup.network_seed)
        });
        t.span("core.fault_apply", at, campaign, |_| plan.apply(&mut net));
        let options = &setup.train_options;
        let report = t.span("snn.train", at, campaign, |_| {
            train(&mut net, &train_data, options)
        });
        // `train` assigns labels from its trailing window; repeating the
        // call times the assignment step on its own.
        let n = report.spike_records.len();
        let start = n - options.assignment_window.unwrap_or(n).min(n).max(1);
        let assignments = t.span("snn.assign", at, campaign, |_| {
            assign_labels(
                &report.spike_records[start..],
                &report.labels[start..],
                options.n_classes,
            )
        });
        if assignments != report.assignments {
            return Err("replayed label assignment differs from training's".into());
        }
        let accuracy = t.span("snn.eval", at, campaign, |_| {
            evaluate(&mut net, &assignments, &test_data, options.n_classes)
        });
        let presentations = (train_data.len() + test_data.len()) as u64;
        let mut counts = self.counts();
        counts.presentations += presentations;
        counts.steps += presentations * net.steps_per_sample() as u64;
        Ok(accuracy)
    }

    /// One layer transient at `vdd`, call by call; returns the mean
    /// output spikes per neuron.
    fn transient(
        &self,
        parent: usize,
        campaign: u64,
        neurons: usize,
        vdd: f64,
    ) -> Result<f64, String> {
        let (t, at) = (&self.tracer, Some(parent));
        let layer = LayerNetlist::paper_layer(neurons).with_vdd(vdd);
        let mut net = Netlist::new();
        let nodes = t
            .span("analog.build", at, campaign, |_| layer.build(&mut net))
            .map_err(|e| e.to_string())?;
        let circuit = t
            .span("spice.compile", at, campaign, |_| net.compile())
            .map_err(|e| e.to_string())?;
        let (tstop, dt) = LayerNetlist::cell_window();
        let spec = TranSpec::new(tstop, dt).with_uic();
        let result = t
            .span("spice.tran", at, campaign, |_| {
                circuit.tran_with_engine(Engine::Sparse, &spec)
            })
            .map_err(|e| e.to_string())?;
        self.counts().transients.push(*result.stats());
        let spikes: usize = t.span("spice.measure", at, campaign, |_| {
            nodes
                .cells
                .iter()
                .map(|c| {
                    measure::spike_times(result.times(), &result.voltage(c.out), 0.5 * vdd).len()
                })
                .sum()
        });
        Ok(spikes as f64 / neurons.max(1) as f64)
    }

    /// Replays the fault-free baseline of a single-seed campaign and
    /// checks it against the campaign's baseline accuracy.
    pub fn baseline(&self, parent: usize, campaign: u64, c: &Campaign) -> Result<(), String> {
        let &[seed] = c.seeds else {
            return Err("baseline replay needs a single-seed campaign".into());
        };
        let accuracy = self.run(
            parent,
            campaign,
            &c.setup.with_seed(seed),
            &FaultPlan::none(),
        )?;
        if accuracy.to_bits() == c.baseline.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "baseline replay {accuracy} != campaign {}",
                c.baseline
            ))
        }
    }

    /// Replays one cell of a single-seed campaign and checks it against
    /// `expected`. Covers the cells the workloads run: undefended
    /// threshold cells on one layer, and undefended layer-netlist VDD
    /// cells.
    pub fn cell(
        &self,
        parent: usize,
        campaign: u64,
        c: &Campaign,
        job: &CellJob,
        expected: &SweepCell,
    ) -> Result<(), String> {
        let attack = &job.attack;
        let plain = attack.defense == DefenseSel::None
            && attack.detector == DetectorSel::None
            && attack.theta_change.is_none();
        let (rel_change, fraction) = attack.coordinates();
        let cell = match (attack.family, attack.rel_change, attack.neurons, c.seeds) {
            (AttackFamily::Threshold(sel), Some(rel), None, &[seed])
                if plain && attack.vdd.is_none() =>
            {
                let layer: TargetLayer = sel.target().ok_or("both-layer cells are not replayed")?;
                let plan = FaultPlan {
                    thresholds: vec![ThresholdFault {
                        layer,
                        rel_change: rel,
                        fraction: attack.fraction,
                        selection: Selection::FirstK,
                        convention: ThresholdConvention::PaperSignedScale,
                    }],
                    drive: None,
                };
                let setup = c.setup.with_seed(attack.seed.unwrap_or(seed));
                let accuracy = self.run(parent, campaign, &setup, &plan)?;
                SweepCell {
                    rel_change,
                    fraction,
                    accuracy,
                    relative_change_percent: percent_change(accuracy, c.baseline),
                }
            }
            (AttackFamily::Vdd, None, Some(neurons), _) if plain => {
                let neurons = usize::try_from(neurons).map_err(|e| e.to_string())?;
                let vdd = attack.vdd.unwrap_or(VDD_NOMINAL);
                let value = self.transient(parent, campaign, neurons, vdd)?;
                let reference = if vdd == VDD_NOMINAL {
                    value
                } else {
                    self.transient(parent, campaign, neurons, VDD_NOMINAL)?
                };
                SweepCell {
                    rel_change,
                    fraction,
                    accuracy: value,
                    relative_change_percent: percent_change(value, reference),
                }
            }
            _ => {
                return Err(format!(
                    "cell {} is outside the replayed cell kinds",
                    job.index
                ))
            }
        };
        if same_cell(&cell, expected) {
            Ok(())
        } else {
            Err(format!(
                "cell {} replay {cell:?} != campaign {expected:?}",
                job.index
            ))
        }
    }

    /// The per-layer metrics of a traced run, from its spans and counts.
    /// Metrics of layers the run never entered read 0.
    pub fn layer_metrics(&self, threads: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.tracer.spans();
        let counts = self.counts();
        let mut m = BTreeMap::new();
        let own = |name| trace::name_self_time(spans, name);
        let calls = |name| spans.iter().filter(|s| s.name == name).count() as f64;

        m.insert("data.generate_s", own("data.generate"));
        m.insert("data.generate_calls", calls("data.generate"));
        let (train_s, eval_s) = (own("snn.train"), own("snn.eval"));
        m.insert("snn.train_s", train_s);
        m.insert("snn.assign_s", own("snn.assign"));
        m.insert("snn.eval_s", eval_s);
        m.insert("snn.presentations", counts.presentations as f64);
        m.insert(
            "snn.us_per_step",
            per(train_s + eval_s, counts.steps as f64) * 1e6,
        );

        m.insert("core.baseline_s", own("core.baseline"));
        m.insert("core.plan_s", own("core.plan"));
        let cells = trace::durations(spans, "core.cell");
        m.insert("core.cell_s_p50", stats::median(&cells));
        m.insert("core.cell_s_max", cells.iter().copied().fold(0.0, f64::max));
        let pool: f64 = trace::durations(spans, "core.pool").iter().sum();
        m.insert(
            "core.pool_busy_fraction",
            per(cells.iter().sum(), pool * threads as f64),
        );

        let transients = &counts.transients;
        let sum = |f: fn(&TranStats) -> u64| transients.iter().map(f).sum::<u64>() as f64;
        m.insert("analog.transients", transients.len() as f64);
        m.insert("analog.build_s", own("analog.build"));
        m.insert("analog.transfer_table_s", own("analog.transfer_table"));
        let tran_s = own("spice.tran");
        let newton = sum(|t| t.newton_iterations);
        m.insert("spice.tran_s", tran_s);
        m.insert("spice.newton_iterations", newton);
        m.insert("spice.accepted_steps", sum(|t| t.accepted_steps));
        m.insert("spice.rejected_steps", sum(|t| t.rejected_steps));
        m.insert("spice.us_per_newton", per(tran_s, newton) * 1e6);
        m.insert(
            "solver.refactorizations",
            sum(|t| t.solver.refactorizations),
        );
        m.insert("solver.solves", sum(|t| t.solver.solves));
        m.insert(
            "solver.fill_ratio",
            per(
                sum(|t| t.solver.lu_nnz as u64),
                sum(|t| t.solver.nnz as u64),
            ),
        );
        m.insert(
            "solver.full_factorizations",
            sum(|t| t.solver.full_factorizations),
        );

        let layers = trace::layer_self_times(spans);
        for (layer, name) in [
            ("data", "data.self_s"),
            ("snn", "snn.self_s"),
            ("core", "core.self_s"),
            ("analog", "analog.self_s"),
            ("spice", "spice.self_s"),
            ("dist", "dist.self_s"),
            ("store", "store.self_s"),
        ] {
            m.insert(name, layers.get(layer).copied().unwrap_or(0.0));
        }
        // Status polls are as frequent as the client chooses; dist's
        // self time without them rests on the program alone.
        m.insert(
            "dist.self_s_excl_status",
            layers.get("dist").copied().unwrap_or(0.0)
                - trace::name_self_time(spans, "dist.status"),
        );

        // Lower-layer time of the replayed cells against the time the
        // program spent executing the same cells.
        let roots: BTreeSet<usize> = spans
            .iter()
            .filter(|s| s.name == "bench.replay")
            .map(|s| s.id)
            .collect();
        let replayed: f64 = spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
            .map(Span::seconds)
            .sum();
        m.insert("replay_ratio", per(replayed, cells.iter().sum()));
        m
    }
}

/// Replayed-cell time may differ from the program's cell time by this
/// factor either way before the run flags the replay as diverged.
const REPLAY_RATIO_TOLERANCE: f64 = 1.25;

/// Flags a traced run whose replay no longer does the program's work.
///
/// The replay's counts (dataset generations, presentations, transients,
/// Newton and solver counters) come from the replay's own fixed call
/// structure: one `datasets()` per cell, a nominal re-simulation per
/// off-nominal layer cell. A bit-equal replay proves the same results,
/// not the same work. If the program learns to skip work (reuse datasets,
/// cache the nominal reference), its cells get faster than their
/// replays, and the ratio of replayed to executed cell time leaves 1.
pub fn flag_divergence(outcome: &mut Outcome) {
    let ratio = outcome.metrics.get("replay_ratio").copied().unwrap_or(0.0);
    if ratio > 0.0 && !(1.0 / REPLAY_RATIO_TOLERANCE..=REPLAY_RATIO_TOLERANCE).contains(&ratio) {
        outcome.note(format!(
            "WARNING: replayed cells took {ratio:.2}x the program's cell time; the replay \
             no longer mirrors the program's work, so its per-layer counts and times \
             describe the replay, not the program"
        ));
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
