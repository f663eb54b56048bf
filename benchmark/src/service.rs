//! The `service-mix` workload: a persistent coordinator with a result
//! store and one two-thread worker on loopback TCP, driven by one
//! closed-loop client. The client submits a campaign, polls its status
//! until every cell is done, then submits the next.
//! Submissions alternate between *cold* grids, whose axis values come
//! from the seed and were never run before, and *warm* resubmissions of
//! an earlier grid under a new name, which the store answers in full.

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use neurofi_core::injection::TargetLayer;
use neurofi_core::scenario::ScenarioSpec;
use neurofi_core::sweep::{execute_cell, mean_baseline_accuracy, run_indexed, CellResult};
use neurofi_core::{BaselineCache, Parallelism, SweepConfig};
use neurofi_dist::{
    query_status_on, run_worker, submit_campaign, CampaignSpec, Connection, Coordinator,
    CoordinatorConfig, Message, NamedCampaign, SetupSpec, SplitMix64, TcpConnection, WorkerConfig,
    PROTOCOL_VERSION,
};
use neurofi_store::Store;

use crate::env::worker_threads;
use crate::relay::Relay;
use crate::replay::{self, per, Campaign, Replay};
use crate::stats;
use crate::trace::{self, maybe_span, Tracer};
use crate::Outcome;

/// Coordinator + store + worker set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Status polls per median cold latency. The pause between polls is
/// this fraction of the cold latency measured so far in the run, so
/// polling delays a completion by at most ~3% of a typical latency,
/// whatever the program's speed. Before the first cold latency is known
/// it is this fraction of the time elapsed since submitting.
const POLLS_PER_COLD: f64 = 32.0;
/// Bounds on the pause between polls.
const POLL_MIN_S: f64 = 1e-3;
const POLL_MAX_S: f64 = 1.0;
/// Distinct cold grids per run read back from the store and compared
/// with a serial run.
const CHECK_SAMPLE: usize = 3;
/// Cold submissions per traced run replayed in process.
const REPLAY_SAMPLE: usize = 8;
/// Consecutive failed submissions after which the run stops early.
const MAX_FAILURES: u64 = 10;

/// Every grid runs at bench scale over one seed: cheap cells, one shared
/// baseline per worker after warm-up.
const SETUP_SEED: u64 = 42;

fn bench_setup() -> SetupSpec {
    SetupSpec::bench(SETUP_SEED)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Warm,
}

/// One completed submission.
#[derive(Debug, Clone)]
struct Submission {
    kind: Kind,
    campaign: NamedCampaign,
    id: u32,
    latency_s: f64,
    polls: u64,
    total: u64,
    store_hits: u64,
}

/// The submission generator: fresh cold grids and warm resubmissions in
/// a seeded order.
struct Mix {
    rng: SplitMix64,
    used: BTreeSet<u64>,
    cold: Vec<CampaignSpec>,
    queue: Vec<Kind>,
    issued: u64,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: SplitMix64::new(seed),
            used: BTreeSet::new(),
            cold: Vec::new(),
            queue: Vec::new(),
            issued: 0,
        }
    }

    /// `n` distinct values in `[lo, hi)` never drawn before, ascending.
    fn fresh(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let v = lo + (hi - lo) * self.rng.unit_f64();
            if self.used.insert(v.to_bits()) {
                out.push(v);
            }
        }
        out.sort_by(f64::total_cmp);
        out
    }

    /// A 2 × 2 inhibitory threshold grid of values never seen before.
    fn cold_spec(&mut self) -> CampaignSpec {
        let config = SweepConfig {
            rel_changes: self.fresh(2, -0.4, 0.4),
            fractions: self.fresh(2, 0.1, 1.0),
            seeds: vec![SETUP_SEED],
        };
        let spec = CampaignSpec {
            setup: bench_setup(),
            scenario: ScenarioSpec::threshold(Some(TargetLayer::Inhibitory), &config),
        };
        self.cold.push(spec.clone());
        spec
    }

    /// The next submission. Each pair holds one cold and one warm
    /// submission, in an order the seed picks.
    fn next(&mut self) -> (Kind, NamedCampaign) {
        if self.queue.is_empty() {
            self.queue = if self.rng.chance(0.5) {
                vec![Kind::Warm, Kind::Cold]
            } else {
                vec![Kind::Cold, Kind::Warm]
            };
        }
        let kind = self.queue.pop().expect("queue refilled");
        self.issued += 1;
        let spec = match kind {
            Kind::Cold => self.cold_spec(),
            Kind::Warm => {
                let pick = self.rng.below(self.cold.len() as u64) as usize;
                self.cold[pick].clone()
            }
        };
        let name = match kind {
            Kind::Cold => format!("cold-{}", self.issued),
            Kind::Warm => format!("warm-{}", self.issued),
        };
        (kind, NamedCampaign::new(name, spec))
    }
}

/// A running service, the client's status connection to it, and the
/// cold latencies the client has measured on it.
struct Service {
    addr: String,
    store: PathBuf,
    status: TcpConnection,
    cold_s: Vec<f64>,
    /// The counting relay the worker's link runs through, if any.
    worker_link: Option<Relay>,
}

impl Service {
    /// Binds a persistent coordinator over a fresh store, queues
    /// `warmup`, then starts a worker (a worker refuses an empty queue)
    /// and waits for the grid, so the worker holds the bench-scale
    /// baseline.
    ///
    /// With `count_link`, the worker dials the coordinator through a
    /// counting relay, so the bytes of its link can be read.
    ///
    /// A persistent coordinator and its workers have no shutdown
    /// message; their threads are left to end with the process.
    fn start(store: PathBuf, warmup: NamedCampaign, count_link: bool) -> Result<Service, String> {
        let mut config = CoordinatorConfig::with_campaigns("127.0.0.1:0", Vec::new());
        config.persistent = true;
        config.store = Some(store.clone());
        let coordinator = Coordinator::bind(config).map_err(|e| e.to_string())?;
        let addr = coordinator
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        std::thread::spawn(move || coordinator.serve());
        let stream = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
        let mut status = TcpConnection::new(stream);
        status.set_recv_timeout(Some(Duration::from_secs(60)));
        let worker_link = if count_link {
            Some(Relay::start(addr.clone()).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let mut service = Service {
            addr,
            store,
            status,
            cold_s: Vec::new(),
            worker_link,
        };
        let start = Instant::now();
        let id = submit_campaign(&service.addr, warmup.clone()).map_err(|e| e.to_string())?;
        let dial = match &service.worker_link {
            Some(relay) => relay.addr().to_string(),
            None => service.addr.clone(),
        };
        let mut worker = WorkerConfig::new(dial);
        worker.parallelism = Parallelism::Threads(worker_threads());
        std::thread::spawn(move || run_worker(&worker));
        service.wait(Kind::Cold, warmup, id, start, None, 0)?;
        Ok(service)
    }

    /// Submits `campaign` and polls until all its cells are done.
    fn submit(
        &mut self,
        kind: Kind,
        campaign: NamedCampaign,
        tracer: Option<&Tracer>,
        sub: u64,
    ) -> Result<Submission, String> {
        let start = Instant::now();
        let id = maybe_span(tracer, "dist.submit", sub, || {
            submit_campaign(&self.addr, campaign.clone())
        })
        .map_err(|e| e.to_string())?;
        let done = self.wait(kind, campaign, id, start, tracer, sub)?;
        if kind == Kind::Cold {
            self.cold_s.push(done.latency_s);
        }
        Ok(done)
    }

    /// The pause before the next status poll of a submission made at
    /// `start` (see [`POLLS_PER_COLD`]).
    fn poll_pause(&self, start: Instant) -> Duration {
        let reference = if self.cold_s.is_empty() {
            start.elapsed().as_secs_f64()
        } else {
            stats::median(&self.cold_s)
        };
        Duration::from_secs_f64((reference / POLLS_PER_COLD).clamp(POLL_MIN_S, POLL_MAX_S))
    }

    /// Bytes the worker's link has carried so far, if it is counted.
    fn link_bytes(&self) -> Option<u64> {
        self.worker_link.as_ref().map(Relay::bytes)
    }

    /// Polls until all cells of campaign `id` are done.
    fn wait(
        &mut self,
        kind: Kind,
        campaign: NamedCampaign,
        id: u32,
        start: Instant,
        tracer: Option<&Tracer>,
        sub: u64,
    ) -> Result<Submission, String> {
        let mut polls = 0;
        loop {
            polls += 1;
            let snapshot = maybe_span(tracer, "dist.status", sub, || {
                query_status_on(&mut self.status)
            })
            .map_err(|e| e.to_string())?;
            let progress = snapshot
                .get(id as usize)
                .filter(|p| p.name == campaign.name)
                .ok_or_else(|| format!("status has no campaign `{}`", campaign.name))?;
            if progress.failed {
                return Err(format!("campaign `{}` failed", campaign.name));
            }
            if progress.done == progress.total {
                return Ok(Submission {
                    kind,
                    id,
                    latency_s: start.elapsed().as_secs_f64(),
                    polls,
                    total: progress.total,
                    store_hits: progress.store_hits,
                    campaign,
                });
            }
            std::thread::sleep(self.poll_pause(start));
        }
    }

    /// A read-only view of the store: a copy opened as its own store, so
    /// the service's file is never touched.
    fn store_copy(&self, dir: &Path) -> Result<(PathBuf, Store), String> {
        let copy = dir.join("store-copy");
        std::fs::copy(&self.store, &copy).map_err(|e| e.to_string())?;
        let store = Store::open(&copy).map_err(|e| e.to_string())?;
        Ok((copy, store))
    }
}

/// The closed loop: submissions back to back for `seconds`.
fn drive(
    service: &mut Service,
    mix: &mut Mix,
    seconds: f64,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
) -> (Vec<Submission>, f64) {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut failures = 0;
    while start.elapsed().as_secs_f64() < seconds && failures < MAX_FAILURES {
        let (kind, campaign) = mix.next();
        outcome.attempted += 1;
        match service.submit(kind, campaign, tracer, mix.issued) {
            Ok(sub) => {
                failures = 0;
                let hits_ok = match sub.kind {
                    Kind::Cold => sub.store_hits == 0,
                    Kind::Warm => sub.store_hits == sub.total,
                };
                if !hits_ok {
                    outcome.fail(format!(
                        "{} answered {} of {} cells from the store",
                        sub.campaign.name, sub.store_hits, sub.total
                    ));
                }
                done.push(sub);
            }
            Err(e) => {
                failures += 1;
                outcome.fail(e);
            }
        }
    }
    (done, start.elapsed().as_secs_f64())
}

/// Reads a seeded sample of distinct cold grids back from the store and
/// compares each, bit for bit, with a serial in-process run.
fn check_store(
    service: &Service,
    dir: &Path,
    subs: &[Submission],
    seed: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (_, store) = service.store_copy(dir)?;
    let cold: Vec<&Submission> = subs.iter().filter(|s| s.kind == Kind::Cold).collect();
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let mut picked = BTreeSet::new();
    while picked.len() < CHECK_SAMPLE.min(cold.len()) {
        picked.insert(rng.below(cold.len() as u64) as usize);
    }
    for i in picked {
        outcome.attempted += 1;
        let spec = &cold[i].campaign.spec;
        let serial = spec.run_serial().map_err(|e| e.to_string())?;
        let baseline_ok = store
            .get_baseline(spec.baseline_digest())
            .is_some_and(|b| b.to_bits() == serial.baseline_accuracy.to_bits());
        let cells_ok = spec
            .plan()
            .jobs
            .iter()
            .zip(&serial.cells)
            .all(|(job, want)| {
                store
                    .get_cell(spec.cell_digest(&job.attack))
                    .is_some_and(|got| replay::same_cell(&got, want))
            });
        if !(baseline_ok && cells_ok) {
            outcome.fail(format!(
                "store read-back of `{}` differs from run_serial",
                cold[i].campaign.name
            ));
        }
    }
    Ok(())
}

fn latencies(subs: &[Submission], kind: Kind) -> Vec<f64> {
    subs.iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.latency_s)
        .collect()
}

/// Starts the service `SETUP_REPEATS` times; returns the last one and
/// the median set-up time.
fn start_repeated(dir: &Path, mix: &mut Mix, count_link: bool) -> Result<(Service, f64), String> {
    let mut times = Vec::new();
    let mut service = None;
    for k in 0..SETUP_REPEATS {
        let warmup = NamedCampaign::new("warm-up", mix.cold_spec());
        let start = Instant::now();
        service = Some(Service::start(
            dir.join(format!("store-{k}")),
            warmup,
            count_link,
        )?);
        times.push(start.elapsed().as_secs_f64());
    }
    // Only the last service's warm-up grid is in the store the timed
    // loop talks to.
    mix.cold.drain(..mix.cold.len().saturating_sub(1));
    Ok((service.expect("at least one set-up"), stats::median(&times)))
}

fn end_to_end(outcome: &mut Outcome, subs: &[Submission], wall_s: f64, setup_s: f64) {
    let cold = latencies(subs, Kind::Cold);
    let warm = latencies(subs, Kind::Warm);
    let cells: u64 = subs.iter().map(|s| s.total).sum();
    outcome.set("setup_s", setup_s);
    outcome.set("campaign_s", stats::median(&cold));
    outcome.set("cells_per_s", per(cells as f64, wall_s));
    outcome.set("cold_submit_ms_p50", stats::median(&cold) * 1e3);
    outcome.set("cold_submit_ms_p90", stats::percentile(&cold, 90.0) * 1e3);
    outcome.set("warm_submit_ms_p50", stats::median(&warm) * 1e3);
    outcome.set("warm_submit_ms_p90", stats::percentile(&warm, 90.0) * 1e3);
    outcome.set("cold_submits", cold.len() as f64);
    outcome.set("warm_submits", warm.len() as f64);
    for (kind, values) in [("cold", &cold), ("warm", &warm)] {
        let s = stats::Summary::of(values);
        let tail = s
            .tail
            .map_or("no percentile has 10 samples beyond it".into(), |(p, v)| {
                format!("p{p} {:.3} ms", v * 1e3)
            });
        outcome.note(format!(
            "{kind}: n={} median {:.3} ms [{:.3}, {:.3}], {tail}",
            s.n,
            s.median * 1e3,
            s.q1 * 1e3,
            s.q3 * 1e3
        ));
    }
}

pub fn run(seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut mix = Mix::new(seed);
    let (mut service, setup_s) = start_repeated(dir, &mut mix, false)?;
    let (subs, wall_s) = drive(&mut service, &mut mix, seconds, None, &mut outcome);
    end_to_end(&mut outcome, &subs, wall_s, setup_s);
    check_store(&service, dir, &subs, seed, &mut outcome)?;
    Ok(outcome)
}

/// Encode + decode time, in nanoseconds, of the messages one submission
/// puts on the wire, excluding status polls: the messages are rebuilt
/// here from the submission and its cells' results.
fn codec(tracer: &Tracer, sub: &Submission, results: &[CellResult], baseline: f64) -> u64 {
    let id = sub.id;
    let jobs = sub.campaign.spec.plan().jobs;
    let messages = [
        Message::Submit {
            protocol: PROTOCOL_VERSION,
            campaign: sub.campaign.clone(),
        },
        Message::SubmitOk { id },
        Message::CampaignAnnounce {
            id,
            campaign: sub.campaign.clone(),
        },
        Message::Assign { campaign: id, jobs },
        Message::Results {
            campaign: id,
            baseline_accuracy: baseline,
            results: results.to_vec(),
        },
        Message::Ack {
            campaign: id,
            received: results.len() as u32,
        },
    ];
    let start = Instant::now();
    for message in &messages {
        tracer.span("dist.codec", None, u64::from(id), |_| {
            std::hint::black_box(Message::decode(&message.encode()).is_ok());
        });
    }
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The traced run: an untraced loop for the overhead reference, a loop
/// with spans around every submit and status call, then in-process
/// replays of a sample of cold grids (pool and lower layers, both
/// bit-checked against the store) and timed calls into the store. The
/// worker's link runs through a counting relay in both loops, so the
/// two loops differ by the spans alone.
pub fn run_traced(seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let replay = Replay::default();
    let tracer = &replay.tracer;
    let mut outcome = Outcome::default();
    let threads = worker_threads();
    let mut mix = Mix::new(seed);
    let (mut service, _) = start_repeated(dir, &mut mix, true)?;
    let (plain, _) = drive(&mut service, &mut mix, seconds, None, &mut outcome);
    let link_before = service.link_bytes();
    let (subs, _) = drive(&mut service, &mut mix, seconds, Some(tracer), &mut outcome);
    let link_bytes = service
        .link_bytes()
        .zip(link_before)
        .map_or(0, |(after, before)| after - before);
    let executed: u64 = subs
        .iter()
        .filter(|s| s.kind == Kind::Cold)
        .map(|s| s.total)
        .sum();
    check_store(&service, dir, &subs, seed, &mut outcome)?;
    let cold: Vec<&Submission> = subs.iter().filter(|s| s.kind == Kind::Cold).collect();
    let overhead = stats::median(&latencies(&subs, Kind::Cold))
        - stats::median(&latencies(&plain, Kind::Cold));

    // Replays run against a primed cache, as the worker's was.
    let setup = bench_setup()
        .materialize()
        .with_parallelism(Parallelism::Threads(threads));
    let cache = BaselineCache::new(&setup);
    let seeds = [SETUP_SEED];
    let baseline = tracer.span("core.baseline", None, 0, |_| {
        mean_baseline_accuracy(&cache, &seeds)
    });
    let c = Campaign {
        setup: &setup,
        seeds: &seeds,
        baseline,
    };
    let (copy, store) = service.store_copy(dir)?;
    let mut overheads = Vec::new();
    let (mut codec_ns, mut cells) = (0u64, 0u64);
    let mut rng = SplitMix64::new(seed ^ 0x7ace);
    for _ in 0..REPLAY_SAMPLE.min(cold.len()) {
        let sub = cold[rng.below(cold.len() as u64) as usize];
        let spec = &sub.campaign.spec;
        let plan = spec.plan();
        let campaign = u64::from(sub.id);
        let pool_start = Instant::now();
        let executed = tracer.span("core.pool", None, campaign, |pool| {
            run_indexed(plan.jobs.len(), Parallelism::Threads(threads), |i| {
                tracer.span("core.cell", Some(pool), campaign, |_| {
                    execute_cell(&cache, &seeds, baseline, &plan.jobs[i], None)
                })
            })
        });
        let pool_s = pool_start.elapsed().as_secs_f64();
        let mut results = Vec::new();
        for (job, result) in plan.jobs.iter().zip(executed) {
            outcome.attempted += 1;
            let stored = store.get_cell(spec.cell_digest(&job.attack));
            match (result, stored) {
                (Ok(r), Some(s)) if replay::same_cell(&r.cell, &s) => {
                    let check = tracer.span("bench.replay", None, campaign, |root| {
                        replay.cell(root, campaign, &c, job, &s)
                    });
                    if let Err(e) = check {
                        outcome.fail(e);
                    }
                    results.push(r);
                }
                _ => outcome.fail(format!(
                    "cell {} of `{}` differs",
                    job.index, sub.campaign.name
                )),
            }
        }
        let n = plan.jobs.len() as u64;
        overheads.push((sub.latency_s - pool_s) * 1e3 / n as f64);
        codec_ns += codec(tracer, sub, &results, baseline);
        cells += n;
    }

    // The store: reopen the copy, read every distinct cell of the run
    // back, append them to a fresh store.
    let mut opens = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        tracer
            .span("store.open", None, 0, |_| Store::open(&copy))
            .map_err(|e| e.to_string())?;
        opens.push(start.elapsed().as_secs_f64());
    }
    let digests: BTreeSet<u64> = subs
        .iter()
        .flat_map(|sub| {
            let spec = &sub.campaign.spec;
            spec.plan()
                .jobs
                .iter()
                .map(|job| spec.cell_digest(&job.attack))
                .collect::<Vec<_>>()
        })
        .collect();
    let start = Instant::now();
    let found: Vec<_> = tracer.span("store.get", None, 0, |_| {
        digests
            .iter()
            .filter_map(|&d| store.get_cell(d).map(|cell| (d, cell)))
            .collect()
    });
    let get_s = start.elapsed().as_secs_f64();
    if found.len() != digests.len() {
        outcome.fail(format!(
            "{} of {} cells missing from the store",
            digests.len() - found.len(),
            digests.len()
        ));
    }
    let mut target = Store::open(&dir.join("store-put")).map_err(|e| e.to_string())?;
    let start = Instant::now();
    tracer
        .span("store.put", None, 0, |_| {
            found
                .iter()
                .try_for_each(|&(d, cell)| target.put_cell(d, cell).map(drop))
        })
        .map_err(|e| e.to_string())?;
    let put_s = start.elapsed().as_secs_f64();
    let records = store.len() as f64;
    let size = std::fs::metadata(&copy).map_or(0, |m| m.len()) as f64;

    let spans = tracer.spans();
    let polls: Vec<f64> = subs.iter().map(|s| s.polls as f64).collect();
    let total: u64 = subs.iter().map(|s| s.total).sum();
    let hits: u64 = subs.iter().map(|s| s.store_hits).sum();
    outcome.metrics = replay.layer_metrics(threads);
    replay::flag_divergence(&mut outcome);
    outcome.set(
        "dist.submit_ms",
        stats::median(&trace::durations(&spans, "dist.submit")) * 1e3,
    );
    outcome.set(
        "dist.status_ms",
        stats::median(&trace::durations(&spans, "dist.status")) * 1e3,
    );
    outcome.set(
        "dist.polls_per_submit",
        per(polls.iter().sum(), polls.len() as f64),
    );
    outcome.set(
        "dist.wire_bytes_per_cell",
        per(link_bytes as f64, executed as f64),
    );
    outcome.set(
        "dist.codec_us_per_cell",
        per(codec_ns as f64 * 1e-3, cells as f64),
    );
    outcome.set("dist.overhead_ms_per_cell", stats::median(&overheads));
    outcome.set("store.put_us", per(put_s * 1e6, found.len() as f64));
    outcome.set("store.get_us", per(get_s * 1e6, digests.len() as f64));
    outcome.set("store.hit_ratio", per(hits as f64, total as f64));
    outcome.set("store.open_s", stats::median(&opens));
    outcome.set("store.bytes_per_cell", per(size, records));
    outcome.set("bench.trace_overhead_s", overhead);
    outcome.spans = spans;
    Ok(outcome)
}
