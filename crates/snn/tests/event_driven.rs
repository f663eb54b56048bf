//! Differential tests of the event-driven input path.
//!
//! `DenseNet` below is a copy of the Diehl&Cook kernel as it was before
//! the input spikes became an index list: the dense Poisson encoder, the
//! fused decay-and-load input traces, the dense forward pass and the
//! dense sequential and batched STDP with their clamp bookkeeping. It
//! reuses only the library's LIF layers, one-to-one and lateral
//! connections (which stayed dense) and `Matrix` kernels. Every test
//! drives it beside the library on the same seeds and demands the same
//! bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use neurofi_data::SynthDigits;
use neurofi_snn::diehl_cook::{DiehlCook2015, DiehlCookConfig};
use neurofi_snn::learning::PostPreStdp;
use neurofi_snn::neurons::LifLayer;
use neurofi_snn::tensor::Matrix;
use neurofi_snn::topology::{LateralInhibition, OneToOneConnection};
use neurofi_snn::PoissonEncoder;

/// The dense encoder step: one `f32` per channel, 1.0 = spike.
fn dense_encode_step(
    rng: &mut StdRng,
    max_rate_hz: f64,
    dt_ms: f64,
    image: &[u8],
    out: &mut [f32],
) {
    let scale = max_rate_hz * dt_ms / 1000.0 / 255.0;
    for (o, &pixel) in out.iter_mut().zip(image) {
        let p = pixel as f64 * scale;
        *o = if pixel > 0 && rng.gen::<f64>() < p {
            1.0
        } else {
            0.0
        };
    }
}

/// The dense kernel, built as a twin of a freshly constructed library
/// network (faults included).
struct DenseNet {
    config: DiehlCookConfig,
    seed: u64,
    samples_seen: u64,
    rng: StdRng,
    learning: bool,
    input_spikes: Vec<f32>,
    input_traces: Vec<f32>,
    input_trace_decay: f32,
    excitatory: LifLayer,
    inhibitory: LifLayer,
    w: Matrix,
    w_min: f32,
    w_max: f32,
    gain: f32,
    maybe_unclamped: bool,
    depression_scratch: Vec<f32>,
    exc_to_inh: OneToOneConnection,
    inh_to_exc: LateralInhibition,
    pending_deltas: Option<Matrix>,
    exc_current: Vec<f32>,
    inh_current: Vec<f32>,
}

impl DenseNet {
    fn twin(net: &DiehlCook2015, seed: u64) -> DenseNet {
        let config = net.config().clone();
        let dt = config.dt_ms as f32;
        DenseNet {
            seed,
            samples_seen: net.sample_counter(),
            rng: StdRng::seed_from_u64(0),
            learning: true,
            input_spikes: vec![0.0; config.n_input],
            input_traces: net.input.traces.clone(),
            input_trace_decay: (-dt / config.excitatory.tau_trace).exp(),
            excitatory: net.excitatory.clone(),
            inhibitory: net.inhibitory.clone(),
            w: net.input_to_exc.w.clone(),
            w_min: net.input_to_exc.w_min,
            w_max: net.input_to_exc.w_max,
            gain: net.input_to_exc.gain,
            // Random initialisation leaves the connection marked dirty.
            maybe_unclamped: true,
            depression_scratch: vec![0.0; config.n_excitatory],
            exc_to_inh: net.exc_to_inh.clone(),
            inh_to_exc: net.inh_to_exc.clone(),
            pending_deltas: None,
            exc_current: vec![0.0; config.n_excitatory],
            inh_current: vec![0.0; config.n_inhibitory],
            config,
        }
    }

    fn step(&mut self) {
        for (trace, &s) in self.input_traces.iter_mut().zip(&self.input_spikes) {
            let decayed = *trace * self.input_trace_decay;
            *trace = if s > 0.0 { 1.0 } else { decayed };
        }

        self.exc_current.fill(0.0);
        for (pre, &s) in self.input_spikes.iter().enumerate() {
            if s > 0.0 {
                self.w
                    .add_row_into(pre, s * self.gain, &mut self.exc_current);
            }
        }
        self.inh_to_exc
            .forward_into(&self.inhibitory.spikes, &mut self.exc_current);

        self.inh_current.fill(0.0);
        self.exc_to_inh
            .forward_into(&self.excitatory.spikes, &mut self.inh_current);

        self.excitatory.step(&self.exc_current);
        self.inhibitory.step(&self.inh_current);

        if self.learning {
            if self.pending_deltas.is_some() {
                self.accumulate();
            } else {
                self.update();
            }
        }
    }

    fn update(&mut self) {
        let stdp = self.config.stdp;
        let (lo, hi) = (self.w_min, self.w_max);
        let mut any_pre = false;
        if self.input_spikes.iter().any(|&s| s > 0.0) {
            for (d, &t) in self
                .depression_scratch
                .iter_mut()
                .zip(&self.excitatory.traces)
            {
                *d = -stdp.nu_pre * t;
            }
            for (i, &s) in self.input_spikes.iter().enumerate() {
                if s > 0.0 {
                    self.w.add_into_row(i, &self.depression_scratch);
                    any_pre = true;
                }
            }
        }
        let mut any_post = false;
        for (j, &s) in self.excitatory.spikes.iter().enumerate() {
            if s > 0.0 {
                self.w
                    .add_clamped_into_col(j, stdp.nu_post, &self.input_traces, lo, hi);
                any_post = true;
            }
        }
        if self.maybe_unclamped {
            if any_pre || any_post {
                self.w.clamp_all(lo, hi);
                self.maybe_unclamped = false;
            }
        } else if any_pre {
            for (i, &s) in self.input_spikes.iter().enumerate() {
                if s > 0.0 {
                    self.w.clamp_row(i, lo, hi);
                }
            }
        }
    }

    fn accumulate(&mut self) {
        let stdp = self.config.stdp;
        let deltas = self.pending_deltas.as_mut().expect("open batch");
        for (i, &s) in self.input_spikes.iter().enumerate() {
            if s > 0.0 {
                deltas.add_scaled_into_row(i, -stdp.nu_pre, &self.excitatory.traces);
            }
        }
        for (j, &s) in self.excitatory.spikes.iter().enumerate() {
            if s > 0.0 {
                deltas.add_into_col(j, stdp.nu_post, &self.input_traces);
            }
        }
    }

    fn begin_batch(&mut self) {
        self.pending_deltas = Some(Matrix::zeros(self.config.n_input, self.config.n_excitatory));
    }

    fn end_batch(&mut self) {
        if let Some(deltas) = self.pending_deltas.take() {
            for r in 0..deltas.rows() {
                self.w.add_into_row(r, deltas.row(r));
            }
            self.w.clamp_all(self.w_min, self.w_max);
            self.maybe_unclamped = false;
        }
    }

    fn run_sample(&mut self, image: &[u8], train: bool) -> Vec<f32> {
        self.learning = train;
        if train {
            self.w.normalize_columns(self.config.norm);
            self.maybe_unclamped = true;
        }
        self.input_spikes.fill(0.0);
        self.input_traces.fill(0.0);
        self.excitatory.reset_state();
        self.inhibitory.reset_state();
        self.rng = StdRng::seed_from_u64(
            self.seed ^ self.samples_seen.wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        self.samples_seen += 1;
        let steps = (self.config.sample_time_ms / self.config.dt_ms).round() as usize;
        let mut counts = vec![0.0f32; self.config.n_excitatory];
        for _ in 0..steps {
            dense_encode_step(
                &mut self.rng,
                self.config.max_rate_hz,
                self.config.dt_ms,
                image,
                &mut self.input_spikes,
            );
            self.step();
            for (c, &s) in counts.iter_mut().zip(&self.excitatory.spikes) {
                *c += s;
            }
        }
        counts
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Compares every piece of learned and dynamic state bit for bit.
fn same_state(net: &DiehlCook2015, dense: &DenseNet) -> Result<(), String> {
    let checks: [(&str, &[f32], &[f32]); 7] = [
        ("weights", net.input_to_exc.w.as_slice(), dense.w.as_slice()),
        ("input traces", &net.input.traces, &dense.input_traces),
        ("exc theta", &net.excitatory.theta, &dense.excitatory.theta),
        (
            "exc traces",
            &net.excitatory.traces,
            &dense.excitatory.traces,
        ),
        ("exc membrane", &net.excitatory.v, &dense.excitatory.v),
        ("inh theta", &net.inhibitory.theta, &dense.inhibitory.theta),
        ("inh membrane", &net.inhibitory.v, &dense.inhibitory.v),
    ];
    for (what, new, old) in checks {
        if let Some(i) = (0..new.len()).find(|&i| new[i].to_bits() != old[i].to_bits()) {
            return Err(format!("{what}[{i}] diverged: {} vs {}", new[i], old[i]));
        }
    }
    Ok(())
}

/// A random image: each pixel is zero with probability `zeros`, else
/// uniform in 1..=255.
fn random_image(rng: &mut StdRng, n: usize, zeros: f64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < zeros {
                0
            } else {
                rng.gen_range(1u8..=255)
            }
        })
        .collect()
}

/// Runs `presentations` (image, train) pairs through both kernels,
/// opening a batch every `batch` presentations when `batch > 0`, and
/// compares spike counts and state after every presentation and at
/// every batch boundary. Returns the total excitatory spike count.
fn run_both(
    net: &mut DiehlCook2015,
    dense: &mut DenseNet,
    presentations: &[(Vec<u8>, bool)],
    batch: usize,
) -> Result<f32, String> {
    let mut total = 0.0f32;
    for (index, (image, train)) in presentations.iter().enumerate() {
        if batch > 0 && index % batch == 0 {
            net.end_batch();
            dense.end_batch();
            same_state(net, dense)?;
            net.begin_batch();
            dense.begin_batch();
        }
        let new = net.run_sample(image, *train);
        let old = dense.run_sample(image, *train);
        if bits(&new) != bits(&old) {
            return Err(format!("presentation {index}: counts {new:?} vs {old:?}"));
        }
        same_state(net, dense).map_err(|e| format!("presentation {index}: {e}"))?;
        total += new.iter().sum::<f32>();
    }
    net.end_batch();
    dense.end_batch();
    same_state(net, dense)?;
    Ok(total)
}

/// A small random network with faults and bounds drawn from `rng`.
fn random_case(
    n_input: usize,
    n_excitatory: usize,
    rng: &mut StdRng,
) -> (DiehlCook2015, DenseNet, Vec<(Vec<u8>, bool)>) {
    let seed = rng.gen::<u64>();
    let mut config = DiehlCookConfig {
        n_input,
        n_excitatory,
        n_inhibitory: n_excitatory,
        // Low bounds and high targets leave weights above w_max after
        // normalisation; the full-clamp fallback must then match.
        w_max: rng.gen_range(0.05f32..1.0),
        w_init: rng.gen_range(0.05f32..1.0),
        norm: rng.gen_range(0.5f32..40.0),
        sample_time_ms: rng.gen_range(5usize..25) as f64,
        max_rate_hz: rng.gen_range(20.0f64..1000.0),
        stdp: PostPreStdp {
            nu_pre: rng.gen_range(0.0f32..0.05),
            nu_post: rng.gen_range(0.0f32..0.05),
        },
        ..DiehlCookConfig::default()
    };
    if rng.gen_bool(0.5) {
        config.stdp = PostPreStdp::bindsnet();
    }
    let mut net = DiehlCook2015::new(config, seed);
    if rng.gen_bool(0.7) {
        net.input_to_exc.gain = rng.gen_range(0.3f32..3.0);
    }
    for scale in net.excitatory.threshold_scale.iter_mut() {
        if rng.gen_bool(0.5) {
            *scale = rng.gen_range(0.7f32..1.3);
        }
    }
    for scale in net.inhibitory.threshold_scale.iter_mut() {
        if rng.gen_bool(0.5) {
            *scale = rng.gen_range(0.7f32..1.3);
        }
    }
    net.excitatory.input_gain = rng.gen_range(0.5f32..2.0);
    let dense = DenseNet::twin(&net, seed);
    let zeros = rng.gen_range(0.0f64..1.0);
    let presentations = (0..rng.gen_range(2usize..6))
        .map(|_| (random_image(rng, n_input, zeros), rng.gen_bool(0.75)))
        .collect();
    (net, dense, presentations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The network's event-driven path reproduces the dense kernel bit
    /// for bit: encoder, forward pass, traces and sequential STDP.
    #[test]
    fn sequential_training_matches_dense_kernel(
        n_input in 1usize..=64,
        n_excitatory in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut net, mut dense, presentations) = random_case(n_input, n_excitatory, &mut rng);
        let outcome = run_both(&mut net, &mut dense, &presentations, 0);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Same, with batched STDP: accumulation over the listed rows and
    /// the batch-boundary apply and clamp.
    #[test]
    fn batched_training_matches_dense_kernel(
        n_input in 1usize..=64,
        n_excitatory in 1usize..=16,
        seed in any::<u64>(),
        batch in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut net, mut dense, presentations) = random_case(n_input, n_excitatory, &mut rng);
        let outcome = run_both(&mut net, &mut dense, &presentations, batch);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// The encoder's index list names exactly the dense encoder's
    /// spikes, step after step and across image changes.
    #[test]
    fn encoder_lists_the_dense_spikes(
        n in 1usize..=784,
        seed in any::<u64>(),
        rate in 0.0f64..=1000.0,
        zeros in 0.0f64..=1.0,
    ) {
        let mut images = StdRng::seed_from_u64(seed ^ 1);
        let mut encoder = PoissonEncoder::new(rate, 1.0, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = vec![0.0f32; n];
        let mut list = Vec::new();
        for _ in 0..3 {
            let image = random_image(&mut images, n, zeros);
            encoder.set_image(&image);
            for _ in 0..4 {
                encoder.encode_step(&mut list);
                dense_encode_step(&mut rng, rate, 1.0, &image, &mut dense);
                let expect: Vec<usize> = (0..n).filter(|&i| dense[i] > 0.0).collect();
                prop_assert_eq!(&list, &expect);
            }
        }
    }
}

/// The paper-sized network on a digit, sequential and batched, with the
/// potentiation path exercised (the excitatory layer fires).
#[test]
fn paper_network_matches_dense_kernel() {
    let data = SynthDigits::default().generate(4, 11);
    let presentations: Vec<(Vec<u8>, bool)> = data
        .iter()
        .enumerate()
        .map(|(i, (image, _))| (image.to_vec(), i < 3))
        .collect();
    for batch in [0, 2] {
        let config = DiehlCookConfig {
            sample_time_ms: 40.0,
            ..DiehlCookConfig::default()
        };
        let mut net = DiehlCook2015::new(config, 5);
        net.inhibitory.threshold_scale.fill(0.8);
        net.input_to_exc.gain = 1.5;
        let mut dense = DenseNet::twin(&net, 5);
        let total = run_both(&mut net, &mut dense, &presentations, batch)
            .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        assert!(
            total > 0.0,
            "the excitatory layer never fired (batch {batch})"
        );
    }
}
