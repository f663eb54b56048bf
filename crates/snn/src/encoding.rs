//! Spike encoders: pixel intensities → spike trains.
//!
//! ## Index-list output
//!
//! Only a few percent of the input channels fire on any step (about 20
//! of 784 for a digit at the paper's 128 Hz), so the encoder emits each
//! step's spikes as the ascending list of spiking channel indices, and
//! the network consumes that list all the way to the weight update.
//! [`PoissonEncoder::set_image`] collects an image's nonzero pixels and
//! their per-step probabilities once per presentation; each
//! [`PoissonEncoder::encode_step`] then draws over that list only.
//!
//! The draws are the ones a dense scan over every pixel makes: a zero
//! pixel never draws, and every nonzero pixel draws exactly once, in
//! pixel order, against the same `f64` probability. So the RNG stream,
//! and every spike it decides, is unchanged by skipping the zeros.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Poisson rate encoder, matching BindsNET's `PoissonEncoder` semantics:
/// a pixel of value 255 fires at `max_rate_hz`; each simulation step emits
/// a Bernoulli spike with probability `rate · dt`.
///
/// ```
/// use neurofi_snn::PoissonEncoder;
/// let mut enc = PoissonEncoder::new(128.0, 1.0, 7);
/// enc.set_image(&[255u8; 100]);
/// let mut spikes = Vec::new();
/// enc.encode_step(&mut spikes);
/// assert!(!spikes.is_empty()); // 12.8% per-step probability over 100 pixels
/// assert!(spikes.windows(2).all(|w| w[0] < w[1])); // ascending channel indices
/// ```
#[derive(Debug, Clone)]
pub struct PoissonEncoder {
    /// Firing rate of a fully-bright pixel, hertz.
    pub max_rate_hz: f64,
    /// Simulation step, milliseconds.
    pub dt_ms: f64,
    rng: StdRng,
    /// The loaded image's nonzero pixels in ascending order, each with
    /// its per-step spike probability.
    active: Vec<(usize, f64)>,
}

impl PoissonEncoder {
    /// Creates an encoder with the given peak rate and time step. No
    /// image is loaded: [`encode_step`](PoissonEncoder::encode_step)
    /// emits nothing until [`set_image`](PoissonEncoder::set_image).
    ///
    /// # Panics
    /// Panics if `max_rate_hz` is negative, or if the per-step spike
    /// probability `max_rate_hz · dt` exceeds 1.
    pub fn new(max_rate_hz: f64, dt_ms: f64, seed: u64) -> PoissonEncoder {
        assert!(max_rate_hz >= 0.0, "rate must be non-negative");
        assert!(dt_ms > 0.0, "dt must be positive");
        assert!(
            max_rate_hz * dt_ms / 1000.0 <= 1.0,
            "per-step spike probability exceeds 1 (rate {max_rate_hz} Hz at dt {dt_ms} ms)"
        );
        PoissonEncoder {
            max_rate_hz,
            dt_ms,
            rng: StdRng::seed_from_u64(seed),
            active: Vec::new(),
        }
    }

    /// Re-seeds the encoder (used to make every sample reproducible).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Loads the image to encode: collects its nonzero pixels with their
    /// per-step spike probabilities. Reuses the encoder's buffer, so a
    /// presentation loop allocates nothing once the buffer has grown.
    pub fn set_image(&mut self, image: &[u8]) {
        let scale = self.max_rate_hz * self.dt_ms / 1000.0 / 255.0;
        self.active.clear();
        self.active.extend(
            image
                .iter()
                .enumerate()
                .filter(|&(_, &pixel)| pixel > 0)
                .map(|(i, &pixel)| (i, pixel as f64 * scale)),
        );
    }

    /// Emits one time step of the loaded image: overwrites `spikes` with
    /// the ascending indices of the channels that fire.
    pub fn encode_step(&mut self, spikes: &mut Vec<usize>) {
        spikes.clear();
        for &(i, p) in &self.active {
            if self.rng.gen::<f64>() < p {
                spikes.push(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_rate_matches_pixel_value() {
        let mut enc = PoissonEncoder::new(128.0, 1.0, 3);
        enc.set_image(&[255u8, 128, 0]);
        let steps = 20_000;
        let mut counts = [0usize; 3];
        let mut spikes = Vec::new();
        for _ in 0..steps {
            enc.encode_step(&mut spikes);
            for &i in &spikes {
                counts[i] += 1;
            }
        }
        let rate = |c: usize| c as f64 / steps as f64 * 1000.0; // Hz at dt=1ms
        assert!((rate(counts[0]) - 128.0).abs() < 8.0, "{}", rate(counts[0]));
        assert!((rate(counts[1]) - 64.0).abs() < 6.0, "{}", rate(counts[1]));
        assert_eq!(counts[2], 0, "zero pixels must never spike");
    }

    fn steps(enc: &mut PoissonEncoder, n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|_| {
                let mut spikes = Vec::new();
                enc.encode_step(&mut spikes);
                spikes
            })
            .collect()
    }

    #[test]
    fn deterministic_for_seed() {
        let image = vec![200u8; 50];
        let mut a = PoissonEncoder::new(100.0, 1.0, 5);
        let mut b = PoissonEncoder::new(100.0, 1.0, 5);
        a.set_image(&image);
        b.set_image(&image);
        assert_eq!(steps(&mut a, 10), steps(&mut b, 10));
    }

    #[test]
    fn reseed_restarts_stream() {
        let mut enc = PoissonEncoder::new(100.0, 1.0, 5);
        enc.set_image(&[200u8; 50]);
        let first = steps(&mut enc, 2);
        enc.reseed(5);
        assert_eq!(steps(&mut enc, 2), first);
    }

    #[test]
    fn set_image_replaces_the_previous_image() {
        let mut enc = PoissonEncoder::new(1000.0, 1.0, 1);
        enc.set_image(&[255u8; 8]);
        enc.set_image(&[0, 0, 255, 0]);
        // p = 1 at 1000 Hz: the one bright pixel fires every step.
        assert_eq!(steps(&mut enc, 3), vec![vec![2]; 3]);
        enc.set_image(&[0u8; 4]);
        assert_eq!(steps(&mut enc, 1), vec![Vec::<usize>::new()]);
    }

    #[test]
    #[should_panic(expected = "probability exceeds 1")]
    fn rejects_overdriven_rate() {
        PoissonEncoder::new(2000.0, 1.0, 0);
    }
}
