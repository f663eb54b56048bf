//! # neurofi-data
//!
//! Dataset substrate for the `neurofi` workspace.
//!
//! The paper trains its Diehl&Cook SNN on MNIST. MNIST itself is not
//! redistributable inside this repository, so the default dataset is
//! [`synth::SynthDigits`] — a procedural 28×28 digit generator (per-class
//! stroke skeletons, random affine jitter, pen-width/intensity variation,
//! pixel noise) that preserves the property the attack study actually
//! needs: a separable, 10-class image distribution for rate-coded spiking
//! classification.
//!
//! If you have real MNIST as IDX files, point `NEUROFI_MNIST_DIR` at the
//! directory containing `train-images-idx3-ubyte` etc. and use
//! [`idx::load_mnist_dir`]; every consumer in this workspace accepts either
//! source through the common [`dataset::LabeledImages`] container.
//!
//! Every image is a pure function of its seed: no unordered collections,
//! no clocks. The crate is part of the workspace determinism zone
//! enforced by `repro-lint`.
//!
//! ```
//! use neurofi_data::synth::SynthDigits;
//!
//! let data = SynthDigits::default().generate(100, 42);
//! assert_eq!(data.len(), 100);
//! assert_eq!(data.image(0).len(), 28 * 28);
//! let (train, test) = data.split(80);
//! assert_eq!(train.len(), 80);
//! assert_eq!(test.len(), 20);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod dataset;
pub mod idx;
pub mod synth;

pub use dataset::LabeledImages;
pub use synth::SynthDigits;
