//! # emoleak-kernels
//!
//! Optimized kernels for the per-verdict critical path, paired with the
//! straightforward scalar implementations they replace.
//!
//! Every speech window the streaming service classifies runs the same hot
//! loop: STFT → spectrogram resize → Table-II features → conv/dense
//! forward. This crate owns the compute-dense pieces of that loop:
//!
//! - [`gemm`] — f64 matrix multiply, as a per-element scalar reference and
//!   a register-tiled fast path that is **bit-identical** to the reference
//!   (same additions, same order, same rounding);
//! - [`conv`] — implicit-im2col fused conv+bias(+ReLU) kernels for the
//!   CNN's Conv1d/Conv2d forward passes, plus the materialized im2col the
//!   int8 path multiplies;
//! - [`int8`] — symmetric int8 quantization and an i32-accumulating int8
//!   GEMM backing the `cnn-int8` degradation rung.
//!
//! # The reference/fast contract
//!
//! Callers in `dsp`, `features` and `ml` keep their original scalar
//! implementations compiled in as the *reference path* and dispatch on
//! [`KernelMode`] (the `EMOLEAK_KERNELS` knob, default [`KernelMode::Fast`])
//! at the top of each operation. The contract, enforced by
//! `tests/proptest_kernels.rs` and `tests/kernel_parity.rs` at the
//! workspace root, is that on the f64 path the two modes are
//! **bit-identical** — not merely close. Optimizations are therefore
//! restricted to ones that preserve the exact sequence of rounded
//! floating-point operations per output value: blocking/reordering across
//! *independent* outputs, allocation elimination, and plan/scratch reuse.
//! Anything that would reassociate a single output's accumulation belongs
//! on the explicitly-lossy int8 rung instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod gemm;
pub mod int8;

pub use conv::Activation;

use emoleak_exec::EnvError;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// Environment knob selecting the kernel implementation.
pub const ENV_KERNELS: &str = "EMOLEAK_KERNELS";

/// Which implementation of the hot-path kernels to run.
///
/// The two modes are bit-identical on the f64 path; `Reference` exists so
/// differential tests (and suspicious operators) can re-run any workload
/// through the plain scalar code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// The straightforward scalar implementations the kernels replaced.
    Reference,
    /// Implicit-im2col register-tiled GEMM, in-place STFT, fused
    /// features.
    #[default]
    Fast,
}

impl FromStr for KernelMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(KernelMode::Reference),
            "fast" => Ok(KernelMode::Fast),
            _ => Err(()),
        }
    }
}

impl core::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            KernelMode::Reference => "reference",
            KernelMode::Fast => "fast",
        })
    }
}

impl KernelMode {
    /// Strictly parses `EMOLEAK_KERNELS`; unset means [`KernelMode::Fast`].
    ///
    /// Entry points that already return errors (bench binaries, config
    /// validation) use this form so a typo'd knob surfaces as
    /// `EmoleakError::Config` instead of silently running the default.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError`] when the variable is set to anything other
    /// than `reference` or `fast`.
    pub fn from_env_checked() -> Result<KernelMode, EnvError> {
        Ok(emoleak_exec::parse_checked::<KernelMode>(
            ENV_KERNELS,
            "\"reference\" or \"fast\"",
            |_| true,
        )?
        .unwrap_or_default())
    }

    /// Reads `EMOLEAK_KERNELS`, warning once on stderr and falling back to
    /// [`KernelMode::Fast`] if it is malformed.
    ///
    /// This is the accessor the hot paths use: it is called once per
    /// *top-level operation* (one spectrogram, one feature vector, one
    /// network forward or inference pass, which hands the mode to every
    /// layer), never per element or per layer, and deliberately re-reads
    /// the environment each time so the differential parity tests can flip
    /// modes within one process.
    #[must_use]
    pub fn current() -> KernelMode {
        static WARNED: AtomicBool = AtomicBool::new(false);
        match KernelMode::from_env_checked() {
            Ok(mode) => mode,
            Err(e) => {
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!("emoleak-kernels: {e}; using the fast path");
                }
                KernelMode::Fast
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_both_spellings_and_rejects_garbage() {
        assert_eq!("reference".parse(), Ok(KernelMode::Reference));
        assert_eq!("fast".parse(), Ok(KernelMode::Fast));
        assert_eq!("Fast".parse::<KernelMode>(), Err(()));
        assert_eq!("".parse::<KernelMode>(), Err(()));
        assert_eq!(KernelMode::default(), KernelMode::Fast);
    }

    #[test]
    fn mode_displays_its_knob_spelling() {
        assert_eq!(KernelMode::Reference.to_string(), "reference");
        assert_eq!(KernelMode::Fast.to_string(), "fast");
    }

    // `from_env_checked` / `current` read the process-global environment;
    // the env-driven behavior is covered by tests/kernel_parity.rs (which
    // owns the variable in its own test binary) rather than here, where
    // parallel in-crate tests would race on it.
}
