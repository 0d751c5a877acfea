//! A small pure-Rust neural-network library.
//!
//! Implements exactly what the paper's two Keras models need (§IV-C.2 and
//! §IV-D.2): dense and convolutional layers (1-D and 2-D), ReLU, max
//! pooling, dropout, batch normalization, a softmax cross-entropy head, and
//! SGD/Adam optimizers, trained sample-by-sample with gradient accumulation
//! over mini-batches. Per-epoch train/validation loss and accuracy are
//! recorded for the Figure 7 training curves.
//!
//! # Example
//!
//! ```
//! use emoleak_ml::nn::{layers::{Dense, Relu}, Sequential, Tensor, TrainConfig};
//!
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(2, 8, 1)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 2, 2)),
//! ]);
//! let x = vec![
//!     Tensor::from_vec(vec![0.0, 0.0]),
//!     Tensor::from_vec(vec![1.0, 1.0]),
//! ];
//! let y = vec![0, 1];
//! let history = net.fit(&x, &y, &x, &y, &TrainConfig { epochs: 50, ..Default::default() });
//! assert_eq!(history.epochs(), 50);
//! ```

pub mod architectures;
pub mod layers;
pub mod optimizer;
pub mod quant;
pub mod tensor;

pub use architectures::{feature_cnn, feature_cnn_scaled, spectrogram_cnn, spectrogram_cnn_scaled, CnnClassifier};
pub use layers::ShapeError;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use quant::QuantizedCnn;
pub use tensor::Tensor;

use crate::linalg::{argmax, softmax_inplace};
use emoleak_kernels::{Activation, KernelMode};
use layers::Layer;
use quant::LayerSpec;
use serde::{Deserialize, Serialize};

/// Per-epoch training/validation metrics (Figure 7 curves).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Mean training cross-entropy per epoch.
    pub train_loss: Vec<f64>,
    /// Training accuracy per epoch.
    pub train_accuracy: Vec<f64>,
    /// Validation cross-entropy per epoch.
    pub val_loss: Vec<f64>,
    /// Validation accuracy per epoch.
    pub val_accuracy: Vec<f64>,
}

impl TrainingHistory {
    /// Number of recorded epochs.
    pub fn epochs(&self) -> usize {
        self.train_loss.len()
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Gradient-accumulation batch size.
    pub batch_size: usize,
    /// Learning rate for the Adam optimizer.
    pub learning_rate: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 40, batch_size: 16, learning_rate: 1e-3, seed: 0xAD4A }
    }
}

/// A feed-forward stack of layers with a softmax cross-entropy head.
///
/// Training runs [`Sequential::forward`], which caches activations in the
/// layers for the backward pass. Prediction runs [`Sequential::infer`]'s
/// pass instead: `&self`, so one trained network serves concurrent callers
/// without a lock around it, and allocation-free once warm.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// The inference pass: which layers run, each with the activation
    /// fused into its output. Dropout is skipped and a ReLU is fused into
    /// the layer before it.
    plan: Vec<(usize, Activation)>,
    /// Ping-pong activation buffers for the inference pass, one pair per
    /// concurrent caller so far. The lock covers only taking a pair and
    /// putting it back, never a pass.
    buffers: parking_lot::Mutex<Vec<[Tensor; 2]>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential").field("layers", &names).finish()
    }
}

impl Sequential {
    /// Creates a network from a layer stack. The final layer must output the
    /// class-logit vector.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        let mut plan: Vec<(usize, Activation)> = Vec::new();
        for (i, layer) in layers.iter().enumerate() {
            match layer.quant_spec() {
                Some(LayerSpec::Identity) => {}
                Some(LayerSpec::Relu) => match plan.last_mut() {
                    Some((_, act @ Activation::Identity)) => *act = Activation::Relu,
                    _ => plan.push((i, Activation::Identity)),
                },
                _ => plan.push((i, Activation::Identity)),
            }
        }
        Sequential { layers, plan, buffers: parking_lot::Mutex::new(Vec::new()) }
    }

    /// Forward pass producing logits on the kernels `EMOLEAK_KERNELS`
    /// selects, caching in every layer what backpropagation needs.
    ///
    /// # Panics
    ///
    /// Panics if a layer rejects its input's shape.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        self.try_forward(input, training, KernelMode::current()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Shape-checked forward pass producing logits on `mode`'s kernels,
    /// reporting a typed [`ShapeError`] instead of panicking when a layer
    /// rejects its input.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when a layer rejects its input.
    pub fn try_forward(
        &mut self,
        input: &Tensor,
        training: bool,
        mode: KernelMode,
    ) -> Result<Tensor, ShapeError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.try_forward(&x, training, mode)?;
        }
        Ok(x)
    }

    /// Inference pass producing logits on `mode`'s kernels: bit-identical
    /// to `try_forward(input, false, mode)`, but `&self`, with
    /// dropout skipped, ReLU fused into the preceding layer, and every
    /// intermediate written into reused buffers.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when a layer rejects its input.
    pub fn infer(&self, input: &Tensor, mode: KernelMode) -> Result<Tensor, ShapeError> {
        self.with_logits(input, mode, Tensor::clone)
    }

    /// Runs the inference pass on a pooled buffer pair and hands the logits
    /// to `f`.
    fn with_logits<R>(
        &self,
        input: &Tensor,
        mode: KernelMode,
        f: impl FnOnce(&Tensor) -> R,
    ) -> Result<R, ShapeError> {
        let mut buffers = self.buffers.lock().pop().unwrap_or_default();
        let result = self.run_plan(input, mode, &mut buffers).map(f);
        self.buffers.lock().push(buffers);
        result
    }

    /// Step `s` of the plan reads step `s - 1`'s buffer (or `input`) and
    /// writes buffer `s % 2`.
    fn run_plan<'a>(
        &self,
        input: &'a Tensor,
        mode: KernelMode,
        buffers: &'a mut [Tensor; 2],
    ) -> Result<&'a Tensor, ShapeError> {
        for (s, &(i, act)) in self.plan.iter().enumerate() {
            let [even, odd] = &mut *buffers;
            let (prev, out) = if s % 2 == 0 { (&*odd, even) } else { (&*even, odd) };
            let x = if s == 0 { input } else { prev };
            self.layers[i].infer(x, act, mode, out)?;
        }
        Ok(match self.plan.len() {
            0 => input,
            steps => &buffers[(steps - 1) % 2],
        })
    }

    /// Predicted class for one input.
    ///
    /// # Panics
    ///
    /// Panics if a layer rejects the input's shape.
    pub fn predict(&self, input: &Tensor) -> usize {
        self.try_predict(input).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Shape-checked [`Sequential::predict`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when a layer rejects its input.
    pub fn try_predict(&self, input: &Tensor) -> Result<usize, ShapeError> {
        self.with_logits(input, KernelMode::current(), |logits| argmax(&logits.data))
    }

    /// Softmax class probabilities for one input.
    ///
    /// # Panics
    ///
    /// Panics if a layer rejects the input's shape.
    pub fn predict_proba(&self, input: &Tensor) -> Vec<f64> {
        let mut p = self.infer(input, KernelMode::current()).unwrap_or_else(|e| panic!("{e}")).data;
        softmax_inplace(&mut p);
        p
    }

    /// Cross-entropy loss and accuracy over a labeled set (no learning).
    ///
    /// # Panics
    ///
    /// Panics if the lengths mismatch or a layer rejects an input's shape.
    pub fn evaluate(&self, xs: &[Tensor], ys: &[usize]) -> (f64, f64) {
        assert_eq!(xs.len(), ys.len(), "sample/label count mismatch");
        if xs.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        let mode = KernelMode::current();
        let mut loss = 0.0;
        let mut correct = 0usize;
        for (x, &y) in xs.iter().zip(ys) {
            let mut p = self.infer(x, mode).unwrap_or_else(|e| panic!("{e}")).data;
            softmax_inplace(&mut p);
            loss += -(p[y].max(1e-12)).ln();
            if argmax(&p) == y {
                correct += 1;
            }
        }
        (loss / xs.len() as f64, correct as f64 / xs.len() as f64)
    }

    /// Trains with Adam and records per-epoch history on both splits.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or lengths mismatch.
    pub fn fit(
        &mut self,
        train_x: &[Tensor],
        train_y: &[usize],
        val_x: &[Tensor],
        val_y: &[usize],
        config: &TrainConfig,
    ) -> TrainingHistory {
        assert!(!train_x.is_empty(), "training set must be non-empty");
        assert_eq!(train_x.len(), train_y.len(), "sample/label count mismatch");
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut opt = Adam::new(config.learning_rate);
        let mut history = TrainingHistory::default();
        let mut order: Vec<usize> = (0..train_x.len()).collect();
        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut correct = 0usize;
            for batch in order.chunks(config.batch_size.max(1)) {
                for layer in &mut self.layers {
                    layer.zero_grad();
                }
                for &i in batch {
                    let (loss, hit) = self.backprop_one(&train_x[i], train_y[i]);
                    epoch_loss += loss;
                    correct += usize::from(hit);
                }
                let scale = 1.0 / batch.len() as f64;
                opt.begin_step();
                for layer in &mut self.layers {
                    layer.visit_params(&mut |param, grad| {
                        opt.update(param, grad, scale);
                    });
                }
            }
            let train_loss = epoch_loss / train_x.len() as f64;
            let train_acc = correct as f64 / train_x.len() as f64;
            let (val_loss, val_acc) = if val_x.is_empty() {
                (f64::NAN, f64::NAN)
            } else {
                self.evaluate(val_x, val_y)
            };
            history.train_loss.push(train_loss);
            history.train_accuracy.push(train_acc);
            history.val_loss.push(val_loss);
            history.val_accuracy.push(val_acc);
        }
        history
    }

    /// Forward + backward for one sample; accumulates parameter gradients.
    /// Returns (loss, correct?).
    fn backprop_one(&mut self, x: &Tensor, y: usize) -> (f64, bool) {
        let logits = self.forward(x, true);
        let mut probs = logits.data.clone();
        softmax_inplace(&mut probs);
        let loss = -(probs[y].max(1e-12)).ln();
        let hit = argmax(&probs) == y;
        // dL/dlogits = softmax - onehot.
        let mut grad = Tensor { shape: logits.shape.clone(), data: probs };
        grad.data[y] -= 1.0;
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        (loss, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::layers::{Dense, Dropout, Relu};
    use super::*;

    fn xor_tensors() -> (Vec<Tensor>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for rep in 0..8 {
            let j = rep as f64 * 0.01;
            for &(a, b) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                xs.push(Tensor::from_vec(vec![a + j, b - j]));
                ys.push(usize::from((a > 0.5) != (b > 0.5)));
            }
        }
        (xs, ys)
    }

    #[test]
    fn mlp_learns_xor() {
        let (xs, ys) = xor_tensors();
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 16, 1)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 2, 2)),
        ]);
        let cfg = TrainConfig { epochs: 200, batch_size: 8, learning_rate: 5e-3, seed: 3 };
        let history = net.fit(&xs, &ys, &xs, &ys, &cfg);
        let final_acc = *history.train_accuracy.last().unwrap();
        assert!(final_acc > 0.95, "final accuracy {final_acc}");
        // Loss decreased substantially.
        assert!(history.train_loss.last().unwrap() < &(history.train_loss[0] * 0.5));
    }

    #[test]
    fn history_has_all_series() {
        let (xs, ys) = xor_tensors();
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 4, 7)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 2, 8)),
        ]);
        let cfg = TrainConfig { epochs: 5, ..Default::default() };
        let h = net.fit(&xs, &ys, &xs, &ys, &cfg);
        assert_eq!(h.epochs(), 5);
        assert_eq!(h.val_loss.len(), 5);
        assert!(h.val_accuracy.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn dropout_trains_and_infers() {
        let (xs, ys) = xor_tensors();
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 32, 9)),
            Box::new(Relu::new()),
            Box::new(Dropout::new(0.2, 10)),
            Box::new(Dense::new(32, 2, 11)),
        ]);
        let cfg = TrainConfig { epochs: 150, batch_size: 8, learning_rate: 5e-3, seed: 5 };
        let h = net.fit(&xs, &ys, &xs, &ys, &cfg);
        assert!(*h.val_accuracy.last().unwrap() > 0.9);
        // Inference is deterministic (dropout disabled).
        let a = net.predict(&xs[0]);
        let b = net.predict(&xs[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn probabilities_normalize() {
        let (xs, ys) = xor_tensors();
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 2, 1))]);
        let cfg = TrainConfig { epochs: 2, ..Default::default() };
        net.fit(&xs, &ys, &[], &[], &cfg);
        let p = net.predict_proba(&xs[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_panics() {
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 2, 1))]);
        net.fit(&[], &[], &[], &[], &TrainConfig::default());
    }
}
