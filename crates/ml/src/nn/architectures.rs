//! The paper's two Keras architectures, reproduced layer for layer.

use super::layers::{
    BatchNorm1d, Conv1d, Conv2d, Dense, Dropout, Flatten, MaxPool1d, MaxPool2d, Relu,
};
use super::{Sequential, Tensor, TrainConfig};
use crate::{validate_fit_inputs, Classifier};

/// The spectrogram image classifier of §IV-C.2.
///
/// Input `[1, 32, 32]`. Three convolutional layers (128 filters with a
/// (1,1) kernel, 128 and 64 with (3,3)), each followed by ReLU, dropout 0.2
/// and (2,2) max pooling; then two fully connected layers of 32 neurons
/// (dropout 0.25 on the second) and the softmax output layer.
pub fn spectrogram_cnn(num_classes: usize, seed: u64) -> Sequential {
    spectrogram_cnn_scaled(num_classes, seed, 1)
}

/// [`spectrogram_cnn`] with every channel count divided by `width_divisor`
/// (structure unchanged). Divisor 1 is the paper-exact model; larger
/// divisors trade width for single-core runtime and are used by the default
/// table runs (`EMOLEAK_CNN_DIV`).
///
/// # Panics
///
/// Panics if `width_divisor` is zero.
pub fn spectrogram_cnn_scaled(num_classes: usize, seed: u64, width_divisor: usize) -> Sequential {
    assert!(width_divisor > 0, "width divisor must be positive");
    let ch = |c: usize| (c / width_divisor).max(4);
    Sequential::new(vec![
        Box::new(Conv2d::new(1, ch(128), (1, 1), seed ^ 0x1)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.2, seed ^ 0x2)),
        Box::new(MaxPool2d::new(2)), // -> [128, 16, 16]
        Box::new(Conv2d::new(ch(128), ch(128), (3, 3), seed ^ 0x3)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.2, seed ^ 0x4)),
        Box::new(MaxPool2d::new(2)), // -> [128, 8, 8]
        Box::new(Conv2d::new(ch(128), ch(64), (3, 3), seed ^ 0x5)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.2, seed ^ 0x6)),
        Box::new(MaxPool2d::new(2)), // -> [64, 4, 4]
        Box::new(Flatten::new()),
        Box::new(Dense::new(ch(64) * 4 * 4, 32, seed ^ 0x7)),
        Box::new(Relu::new()),
        Box::new(Dense::new(32, 32, seed ^ 0x8)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.25, seed ^ 0x9)),
        Box::new(Dense::new(32, num_classes, seed ^ 0xA)),
    ])
}

/// The time–frequency-feature classifier of §IV-D.2.
///
/// Input `[1, dim]` (dim = 24 Table II features). Five convolutional
/// layers — 256, 256 (then dropout 0.25 + pool 2), 128 with batch
/// normalization (then dropout 0.25 + pool 8), 64, 64 — all ReLU with zero
/// padding, then flatten and the softmax output layer.
pub fn feature_cnn(input_dim: usize, num_classes: usize, seed: u64) -> Sequential {
    feature_cnn_scaled(input_dim, num_classes, seed, 1)
}

/// [`feature_cnn`] with channel counts divided by `width_divisor`
/// (structure unchanged); divisor 1 is paper-exact.
///
/// # Panics
///
/// Panics if `width_divisor` is zero.
pub fn feature_cnn_scaled(
    input_dim: usize,
    num_classes: usize,
    seed: u64,
    width_divisor: usize,
) -> Sequential {
    assert!(width_divisor > 0, "width divisor must be positive");
    let ch = |c: usize| (c / width_divisor).max(4);
    let after_pool2 = (input_dim / 2).max(1);
    let after_pool8 = (after_pool2 / 8).max(1);
    Sequential::new(vec![
        Box::new(Conv1d::new(1, ch(256), 3, seed ^ 0x11)),
        Box::new(Relu::new()),
        Box::new(Conv1d::new(ch(256), ch(256), 3, seed ^ 0x12)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.25, seed ^ 0x13)),
        Box::new(MaxPool1d::new(2)), // -> [256, dim/2]
        Box::new(Conv1d::new(ch(256), ch(128), 3, seed ^ 0x14)),
        Box::new(BatchNorm1d::new(ch(128))),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.25, seed ^ 0x15)),
        Box::new(MaxPool1d::new(8)), // -> [128, dim/16]
        Box::new(Conv1d::new(ch(128), ch(64), 3, seed ^ 0x16)),
        Box::new(Relu::new()),
        Box::new(Conv1d::new(ch(64), ch(64), 3, seed ^ 0x17)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(ch(64) * after_pool8, num_classes, seed ^ 0x18)),
    ])
}

/// A [`Classifier`] adapter running the feature CNN on flat feature vectors,
/// so the evaluation harness can sweep it next to the Weka-style models.
///
/// [`Classifier::predict`] takes `&self` and so does the network's
/// inference pass, so the fitted network is held without a lock.
pub struct CnnClassifier {
    /// Training configuration.
    pub config: TrainConfig,
    /// Channel-width divisor (1 = paper-exact).
    pub width_divisor: usize,
    seed: u64,
    net: Option<Sequential>,
    history: Option<super::TrainingHistory>,
}

impl std::fmt::Debug for CnnClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CnnClassifier")
            .field("config", &self.config)
            .field("fitted", &self.net.is_some())
            .finish()
    }
}

impl CnnClassifier {
    /// Creates an (unfitted) feature-CNN classifier with the paper-exact
    /// width.
    pub fn new(config: TrainConfig, seed: u64) -> Self {
        CnnClassifier { config, width_divisor: 1, seed, net: None, history: None }
    }

    /// Sets the channel-width divisor (see [`feature_cnn_scaled`]).
    #[must_use]
    pub fn with_width_divisor(mut self, width_divisor: usize) -> Self {
        assert!(width_divisor > 0, "width divisor must be positive");
        self.width_divisor = width_divisor;
        self
    }

    /// The training history of the last [`Classifier::fit`] call (Figure 7).
    pub fn history(&self) -> Option<&super::TrainingHistory> {
        self.history.as_ref()
    }

    fn to_tensor(row: &[f64]) -> Tensor {
        Tensor::from_shape(&[1, row.len()], row.to_vec())
    }
}

impl Classifier for CnnClassifier {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], num_classes: usize) {
        validate_fit_inputs(x, y, num_classes);
        let dim = x[0].len();
        let mut net = feature_cnn_scaled(dim, num_classes, self.seed, self.width_divisor);
        let tensors: Vec<Tensor> = x.iter().map(|r| Self::to_tensor(r)).collect();
        // Hold out 10 % as the validation series for the history curves.
        let n_val = (tensors.len() / 10).max(1).min(tensors.len() - 1);
        let (vx, tx) = tensors.split_at(n_val);
        let (vy, ty) = y.split_at(n_val);
        let history = net.fit(tx, ty, vx, vy, &self.config);
        self.history = Some(history);
        self.net = Some(net);
    }

    fn predict(&self, x: &[f64]) -> usize {
        let net = self.net.as_ref().expect("CNN is not fitted");
        net.predict(&Self::to_tensor(x))
    }

    fn name(&self) -> &str {
        "CNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrogram_cnn_shapes_flow() {
        let mut net = spectrogram_cnn(7, 1);
        let input = Tensor::zeros(&[1, 32, 32]);
        let out = net.forward(&input, false);
        assert_eq!(out.shape, vec![7]);
    }

    #[test]
    fn feature_cnn_shapes_flow() {
        let mut net = feature_cnn(24, 7, 1);
        let input = Tensor::zeros(&[1, 24]);
        let out = net.forward(&input, false);
        assert_eq!(out.shape, vec![7]);
    }
}
