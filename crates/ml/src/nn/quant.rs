//! Int8 quantized CNN inference — the `cnn-int8` degradation rung.
//!
//! [`QuantizedCnn`] lowers a trained [`Sequential`] into a stack of
//! symmetric-int8 layers: weights are quantized once per layer at build
//! time, activations are quantized per tensor at inference time, and the
//! matmuls run through `emoleak_kernels::int8::gemm_i8` with exact i32
//! accumulation. ReLU is fused into the preceding convolution or dense
//! layer; dropout disappears (inference identity); pooling and flatten run
//! in f64 on the dequantized activations.
//!
//! The quantized path is deliberately *lossy* relative to the f64 model —
//! it is a distinct [`InferenceLevel`] rung the streaming service opts into
//! under load, never a silent substitute — but it is deterministic: integer
//! arithmetic is exact, so the same input always yields the same verdict.
//!
//! [`InferenceLevel`]: https://docs.rs/emoleak-core

use super::layers::ShapeError;
use super::{Sequential, Tensor};
use crate::linalg::argmax;
use emoleak_kernels::conv::im2col_2d;
use emoleak_kernels::int8::{gemm_i8, quantize_symmetric};

/// An inference-relevant description of one trained layer, exported by
/// [`super::layers::Layer::quant_spec`] so [`QuantizedCnn::from_sequential`]
/// can lower a network without downcasting.
#[derive(Debug, Clone)]
pub enum LayerSpec {
    /// Stride-1 "same"-padded 2-D convolution with trained weights/bias.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Weights, `[out][in][kh][kw]`.
        w: Vec<f64>,
        /// Per-output-channel bias.
        b: Vec<f64>,
    },
    /// Stride-1 "same"-padded 1-D convolution.
    Conv1d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel length.
        k: usize,
        /// Weights, `[out][in][k]`.
        w: Vec<f64>,
        /// Per-output-channel bias.
        b: Vec<f64>,
    },
    /// Fully connected layer.
    Dense {
        /// Input dimension.
        in_dim: usize,
        /// Output dimension.
        out_dim: usize,
        /// Weights, `out × in` row-major.
        w: Vec<f64>,
        /// Bias.
        b: Vec<f64>,
    },
    /// ReLU — fused into the preceding matmul layer at lowering time.
    Relu,
    /// Inference-time identity (dropout).
    Identity,
    /// 2-D max pooling, kernel = stride.
    MaxPool2d {
        /// Pool size.
        pool: usize,
    },
    /// 1-D max pooling, kernel = stride.
    MaxPool1d {
        /// Pool size.
        pool: usize,
    },
    /// Flatten to 1-D.
    Flatten,
}

/// One lowered layer of a [`QuantizedCnn`].
#[derive(Debug, Clone)]
enum QLayer {
    Conv2d {
        in_ch: usize,
        out_ch: usize,
        kh: usize,
        kw: usize,
        wq: Vec<i8>,
        wscale: f64,
        b: Vec<f64>,
        relu: bool,
    },
    Conv1d {
        in_ch: usize,
        out_ch: usize,
        k: usize,
        wq: Vec<i8>,
        wscale: f64,
        b: Vec<f64>,
        relu: bool,
    },
    Dense {
        in_dim: usize,
        out_dim: usize,
        wq: Vec<i8>,
        wscale: f64,
        b: Vec<f64>,
        relu: bool,
    },
    MaxPool2d { pool: usize },
    MaxPool1d { pool: usize },
    Flatten,
}

/// An immutable int8-quantized inference network lowered from a trained
/// [`Sequential`]. Prediction takes `&self`, so it needs no lock to share
/// across worker threads.
#[derive(Debug, Clone)]
pub struct QuantizedCnn {
    layers: Vec<QLayer>,
}

impl QuantizedCnn {
    /// Lowers a trained network to int8. Returns `None` if any layer has
    /// no quantized representation (e.g. batch normalization) or a ReLU
    /// does not directly follow a convolution/dense layer — callers then
    /// keep the rung absent and the degradation ladder skips it.
    pub fn from_sequential(net: &Sequential) -> Option<QuantizedCnn> {
        let mut layers: Vec<QLayer> = Vec::new();
        for layer in &net.layers {
            match layer.quant_spec()? {
                LayerSpec::Conv2d { in_ch, out_ch, kh, kw, w, b } => {
                    let (wq, wscale) = quantize_symmetric(&w);
                    layers.push(QLayer::Conv2d {
                        in_ch,
                        out_ch,
                        kh,
                        kw,
                        wq,
                        wscale,
                        b,
                        relu: false,
                    });
                }
                LayerSpec::Conv1d { in_ch, out_ch, k, w, b } => {
                    let (wq, wscale) = quantize_symmetric(&w);
                    layers.push(QLayer::Conv1d { in_ch, out_ch, k, wq, wscale, b, relu: false });
                }
                LayerSpec::Dense { in_dim, out_dim, w, b } => {
                    let (wq, wscale) = quantize_symmetric(&w);
                    layers.push(QLayer::Dense { in_dim, out_dim, wq, wscale, b, relu: false });
                }
                LayerSpec::Relu => match layers.last_mut() {
                    Some(
                        QLayer::Conv2d { relu, .. }
                        | QLayer::Conv1d { relu, .. }
                        | QLayer::Dense { relu, .. },
                    ) => *relu = true,
                    _ => return None,
                },
                LayerSpec::Identity => {}
                LayerSpec::MaxPool2d { pool } => layers.push(QLayer::MaxPool2d { pool }),
                LayerSpec::MaxPool1d { pool } => layers.push(QLayer::MaxPool1d { pool }),
                LayerSpec::Flatten => layers.push(QLayer::Flatten),
            }
        }
        if layers.is_empty() {
            return None;
        }
        Some(QuantizedCnn { layers })
    }

    /// Predicted class for one input, or a typed error on a shape mismatch.
    pub fn try_predict(&self, input: &Tensor) -> Result<usize, ShapeError> {
        let mut shape = input.shape.clone();
        let mut data = input.data.clone();
        for layer in &self.layers {
            match layer {
                QLayer::Conv2d { in_ch, out_ch, kh, kw, wq, wscale, b, relu } => {
                    if shape.len() != 3 || shape[0] != *in_ch {
                        return Err(ShapeError {
                            layer: "QuantizedConv2d",
                            expected: format!("[{in_ch}, H, W]"),
                            got: shape,
                        });
                    }
                    let (h, w) = (shape[1], shape[2]);
                    let n = h * w;
                    let mut cols = Vec::new();
                    im2col_2d(&data, *in_ch, h, w, *kh, *kw, &mut cols);
                    data = matmul_q8(*out_ch, in_ch * kh * kw, n, wq, *wscale, &cols, b, *relu);
                    shape = vec![*out_ch, h, w];
                }
                QLayer::Conv1d { in_ch, out_ch, k, wq, wscale, b, relu } => {
                    if shape.len() != 2 || shape[0] != *in_ch {
                        return Err(ShapeError {
                            layer: "QuantizedConv1d",
                            expected: format!("[{in_ch}, L]"),
                            got: shape,
                        });
                    }
                    let l = shape[1];
                    let mut cols = Vec::new();
                    im2col_2d(&data, *in_ch, 1, l, 1, *k, &mut cols);
                    data = matmul_q8(*out_ch, in_ch * k, l, wq, *wscale, &cols, b, *relu);
                    shape = vec![*out_ch, l];
                }
                QLayer::Dense { in_dim, out_dim, wq, wscale, b, relu } => {
                    if data.len() != *in_dim {
                        return Err(ShapeError {
                            layer: "QuantizedDense",
                            expected: format!("[{in_dim}]"),
                            got: shape,
                        });
                    }
                    data = matmul_q8(*out_dim, *in_dim, 1, wq, *wscale, &data, b, *relu);
                    shape = vec![*out_dim];
                }
                QLayer::MaxPool2d { pool } => {
                    if shape.len() != 3 {
                        return Err(ShapeError {
                            layer: "QuantizedMaxPool2d",
                            expected: "[C, H, W]".into(),
                            got: shape,
                        });
                    }
                    let (c, h, w) = (shape[0], shape[1], shape[2]);
                    let (oh, ow) = ((h / pool).max(1), (w / pool).max(1));
                    let mut out = vec![f64::NEG_INFINITY; c * oh * ow];
                    for ch in 0..c {
                        for y in 0..oh {
                            for x in 0..ow {
                                let mut best = f64::NEG_INFINITY;
                                for dy in 0..*pool {
                                    let iy = y * pool + dy;
                                    if iy >= h {
                                        break;
                                    }
                                    for dx in 0..*pool {
                                        let ix = x * pool + dx;
                                        if ix >= w {
                                            break;
                                        }
                                        best = best.max(data[(ch * h + iy) * w + ix]);
                                    }
                                }
                                out[(ch * oh + y) * ow + x] = best;
                            }
                        }
                    }
                    data = out;
                    shape = vec![c, oh, ow];
                }
                QLayer::MaxPool1d { pool } => {
                    if shape.len() != 2 {
                        return Err(ShapeError {
                            layer: "QuantizedMaxPool1d",
                            expected: "[C, L]".into(),
                            got: shape,
                        });
                    }
                    let (c, l) = (shape[0], shape[1]);
                    let ol = (l / pool).max(1);
                    let mut out = vec![f64::NEG_INFINITY; c * ol];
                    for ch in 0..c {
                        for t in 0..ol {
                            let mut best = f64::NEG_INFINITY;
                            for d in 0..*pool {
                                let it = t * pool + d;
                                if it >= l {
                                    break;
                                }
                                best = best.max(data[ch * l + it]);
                            }
                            out[ch * ol + t] = best;
                        }
                    }
                    data = out;
                    shape = vec![c, ol];
                }
                QLayer::Flatten => {
                    shape = vec![data.len()];
                }
            }
        }
        Ok(argmax(&data))
    }

    /// Predicted class for one input.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch; use [`QuantizedCnn::try_predict`] to
    /// handle it as a value.
    pub fn predict(&self, input: &Tensor) -> usize {
        self.try_predict(input).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Quantizes the f64 activation matrix per tensor, multiplies int8 weights
/// (m×k) by activations (k×n) with i32 accumulation, then dequantizes and
/// applies bias (+ optional fused ReLU) per output row.
#[allow(clippy::too_many_arguments)]
fn matmul_q8(
    m: usize,
    k: usize,
    n: usize,
    wq: &[i8],
    wscale: f64,
    x: &[f64],
    bias: &[f64],
    relu: bool,
) -> Vec<f64> {
    let (xq, xscale) = quantize_symmetric(x);
    let mut acc = vec![0i32; m * n];
    gemm_i8(m, k, n, wq, &xq, &mut acc);
    let s = wscale * xscale;
    acc.iter()
        .enumerate()
        .map(|(i, &v)| {
            let y = f64::from(v) * s + bias[i / n];
            if relu {
                y.max(0.0)
            } else {
                y
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::architectures::{feature_cnn, spectrogram_cnn_scaled};
    use super::super::layers::{Conv2d, Flatten, Layer, MaxPool2d, Relu};
    use super::*;

    #[test]
    fn spectrogram_cnn_lowers_and_predicts_in_range() {
        let net = spectrogram_cnn_scaled(7, 3, 8);
        let q = QuantizedCnn::from_sequential(&net).expect("spectrogram CNN must lower");
        let input = Tensor::from_shape(
            &[1, 32, 32],
            (0..32 * 32).map(|i| ((i as f64) * 0.37).sin()).collect(),
        );
        let class = q.predict(&input);
        assert!(class < 7);
        // Deterministic: integer arithmetic has no run-to-run variance.
        assert_eq!(class, q.predict(&input));
        // The f64 network still runs on the same input.
        let _ = net.predict(&input);
    }

    #[test]
    fn feature_cnn_with_batchnorm_does_not_lower() {
        let net = feature_cnn(24, 7, 1);
        assert!(QuantizedCnn::from_sequential(&net).is_none());
    }

    #[test]
    fn grid_aligned_weights_make_quantized_forward_exact() {
        // Weights and input activations in {-1, 0, 1}: scale = 1/127 and
        // quantized values ±127, both exactly representable, so the first
        // (and only) matmul is exact integer arithmetic and the quantized
        // network must agree with the f64 network. (A second matmul would
        // re-quantize intermediate activations off-grid, which is the
        // rung's deliberate lossiness.)
        let mut conv = Conv2d::new(1, 3, (3, 3), 1);
        let mut first = true;
        conv.visit_params(&mut |p, _| {
            if first {
                for (i, v) in p.iter_mut().enumerate() {
                    *v = match i % 3 {
                        0 => 1.0,
                        1 => -1.0,
                        _ => 0.0,
                    };
                }
                first = false;
            } else {
                p.iter_mut().for_each(|v| *v = 0.25);
            }
        });
        let net = Sequential::new(vec![
            Box::new(conv),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
        ]);
        let q = QuantizedCnn::from_sequential(&net).unwrap();
        let input = Tensor::from_shape(
            &[1, 4, 4],
            (0..16).map(|i| f64::from([1i8, -1, 0, 1][i % 4])).collect(),
        );
        assert_eq!(q.predict(&input), net.predict(&input));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let net = spectrogram_cnn_scaled(7, 3, 8);
        let q = QuantizedCnn::from_sequential(&net).unwrap();
        let err = q.try_predict(&Tensor::from_shape(&[2, 8, 8], vec![0.0; 128])).unwrap_err();
        assert_eq!(err.layer, "QuantizedConv2d");
        assert_eq!(err.got, vec![2, 8, 8]);
    }
}
