//! Parameters and the Adam optimizer.

use wisdom_prng::Prng;

/// A trainable parameter tensor with its Adam moment buffers.
///
/// # Examples
///
/// ```
/// use wisdom_tensor::{Adam, AdamConfig, ParamTensor};
/// use wisdom_prng::Prng;
///
/// let mut rng = Prng::seed_from_u64(0);
/// let mut p = ParamTensor::randn(2, 2, 0.02, &mut rng);
/// let grads = vec![0.1, -0.1, 0.2, 0.0];
/// let before = p.data.clone();
/// let mut adam = Adam::new(AdamConfig::default());
/// adam.begin_step();
/// adam.update(&mut p, &grads);
/// assert_ne!(p.data, before);
/// ```
#[derive(Debug, Clone)]
pub struct ParamTensor {
    /// Current values, row-major.
    pub data: Vec<f32>,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl ParamTensor {
    /// Creates a parameter filled with `value`.
    pub fn constant(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
            m: vec![0.0; rows * cols],
            v: vec![0.0; rows * cols],
        }
    }

    /// Creates a zero-initialized parameter.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::constant(rows, cols, 0.0)
    }

    /// Creates a parameter with N(0, `std_dev`²) initialization.
    pub fn randn(rows: usize, cols: usize, std_dev: f32, rng: &mut Prng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.normal_f32(0.0, std_dev))
            .collect();
        Self {
            data,
            rows,
            cols,
            m: vec![0.0; rows * cols],
            v: vec![0.0; rows * cols],
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Base learning rate (may be rescaled per step via [`Adam::set_lr`]).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style); 0 disables.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 5e-5, // the paper's fine-tuning learning rate
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The Adam optimizer. One instance drives all parameters of a model; call
/// [`Adam::begin_step`] once per batch, then [`Adam::update`] per parameter.
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
}

impl Adam {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: AdamConfig) -> Self {
        Self { cfg, t: 0 }
    }

    /// Overrides the learning rate (used by schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Advances the shared step counter; call once per optimization step
    /// before updating any parameter.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies one Adam update to `param` using `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != param.len()` or if `begin_step` has never
    /// been called.
    pub fn update(&self, param: &mut ParamTensor, grads: &[f32]) {
        assert_eq!(grads.len(), param.len(), "grad shape mismatch");
        assert!(self.t > 0, "call begin_step before update");
        let c = &self.cfg;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        for (((w, &g), m), v) in param
            .data
            .iter_mut()
            .zip(grads)
            .zip(param.m.iter_mut())
            .zip(param.v.iter_mut())
        {
            *m = c.beta1 * *m + (1.0 - c.beta1) * g;
            *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            let mut delta = c.lr * m_hat / (v_hat.sqrt() + c.eps);
            if c.weight_decay > 0.0 {
                delta += c.lr * c.weight_decay * *w;
            }
            *w -= delta;
        }
    }
}

/// Computes the global L2 norm across several gradient slices.
pub fn global_grad_norm<'a, I>(grads: I) -> f32
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let mut sum = 0.0f64;
    for g in grads {
        for &x in g {
            sum += f64::from(x) * f64::from(x);
        }
    }
    (sum as f32).sqrt()
}

/// Returns the multiplier that clips a gradient of norm `norm` to
/// `max_norm` (1.0 when already within bounds).
pub fn clip_scale(norm: f32, max_norm: f32) -> f32 {
    if norm > max_norm && norm > 0.0 {
        max_norm / norm
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_moves_against_gradient() {
        let mut p = ParamTensor::constant(1, 2, 1.0);
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            ..Default::default()
        });
        adam.begin_step();
        adam.update(&mut p, &[1.0, -1.0]);
        assert!(p.data[0] < 1.0);
        assert!(p.data[1] > 1.0);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize (x-3)^2 ; grad = 2(x-3)
        let mut p = ParamTensor::zeros(1, 1);
        let mut adam = Adam::new(AdamConfig {
            lr: 0.3,
            ..Default::default()
        });
        for _ in 0..200 {
            let g = 2.0 * (p.data[0] - 3.0);
            adam.begin_step();
            adam.update(&mut p, &[g]);
        }
        assert!((p.data[0] - 3.0).abs() < 0.05, "{}", p.data[0]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut p = ParamTensor::constant(1, 1, 5.0);
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.5,
            ..Default::default()
        });
        for _ in 0..50 {
            adam.begin_step();
            adam.update(&mut p, &[0.0]);
        }
        assert!(p.data[0] < 1.0, "{}", p.data[0]);
    }

    #[test]
    fn grad_norm_and_clip() {
        let a = vec![3.0f32, 0.0];
        let b = vec![0.0f32, 4.0];
        let norm = global_grad_norm([a.as_slice(), b.as_slice()]);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((clip_scale(norm, 1.0) - 0.2).abs() < 1e-6);
        assert_eq!(clip_scale(0.5, 1.0), 1.0);
    }

    #[test]
    fn randn_init_statistics() {
        let mut rng = Prng::seed_from_u64(5);
        let p = ParamTensor::randn(100, 100, 0.02, &mut rng);
        let mean: f32 = p.data.iter().sum::<f32>() / p.len() as f32;
        let std: f32 =
            (p.data.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / p.len() as f32).sqrt();
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!((std - 0.02).abs() < 0.002, "std {std}");
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn update_without_begin_step_panics() {
        let mut p = ParamTensor::zeros(1, 1);
        let adam = Adam::new(AdamConfig::default());
        adam.update(&mut p, &[0.0]);
    }
}
