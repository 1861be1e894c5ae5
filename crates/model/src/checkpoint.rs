//! Lossless text checkpoints for [`TransformerLm`].
//!
//! The format is line-oriented: a header with the architecture, then one
//! line per parameter tensor (`name rows cols` followed by
//! whitespace-separated f32 bit patterns in hex). Hex bit patterns make the
//! round trip exact — `load(save(m))` reproduces generation bit-for-bit.

use std::error::Error;
use std::fmt;

use wisdom_tensor::ParamTensor;

use crate::config::ModelConfig;
use crate::transformer::TransformerLm;

/// Error while restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadCheckpointError {
    /// Missing or malformed header.
    BadHeader(String),
    /// A tensor line was malformed or inconsistent.
    BadTensor {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// Checkpoint had the wrong number of tensors for its architecture.
    WrongShape(String),
}

impl fmt::Display for LoadCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadCheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            LoadCheckpointError::BadTensor { line, message } => {
                write!(f, "bad tensor at line {line}: {message}")
            }
            LoadCheckpointError::WrongShape(m) => write!(f, "inconsistent checkpoint: {m}"),
        }
    }
}

impl Error for LoadCheckpointError {}

/// Serializes a model to the text checkpoint format.
///
/// # Panics
///
/// Panics on an int8-packed model (its f32 weight storage is freed);
/// convert with `set_precision(Precision::F32)` first.
pub fn save_checkpoint(model: &TransformerLm) -> String {
    assert!(
        model.precision() != crate::transformer::Precision::Int8,
        "cannot checkpoint an int8-packed model; convert with \
         set_precision(Precision::F32) first"
    );
    let cfg = model.config();
    let mut out = format!(
        "wisdom-lm v1 vocab={} d_model={} layers={} heads={} ctx={}\n",
        cfg.vocab_size, cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.context_window
    );
    for (name, data, rows, cols) in model.named_parameters() {
        out.push_str(&format!("{name} {rows} {cols}"));
        for v in data {
            out.push(' ');
            out.push_str(&format!("{:x}", v.to_bits()));
        }
        out.push('\n');
    }
    out
}

/// Restores a model from [`save_checkpoint`] output. Tensors are read in
/// the order [`save_checkpoint`] writes them (the model's canonical
/// parameter order); a tensor out of that order is an unknown parameter.
///
/// # Errors
///
/// Returns [`LoadCheckpointError`] on any format or shape mismatch.
pub fn load_checkpoint(text: &str) -> Result<TransformerLm, LoadCheckpointError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| LoadCheckpointError::BadHeader("empty file".to_string()))?;
    let mut fields = header.split_whitespace();
    if fields.next() != Some("wisdom-lm") || fields.next() != Some("v1") {
        return Err(LoadCheckpointError::BadHeader(header.to_string()));
    }
    let mut get = |key: &str| -> Result<usize, LoadCheckpointError> {
        fields
            .next()
            .and_then(|f| f.strip_prefix(key))
            .and_then(|v| v.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| LoadCheckpointError::BadHeader(format!("missing {key}")))
    };
    let cfg = ModelConfig {
        vocab_size: get("vocab")?,
        d_model: get("d_model")?,
        n_layers: get("layers")?,
        n_heads: get("heads")?,
        context_window: get("ctx")?,
    };
    let mut model = TransformerLm::shaped(cfg, |rows, cols, _| ParamTensor::zeros(rows, cols));
    let mut tensors = lines.enumerate().filter(|(_, line)| !line.is_empty());
    let mut loaded = 0usize;
    for (name, p) in model.named_parameters_mut() {
        let Some((idx, line)) = tensors.next() else {
            return Err(LoadCheckpointError::WrongShape(format!(
                "checkpoint ends after {loaded} tensors, before {name}"
            )));
        };
        let bad = |message: String| LoadCheckpointError::BadTensor {
            line: idx + 2,
            message,
        };
        let mut parts = line.split_whitespace();
        let got = parts
            .next()
            .ok_or_else(|| bad("missing name".to_string()))?;
        if got != name {
            return Err(bad(format!("unknown parameter {got:?} (expected {name})")));
        }
        let mut dim = |what: &str| {
            parts
                .next()
                .and_then(|p| p.parse::<usize>().ok())
                .ok_or_else(|| bad(format!("missing {what}")))
        };
        let shape = (dim("rows")?, dim("cols")?);
        if shape != (p.rows, p.cols) {
            return Err(bad(format!(
                "shape mismatch for {name}: checkpoint {}x{}, model {}x{}",
                shape.0, shape.1, p.rows, p.cols
            )));
        }
        p.data.clear();
        for part in parts {
            let bits = u32::from_str_radix(part, 16)
                .map_err(|_| bad(format!("bad hex value {part:?}")))?;
            p.data.push(f32::from_bits(bits));
        }
        if p.data.len() != p.rows * p.cols {
            return Err(bad(format!(
                "expected {} values, got {}",
                p.rows * p.cols,
                p.data.len()
            )));
        }
        loaded += 1;
    }
    if let Some((idx, _)) = tensors.next() {
        return Err(LoadCheckpointError::WrongShape(format!(
            "tensor past the last of {loaded} at line {}",
            idx + 2
        )));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::GenerationOptions;
    use wisdom_prng::Prng;

    fn model() -> TransformerLm {
        let cfg = ModelConfig {
            vocab_size: 40,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: 12,
        };
        let mut rng = Prng::seed_from_u64(3);
        TransformerLm::new(cfg, &mut rng)
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let m = model();
        let text = save_checkpoint(&m);
        let restored = load_checkpoint(&text).expect("load");
        assert_eq!(restored.config(), m.config());
        let opts = GenerationOptions {
            max_new_tokens: 8,
            ..Default::default()
        };
        assert_eq!(
            m.generate(&[1, 2, 3], &[0], &opts),
            restored.generate(&[1, 2, 3], &[0], &opts)
        );
        let a = m.next_token_logits(&[5, 6]);
        let b = restored.next_token_logits(&[5, 6]);
        assert_eq!(a, b, "logits must match bit-for-bit");
    }

    #[test]
    fn header_errors() {
        assert!(matches!(
            load_checkpoint(""),
            Err(LoadCheckpointError::BadHeader(_))
        ));
        assert!(matches!(
            load_checkpoint("other v1 vocab=4\n"),
            Err(LoadCheckpointError::BadHeader(_))
        ));
    }

    #[test]
    fn truncated_tensor_rejected() {
        let m = model();
        let text = save_checkpoint(&m);
        // Chop the last value off the final tensor line.
        let trimmed = text.trim_end().rsplit_once(' ').expect("values").0;
        assert!(matches!(
            load_checkpoint(trimmed),
            Err(LoadCheckpointError::BadTensor { .. })
        ));
    }

    #[test]
    fn missing_tensors_rejected() {
        let m = model();
        let text = save_checkpoint(&m);
        let first_two_lines: Vec<&str> = text.lines().take(3).collect();
        assert!(matches!(
            load_checkpoint(&first_two_lines.join("\n")),
            Err(LoadCheckpointError::WrongShape(_))
        ));
    }

    #[test]
    fn unknown_tensor_name_rejected() {
        let m = model();
        let mut text = save_checkpoint(&m);
        text = text.replacen("tok_emb", "bogus_name", 1);
        assert!(matches!(
            load_checkpoint(&text),
            Err(LoadCheckpointError::BadTensor { .. })
        ));
    }
}
