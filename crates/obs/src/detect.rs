//! Streaming change detectors over windowed series.
//!
//! The window engine ([`crate::window`]) turns a trace into a
//! deterministic sequence of hourly buckets; this module watches such a
//! sequence and scores each new value for *drift*: has the series moved
//! away from its own recent history? Three detectors cover the shapes
//! that matter for the paper's observables:
//!
//! * [`DetectorSpec::EwmaZ`] — an exponentially-weighted mean/variance
//!   tracker scoring each value as a z-score against the pre-update
//!   state. Catches spikes and level shifts relative to recent noise.
//! * [`DetectorSpec::Cusum`] — a two-sided CUSUM (Page–Hinkley style)
//!   accumulating deviations from the running mean beyond a drift
//!   allowance. Catches small sustained shifts a z-score never trips on.
//! * [`DetectorSpec::RateOfChange`] — relative delta against the
//!   previous value. Catches bursts on series that are normally flat
//!   (and never fires while a series stays at zero).
//!
//! Every detector is a pure fold over its input sequence: same values in
//! the same order ⇒ bit-identical state and scores, on any thread count,
//! because evaluation happens only over merged, sorted window reports
//! (see [`crate::alert`]). Because the alert engine re-folds the whole
//! merged report at every evaluation, detector state is never
//! checkpointed: a resumed run simply folds again.

use std::fmt::Write as _;

/// Which detector to run, with its tuning knobs. The spec is the
/// *configuration*; [`Detector`] holds the evolving state.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorSpec {
    /// EWMA mean/variance tracker; scores are z-values against the
    /// pre-update estimate. `alpha` is the EWMA weight of the newest
    /// value (0 < alpha ≤ 1; larger adapts faster).
    EwmaZ {
        /// EWMA weight of the newest observation.
        alpha: f64,
    },
    /// Two-sided CUSUM against the running mean. `drift` is the
    /// per-step allowance subtracted from each deviation before it
    /// accumulates — the classic `k` parameter.
    Cusum {
        /// Per-step drift allowance (`k`).
        drift: f64,
    },
    /// Relative change against the previous value:
    /// `(x − prev) / max(|prev|, 1)`.
    RateOfChange,
}

impl DetectorSpec {
    /// Short stable keyword used in renders and serialized rules.
    pub fn keyword(&self) -> &'static str {
        match self {
            DetectorSpec::EwmaZ { .. } => "ewma_z",
            DetectorSpec::Cusum { .. } => "cusum",
            DetectorSpec::RateOfChange => "roc",
        }
    }

    /// Human-oriented rendering including the tuning knobs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            DetectorSpec::EwmaZ { alpha } => {
                let _ = write!(out, "ewma_z(alpha={alpha})");
            }
            DetectorSpec::Cusum { drift } => {
                let _ = write!(out, "cusum(drift={drift})");
            }
            DetectorSpec::RateOfChange => out.push_str("roc"),
        }
        out
    }
}

/// EWMA observations to accumulate before z-scores are emitted; earlier
/// updates score 0 (the estimate is still warming up).
const EWMA_WARMUP: u64 = 3;

/// Variance floor for the z-score denominator, so a perfectly flat
/// warmup (variance 0) doesn't turn the first wiggle into an infinite
/// score.
const VAR_FLOOR: f64 = 1e-12;

/// A running change detector: spec plus evolving state. Create with
/// [`Detector::new`], feed values in series order with
/// [`Detector::update`].
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    spec: DetectorSpec,
    state: State,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    EwmaZ {
        mean: f64,
        var: f64,
        n: u64,
    },
    Cusum {
        mean: f64,
        n: u64,
        pos: f64,
        neg: f64,
    },
    RateOfChange {
        prev: Option<f64>,
    },
}

impl Detector {
    /// A fresh detector for `spec`.
    pub fn new(spec: &DetectorSpec) -> Detector {
        let state = match spec {
            DetectorSpec::EwmaZ { .. } => State::EwmaZ {
                mean: 0.0,
                var: 0.0,
                n: 0,
            },
            DetectorSpec::Cusum { .. } => State::Cusum {
                mean: 0.0,
                n: 0,
                pos: 0.0,
                neg: 0.0,
            },
            DetectorSpec::RateOfChange => State::RateOfChange { prev: None },
        };
        Detector {
            spec: spec.clone(),
            state,
        }
    }

    /// The spec this detector runs.
    pub fn spec(&self) -> &DetectorSpec {
        &self.spec
    }

    /// Fold in the next value of the series and return its signed drift
    /// score (positive = upward change, negative = downward). A pure
    /// deterministic function of the value sequence.
    pub fn update(&mut self, x: f64) -> f64 {
        match (&mut self.state, &self.spec) {
            (State::EwmaZ { mean, var, n }, DetectorSpec::EwmaZ { alpha }) => {
                let score = if *n >= EWMA_WARMUP {
                    (x - *mean) / var.max(VAR_FLOOR).sqrt()
                } else {
                    0.0
                };
                if *n == 0 {
                    *mean = x;
                } else {
                    let diff = x - *mean;
                    let incr = alpha * diff;
                    *mean += incr;
                    *var = (1.0 - alpha) * (*var + diff * incr);
                }
                *n += 1;
                score
            }
            (State::Cusum { mean, n, pos, neg }, DetectorSpec::Cusum { drift }) => {
                // Running mean includes the current value, so the very
                // first observation scores 0 by construction.
                *n += 1;
                *mean += (x - *mean) / *n as f64;
                *pos = (*pos + x - *mean - drift).max(0.0);
                *neg = (*neg + x - *mean + drift).min(0.0);
                if *pos >= -*neg {
                    *pos
                } else {
                    *neg
                }
            }
            (State::RateOfChange { prev }, DetectorSpec::RateOfChange) => {
                let score = match *prev {
                    Some(p) => (x - p) / p.abs().max(1.0),
                    None => 0.0,
                };
                *prev = Some(x);
                score
            }
            // `new` pairs state with spec; the arms above are exhaustive
            // for every constructible detector.
            _ => unreachable!("detector state does not match its spec"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_scores_spike_after_warmup() {
        let mut d = Detector::new(&DetectorSpec::EwmaZ { alpha: 0.3 });
        for _ in 0..8 {
            assert!(d.update(10.0).abs() < 1e-9, "flat series stays quiet");
        }
        let score = d.update(25.0);
        assert!(score > 3.0, "spike scores high: {score}");
    }

    #[test]
    fn ewma_warmup_is_silent() {
        let mut d = Detector::new(&DetectorSpec::EwmaZ { alpha: 0.3 });
        assert_eq!(d.update(5.0), 0.0);
        assert_eq!(d.update(500.0), 0.0);
        assert_eq!(d.update(-3.0), 0.0);
    }

    #[test]
    fn cusum_accumulates_sustained_shift() {
        let mut d = Detector::new(&DetectorSpec::Cusum { drift: 0.05 });
        for _ in 0..12 {
            d.update(0.5);
        }
        let mut last = 0.0;
        for _ in 0..12 {
            last = d.update(0.2);
        }
        assert!(last < -0.5, "sustained drop accumulates negative: {last}");
    }

    #[test]
    fn roc_never_fires_on_flat_zero() {
        let mut d = Detector::new(&DetectorSpec::RateOfChange);
        for _ in 0..50 {
            assert_eq!(d.update(0.0), 0.0);
        }
        assert_eq!(d.update(8.0), 8.0, "burst from zero scores the burst");
    }
}
