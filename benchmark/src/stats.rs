//! Timing samples and the estimators built on them.
//!
//! The named value of every timing metric is the **minimum** over samples
//! of identical work. On a shared host, interference only ever adds time,
//! and it comes in phases of tens of seconds: a median over one run moves
//! with the phase, the minimum does not (measurements in README.md). The
//! median and the 90th percentile ride along as fields for the reader.

use std::time::Instant;

/// Samples of one repeated operation, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.0.push(seconds);
    }

    /// Time `f` once and record it; returns what `f` returned.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.push(t.elapsed().as_secs_f64());
        out
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    pub fn best(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Linear-interpolated quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => f64::NAN,
            1 => sorted[0],
            n => {
                let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
            }
        }
    }
}

/// Samples of an operation that is a fixed sequence of distinct calls
/// (build, validate, solve; the jobs of a script). Each call is the same
/// work every time, so each has its own undisturbed time, and the
/// undisturbed time of the sequence is their sum: the estimate is the
/// **sum of the per-call minima**. A disturbance then has to cover every
/// sample of a call, not merely some part of every whole sequence, to
/// move it. For a one-call operation this is the plain minimum.
#[derive(Debug, Clone, Default)]
pub struct Staged {
    /// Seconds of the whole sequence, one sample a repetition.
    pub whole: Samples,
    stages: Vec<Samples>,
}

impl Staged {
    /// One repetition: the seconds of each call, in order.
    pub fn record(&mut self, parts: &[f64]) {
        self.whole.push(parts.iter().sum());
        if self.stages.len() < parts.len() {
            self.stages.resize_with(parts.len(), Samples::default);
        }
        for (stage, &seconds) in self.stages.iter_mut().zip(parts) {
            stage.push(seconds);
        }
    }

    /// Time a one-call operation and record it; returns what `f` returned.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(&[t.elapsed().as_secs_f64()]);
        out
    }

    pub fn n(&self) -> usize {
        self.whole.n()
    }

    pub fn best(&self) -> f64 {
        self.stages.iter().map(Samples::best).sum()
    }
}

/// Repeat `f` until `min` samples exist and `slice_s` seconds are used,
/// but never more than `max` times. Per-layer probes share the traced
/// run's time budget through their slices.
pub fn sample_for(min: usize, max: usize, slice_s: f64, mut f: impl FnMut() -> f64) -> Samples {
    let start = Instant::now();
    let mut s = Samples::default();
    while s.n() < min || (s.n() < max && start.elapsed().as_secs_f64() < slice_s) {
        s.push(f());
    }
    s
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them: the driver judges spread with that function, so
/// `aa` does too.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn staged_sums_the_per_call_minima() {
        let mut s = Staged::default();
        s.record(&[1.0, 5.0]);
        s.record(&[2.0, 3.0]);
        assert_eq!(s.best(), 4.0);
        assert_eq!(s.whole.best(), 5.0);
        assert_eq!(s.n(), 2);
    }

    #[test]
    fn best_and_quantiles() {
        let mut s = Samples::default();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.best(), 1.0);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.n(), 3);
    }
}
