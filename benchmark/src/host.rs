//! What the benchmark records about the machine it ran on.

use std::hint::black_box;
use std::time::Instant;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the largest cache `cpu0` sees, in MiB (0 when sysfs does not
/// say). Every benchmarked working set is labelled against this.
pub fn llc_mb() -> f64 {
    let mut best = 0.0f64;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.chars().last() {
            Some('K') => (&text[..text.len() - 1], 1.0 / 1024.0),
            Some('M') => (&text[..text.len() - 1], 1.0),
            Some('G') => (&text[..text.len() - 1], 1024.0),
            _ => (text, 1.0 / (1024.0 * 1024.0)),
        };
        if let Ok(n) = digits.parse::<f64>() {
            best = best.max(n * mult);
        }
    }
    best
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// STREAM-style triad `a = b + s·c` over three 16 MiB arrays: larger
/// than L2, resident in the last-level cache on hosts like the one this
/// was written on — the same level every benchmarked matrix lives in.
/// Sampled between measurement phases; the best sample is the bandwidth,
/// and median ÷ best says how disturbed the run was.
pub struct TriadProbe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    pub seconds: crate::stats::Samples,
}

const TRIAD_LEN: usize = 4 << 20;

impl TriadProbe {
    pub fn new() -> Self {
        let mut probe = TriadProbe {
            a: vec![0.0; TRIAD_LEN],
            b: (0..TRIAD_LEN).map(|i| i as f32).collect(),
            c: vec![0.5; TRIAD_LEN],
            seconds: Default::default(),
        };
        // The first pass pays for mapping the zeroed pages of `a`.
        probe.sample();
        probe.seconds = Default::default();
        probe
    }

    /// Three passes, each one sample.
    pub fn sample(&mut self) {
        for _ in 0..3 {
            let t = Instant::now();
            let s = black_box(3.0f32);
            for ((a, b), c) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
                *a = b + s * c;
            }
            black_box(&mut self.a);
            self.seconds.push(t.elapsed().as_secs_f64());
        }
    }

    /// Computed bytes (two reads and one write per element) ÷ best time.
    pub fn best_gbs(&self) -> f64 {
        (3 * TRIAD_LEN * 4) as f64 / self.seconds.best() / 1e9
    }

    pub fn noise_ratio(&self) -> f64 {
        self.seconds.quantile(0.5) / self.seconds.best()
    }
}
