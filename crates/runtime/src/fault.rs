//! Fault taxonomy for the chaos-injectable communicator: deterministic
//! fault plans, typed collective errors, and the deadline/retry
//! configuration every collective obeys.
//!
//! Faults are keyed on `(rank, collective_index, kind)` — no RNG, no
//! seeds. A rank's `collective_index` counts the collectives *that rank*
//! has entered (barrier, alltoallv, alltoall_counts), so the same
//! plan injects the same fault at the same point of every run. Crash
//! faults additionally fire at most once per [`FaultPlan`] instance, so a
//! restarted solve (graceful degradation) does not re-crash on the
//! renumbered surviving ranks.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What kind of fault to inject at a keyed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The rank dies at the keyed collective: it stops participating and
    /// reports [`CommErrorKind::Crash`]. Survivors are unblocked with
    /// [`CommErrorKind::Aborted`]. Fires at most once per plan instance.
    Crash,
    /// The transport loses the first `attempts` delivery attempts of every
    /// message this rank sends inside the keyed collective. Recovered by
    /// the sender's bounded retry/backoff loop while `attempts` does not
    /// exceed [`CommConfig::retries`]; exhausted budgets surface as
    /// [`CommErrorKind::SendLost`].
    Drop {
        /// How many consecutive delivery attempts are lost.
        attempts: u32,
    },
    /// Every message this rank sends inside the keyed collective is
    /// delayed by this many microseconds before delivery. Transparent
    /// while the delay stays under the receive deadline; beyond it the
    /// receiver reports [`CommErrorKind::Timeout`].
    Delay {
        /// Added delivery latency in microseconds.
        micros: u64,
    },
    /// One bit of every payload this rank sends inside the keyed
    /// collective is flipped after the frame checksum is computed, so
    /// receivers detect the corruption and report
    /// [`CommErrorKind::Corrupt`].
    BitFlip {
        /// Which bit to flip (taken modulo the payload length in bits;
        /// empty payloads are delivered unharmed).
        bit: u32,
    },
}

impl FaultKind {
    /// Stable lower-case name (`crash`, `drop`, `delay`, `bitflip`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Drop { .. } => "drop",
            FaultKind::Delay { .. } => "delay",
            FaultKind::BitFlip { .. } => "bitflip",
        }
    }
}

/// One keyed fault: inject `kind` when `rank` enters its
/// `collective_index`-th collective (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The rank the fault targets.
    pub rank: usize,
    /// The 0-based index of the targeted collective on that rank.
    pub collective_index: u64,
    /// What to inject.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}:{}",
            self.kind.name(),
            self.rank,
            self.collective_index
        )
    }
}

/// A deterministic set of keyed faults consulted by every collective.
///
/// The empty plan is the production configuration: consulting it is a
/// length check, and a run under an empty plan is bit-identical to a run
/// without fault machinery at all (the golden tests pin this).
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    /// One-shot latches, parallel to `specs`: crash faults fire at most
    /// once per plan instance so a degraded restart survives.
    fired: Vec<AtomicBool>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add one keyed fault.
    pub fn with(mut self, rank: usize, collective_index: u64, kind: FaultKind) -> Self {
        self.push(FaultSpec {
            rank,
            collective_index,
            kind,
        });
        self
    }

    /// Add one keyed fault in place.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
        self.fired.push(AtomicBool::new(false));
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of keyed faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// All keyed faults, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether a crash fault fires for `(rank, collective_index)`. A
    /// matching crash is latched: it fires once per plan instance.
    pub fn take_crash(&self, rank: usize, collective_index: u64) -> bool {
        for (spec, fired) in self.specs.iter().zip(&self.fired) {
            if spec.rank == rank
                && spec.collective_index == collective_index
                && spec.kind == FaultKind::Crash
                && !fired.swap(true, Ordering::SeqCst)
            {
                return true;
            }
        }
        false
    }

    /// The non-crash faults keyed on `(rank, collective_index)`.
    pub fn message_faults(&self, rank: usize, collective_index: u64) -> Vec<FaultKind> {
        self.specs
            .iter()
            .filter(|s| {
                s.rank == rank
                    && s.collective_index == collective_index
                    && s.kind != FaultKind::Crash
            })
            .map(|s| s.kind)
            .collect()
    }

    /// Parse one `KIND@rank:collective` chaos spec (the CLI `--chaos`
    /// grammar): `crash@1:3`, `drop@0:2`, `delay@2:5`, `bitflip@1:0`.
    /// Drop faults lose one delivery attempt, delays add 20 ms, bit flips
    /// target bit 12; use [`FaultPlan::push`] for full control.
    pub fn parse_spec(s: &str) -> Result<FaultSpec, String> {
        let (kind_str, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("`{s}`: expected KIND@rank:collective"))?;
        let (rank_str, index_str) = rest
            .split_once(':')
            .ok_or_else(|| format!("`{s}`: expected KIND@rank:collective"))?;
        let kind = match kind_str {
            "crash" => FaultKind::Crash,
            "drop" => FaultKind::Drop { attempts: 1 },
            "delay" => FaultKind::Delay { micros: 20_000 },
            "bitflip" => FaultKind::BitFlip { bit: 12 },
            other => {
                return Err(format!(
                    "`{other}`: unknown fault kind (crash, drop, delay, bitflip)"
                ))
            }
        };
        let rank: usize = rank_str
            .parse()
            .map_err(|_| format!("`{rank_str}`: rank must be a nonnegative integer"))?;
        let collective_index: u64 = index_str.parse().map_err(|_| {
            format!("`{index_str}`: collective index must be a nonnegative integer")
        })?;
        Ok(FaultSpec {
            rank,
            collective_index,
            kind,
        })
    }
}

/// Deadline, retry, and polling configuration for the collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommConfig {
    /// How long one collective may block waiting on a peer before it
    /// fails with [`CommErrorKind::Timeout`]. `None` waits forever (but
    /// still unblocks when another rank fails).
    pub deadline: Option<Duration>,
    /// How often a blocked wait re-checks the shared abort flag.
    pub poll: Duration,
    /// How many times a lost delivery attempt is retried before the
    /// sender gives up with [`CommErrorKind::SendLost`].
    pub retries: u32,
    /// Pause between delivery retries.
    pub backoff: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            deadline: Some(Duration::from_secs(30)),
            poll: Duration::from_millis(25),
            retries: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

impl CommConfig {
    /// No deadline at all: waits block until peers deliver or a rank
    /// failure aborts the run (the legacy `run_ranks` behavior, minus the
    /// deadlock).
    pub fn unbounded() -> Self {
        CommConfig {
            deadline: None,
            ..CommConfig::default()
        }
    }

    /// A config with the given per-wait deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        CommConfig {
            deadline: Some(deadline),
            poll: Duration::from_millis(25).min(deadline),
            ..CommConfig::default()
        }
    }
}

/// Why a collective failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CommErrorKind {
    /// A wait on a peer exceeded the configured deadline.
    Timeout {
        /// How long the rank waited, in milliseconds.
        waited_ms: u64,
    },
    /// A received payload failed its frame checksum (e.g. an injected bit
    /// flip).
    Corrupt,
    /// An injected crash fault fired on this rank.
    Crash,
    /// A message could not be delivered within the retry budget.
    SendLost {
        /// Delivery attempts made (1 + retries).
        attempts: u32,
    },
    /// Another rank failed first; this rank was unblocked by the shared
    /// abort signal.
    Aborted {
        /// The rank whose failure aborted the run.
        origin: usize,
    },
    /// The rank's closure panicked (supervised runs catch the panic and
    /// convert it into this typed failure).
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A peer's channel hung up outside any abort (the peer thread died
    /// without reporting).
    Disconnected,
    /// A checkpoint save failed inside a rank mid-solve.
    Checkpoint {
        /// The underlying checkpoint error, rendered.
        message: String,
    },
}

impl CommErrorKind {
    /// Stable lower-case name for matching and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            CommErrorKind::Timeout { .. } => "timeout",
            CommErrorKind::Corrupt => "corrupt",
            CommErrorKind::Crash => "crash",
            CommErrorKind::SendLost { .. } => "send-lost",
            CommErrorKind::Aborted { .. } => "aborted",
            CommErrorKind::Panic { .. } => "panic",
            CommErrorKind::Disconnected => "disconnected",
            CommErrorKind::Checkpoint { .. } => "checkpoint",
        }
    }
}

/// A typed collective failure: which rank, against which peer, inside
/// which collective, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommError {
    /// The rank reporting the failure.
    pub rank: usize,
    /// The peer involved, when the failure is pairwise (the source of a
    /// timed-out receive, the destination of a lost send).
    pub peer: Option<usize>,
    /// The collective that failed (`barrier`, `alltoallv`, …).
    pub collective: &'static str,
    /// The failure class.
    pub kind: CommErrorKind,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} in {}: ", self.rank, self.collective)?;
        match &self.kind {
            CommErrorKind::Timeout { waited_ms } => {
                write!(f, "deadline exceeded after {waited_ms} ms")?
            }
            CommErrorKind::Corrupt => write!(f, "payload failed checksum")?,
            CommErrorKind::Crash => write!(f, "injected crash")?,
            CommErrorKind::SendLost { attempts } => {
                write!(f, "delivery lost after {attempts} attempts")?
            }
            CommErrorKind::Aborted { origin } => write!(f, "aborted by failure on rank {origin}")?,
            CommErrorKind::Panic { message } => write!(f, "panicked: {message}")?,
            CommErrorKind::Disconnected => write!(f, "peer hung up")?,
            CommErrorKind::Checkpoint { message } => write!(f, "checkpoint failed: {message}")?,
        }
        if let Some(peer) = self.peer {
            write!(f, " (peer rank {peer})")?;
        }
        Ok(())
    }
}

impl std::error::Error for CommError {}

/// Aggregate fault activity of one run, carried on the
/// [`crate::CommLedger`] so the coordinator can export `fault/*` metrics
/// without threading a metrics handle through every rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults that actually fired (crashes, drops, delays, bit flips).
    pub injected: u64,
    /// Delivery attempts retried after an injected drop.
    pub retries: u64,
    /// Waits that exceeded the deadline.
    pub timeouts: u64,
    /// Ranks unblocked by the shared abort signal.
    pub aborts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_kind() {
        let s = FaultPlan::parse_spec("crash@1:3").unwrap();
        assert_eq!(
            s,
            FaultSpec {
                rank: 1,
                collective_index: 3,
                kind: FaultKind::Crash
            }
        );
        assert_eq!(s.to_string(), "crash@1:3");
        assert!(matches!(
            FaultPlan::parse_spec("drop@0:2").unwrap().kind,
            FaultKind::Drop { attempts: 1 }
        ));
        assert!(matches!(
            FaultPlan::parse_spec("delay@2:5").unwrap().kind,
            FaultKind::Delay { .. }
        ));
        assert!(matches!(
            FaultPlan::parse_spec("bitflip@1:0").unwrap().kind,
            FaultKind::BitFlip { .. }
        ));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "crash",
            "crash@1",
            "crash@x:3",
            "crash@1:y",
            "meteor@1:3",
            "@1:3",
        ] {
            assert!(FaultPlan::parse_spec(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn crash_faults_fire_once() {
        let plan = FaultPlan::new().with(1, 3, FaultKind::Crash);
        assert!(!plan.take_crash(0, 3));
        assert!(!plan.take_crash(1, 2));
        assert!(plan.take_crash(1, 3));
        assert!(!plan.take_crash(1, 3), "latched after the first fire");
    }

    #[test]
    fn message_faults_filter_by_key() {
        let plan = FaultPlan::new()
            .with(0, 1, FaultKind::Drop { attempts: 2 })
            .with(0, 1, FaultKind::Delay { micros: 5 })
            .with(1, 1, FaultKind::BitFlip { bit: 0 })
            .with(0, 2, FaultKind::Crash);
        assert_eq!(plan.message_faults(0, 1).len(), 2);
        assert_eq!(plan.message_faults(1, 1).len(), 1);
        assert!(
            plan.message_faults(0, 2).is_empty(),
            "crash is not a message fault"
        );
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
    }
}
