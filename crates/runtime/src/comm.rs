//! Threads-as-ranks SPMD communicator with MPI collective semantics.
//!
//! Every pair of ranks gets a dedicated FIFO channel, so collectives are
//! deterministic: a rank receiving "from all" drains sources in rank
//! order, and reductions combine contributions in rank order (bitwise
//! reproducible across runs, unlike a racy shared accumulator).
//!
//! The communicator is fault-aware. Every payload travels in a
//! checksummed frame, every blocking wait honors a configurable deadline
//! and the shared abort signal, and a deterministic [`FaultPlan`] can
//! inject rank crashes, message drops, delivery delays, and payload bit
//! flips at keyed points. Failures surface as typed [`CommError`]s
//! through the `try_*` collectives; the panicking collective signatures
//! are kept as thin shims for fault-free callers. [`run_ranks_with`] is
//! the supervised entry point: a rank that fails (or panics) aborts the
//! shared barrier generation and unblocks every survivor with a typed
//! [`CommErrorKind::Aborted`], so no failure can deadlock the run.

use crate::fault::{CommConfig, CommError, CommErrorKind, FaultKind, FaultPlan, FaultStats};
use std::panic::AssertUnwindSafe;

use xct_model::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use xct_model::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use xct_model::sync::{Arc, Condvar, Mutex, MutexGuard};
use xct_model::thread;
use xct_model::time::Instant;

/// A message frame: the payload plus its FNV-1a 64 checksum, computed at
/// send time and verified at receive time so corruption (e.g. an injected
/// bit flip) is detected instead of silently deserialized.
struct Frame {
    checksum: u64,
    payload: Vec<u8>,
}

/// FNV-1a 64-bit hash — the frame and checkpoint checksum of this crate.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-rank collective statistics: how many collectives this rank entered
/// and how long it spent inside them (including the wait for peers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollectiveStats {
    /// Number of collective operations entered.
    pub calls: u64,
    /// Wall-clock seconds spent inside collectives.
    pub seconds: f64,
}

/// Abortable barrier state: a generation counter instead of
/// `std::sync::Barrier`, so a failing rank can wake every waiter.
#[derive(Default)]
struct BarrierState {
    waiting: usize,
    generation: u64,
}

#[derive(Default)]
struct FaultCounters {
    injected: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    aborts: AtomicU64,
}

impl FaultCounters {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            injected: self.injected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    size: usize,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    /// Set once the first failure is posted; every blocked wait polls it.
    aborted: AtomicBool,
    /// The originating failure. Non-[`CommErrorKind::Aborted`] failures
    /// take priority (an `Aborted` is always a consequence, never a
    /// cause); within a class the first poster wins.
    failure: Mutex<Option<CommError>>,
    config: CommConfig,
    plan: Arc<FaultPlan>,
    counters: FaultCounters,
    /// `bytes[src * size + dst]` — per-pair traffic in bytes.
    traffic: Mutex<Vec<u64>>,
    /// Per-rank collective call counts and latencies.
    collectives: Mutex<Vec<CollectiveStats>>,
}

impl Shared {
    fn lock_barrier(&self) -> MutexGuard<'_, BarrierState> {
        self.barrier.lock()
    }

    /// Record `err` as the run's failure (subject to class priority) and
    /// wake everything that might be blocked on it.
    fn post_failure(&self, err: CommError) {
        {
            let mut slot = self.failure.lock();
            let replace = match slot.as_ref() {
                None => true,
                Some(old) => {
                    matches!(old.kind, CommErrorKind::Aborted { .. })
                        && !matches!(err.kind, CommErrorKind::Aborted { .. })
                }
            };
            if replace {
                *slot = Some(err);
            }
        }
        self.aborted.store(true, Ordering::SeqCst);
        // Wake barrier waiters; channel waiters notice via their poll tick.
        let _guard = self.lock_barrier();
        self.barrier_cv.notify_all();
    }

    /// The rank whose failure aborted the run (0 if the slot is somehow
    /// empty, which cannot happen once `aborted` is set).
    fn abort_origin(&self) -> usize {
        self.failure.lock().as_ref().map(|e| e.rank).unwrap_or(0)
    }

    fn failure(&self) -> Option<CommError> {
        self.failure.lock().clone()
    }
}

/// Per-pair byte counts recorded by the collectives: the communication
/// matrix of Fig 7(c).
#[derive(Debug, Clone)]
pub struct CommLedger {
    size: usize,
    bytes: Vec<u64>,
    collectives: Vec<CollectiveStats>,
    faults: FaultStats,
}

impl CommLedger {
    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes sent from `src` to `dst` (self-traffic is not counted).
    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.size + dst]
    }

    /// Total bytes sent by `rank`.
    pub fn sent_by(&self, rank: usize) -> u64 {
        (0..self.size).map(|d| self.bytes(rank, d)).sum()
    }

    /// Total bytes received by `rank`.
    pub fn received_by(&self, rank: usize) -> u64 {
        (0..self.size).map(|s| self.bytes(s, rank)).sum()
    }

    /// Total traffic over all pairs.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Number of communicating (nonzero) pairs — the sparsity of the
    /// communication matrix.
    pub fn nonzero_pairs(&self) -> usize {
        self.bytes.iter().filter(|&&b| b > 0).count()
    }

    /// The full per-pair byte matrix, row-major `size × size`
    /// (`matrix[src * size + dst]`), for export.
    pub fn byte_matrix(&self) -> Vec<u64> {
        self.bytes.clone()
    }

    /// Collective call count and latency of `rank`.
    pub fn collectives(&self, rank: usize) -> CollectiveStats {
        self.collectives[rank]
    }

    /// Aggregate fault activity of the run (injections, retries,
    /// timeouts, abort unblocks). All zero under an empty [`FaultPlan`]
    /// with no failures.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }
}

/// Handle held by one rank inside [`run_ranks`] / [`run_ranks_with`].
pub struct Communicator {
    rank: usize,
    shared: Arc<Shared>,
    /// Counts the collectives this rank has entered; the key space of
    /// [`FaultPlan`]. Each public collective bumps it exactly once
    /// (`alltoall_counts` counts as its one underlying `alltoallv`).
    collective_index: AtomicU64,
    /// `senders[dst]`: my channel to `dst`.
    senders: Vec<Sender<Frame>>,
    /// `receivers[src]`: channel from `src` to me.
    receivers: Vec<Receiver<Frame>>,
}

impl Communicator {
    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// How many collectives this rank has entered so far — the next
    /// collective gets this index as its [`FaultPlan`] key.
    pub fn collective_index(&self) -> u64 {
        self.collective_index.load(Ordering::Relaxed)
    }

    fn next_index(&self) -> u64 {
        self.collective_index.fetch_add(1, Ordering::Relaxed)
    }

    /// Check the fault plan for a crash keyed on this collective entry.
    fn inject_crash(&self, index: u64, collective: &'static str) -> Result<(), CommError> {
        if self.shared.plan.take_crash(self.rank, index) {
            self.shared
                .counters
                .injected
                .fetch_add(1, Ordering::Relaxed);
            let err = CommError {
                rank: self.rank,
                peer: None,
                collective,
                kind: CommErrorKind::Crash,
            };
            self.shared.post_failure(err.clone());
            return Err(err);
        }
        Ok(())
    }

    fn aborted_error(&self, collective: &'static str, peer: Option<usize>) -> CommError {
        self.shared.counters.aborts.fetch_add(1, Ordering::Relaxed);
        CommError {
            rank: self.rank,
            peer,
            collective,
            kind: CommErrorKind::Aborted {
                origin: self.shared.abort_origin(),
            },
        }
    }

    fn record_collective(&self, started: Instant) {
        let elapsed = started.elapsed().as_secs_f64();
        let mut c = self.shared.collectives.lock();
        let s = &mut c[self.rank];
        s.calls += 1;
        s.seconds += elapsed;
    }

    fn record(&self, dst: usize, bytes: usize) {
        // Payload bytes only: frame checksums are transport overhead and
        // must not show up in the ledger xct-check reconciles against the
        // schedule-predicted byte matrix.
        if dst != self.rank && bytes > 0 {
            let mut t = self.shared.traffic.lock();
            t[self.rank * self.shared.size + dst] += bytes as u64;
        }
    }

    /// Send one framed payload to `dst`, applying any message faults
    /// keyed on this collective entry, with bounded retry/backoff for
    /// injected delivery drops.
    fn send_frame(
        &self,
        dst: usize,
        payload: Vec<u8>,
        faults: &[FaultKind],
        collective: &'static str,
    ) -> Result<(), CommError> {
        let checksum = fnv1a64(&payload);
        let mut payload = payload;
        let mut lost_attempts = 0u32;
        for kind in faults {
            match *kind {
                FaultKind::Delay { micros } => {
                    self.shared
                        .counters
                        .injected
                        .fetch_add(1, Ordering::Relaxed);
                    thread::sleep(std::time::Duration::from_micros(micros));
                }
                FaultKind::BitFlip { bit } => {
                    // Flip after the checksum so the receiver detects it.
                    if !payload.is_empty() {
                        self.shared
                            .counters
                            .injected
                            .fetch_add(1, Ordering::Relaxed);
                        let bit = bit as usize % (payload.len() * 8);
                        payload[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                FaultKind::Drop { attempts } => {
                    self.shared
                        .counters
                        .injected
                        .fetch_add(1, Ordering::Relaxed);
                    lost_attempts = lost_attempts.max(attempts);
                }
                FaultKind::Crash => {}
            }
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if attempt <= lost_attempts {
                // This delivery attempt is lost in transit.
                if attempt > self.shared.config.retries {
                    let err = CommError {
                        rank: self.rank,
                        peer: Some(dst),
                        collective,
                        kind: CommErrorKind::SendLost { attempts: attempt },
                    };
                    self.shared.post_failure(err.clone());
                    return Err(err);
                }
                self.shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                thread::sleep(self.shared.config.backoff);
                continue;
            }
            return self.senders[dst]
                .send(Frame { checksum, payload })
                .map_err(|_| self.peer_gone(dst, collective));
        }
    }

    /// The channel to/from `peer` hung up: an abort consequence if the
    /// run is aborted, otherwise a disconnect in its own right.
    fn peer_gone(&self, peer: usize, collective: &'static str) -> CommError {
        if self.shared.aborted.load(Ordering::SeqCst) {
            return self.aborted_error(collective, Some(peer));
        }
        let err = CommError {
            rank: self.rank,
            peer: Some(peer),
            collective,
            kind: CommErrorKind::Disconnected,
        };
        self.shared.post_failure(err.clone());
        err
    }

    /// Receive one framed payload from `src`: drain-first, then poll the
    /// abort flag and the deadline between bounded waits, then verify the
    /// frame checksum.
    fn recv_frame(&self, src: usize, collective: &'static str) -> Result<Vec<u8>, CommError> {
        let started = Instant::now();
        loop {
            // Drain in-flight messages before looking at the abort flag:
            // a rank that fails *after* sending must not cause peers to
            // discard data the collective already put on the wire.
            match self.receivers[src].try_recv() {
                Ok(frame) => return self.verify(frame, src, collective),
                Err(TryRecvError::Disconnected) => return Err(self.peer_gone(src, collective)),
                Err(TryRecvError::Empty) => {}
            }
            if self.shared.aborted.load(Ordering::SeqCst) {
                return Err(self.aborted_error(collective, Some(src)));
            }
            let mut tick = self.shared.config.poll;
            if let Some(deadline) = self.shared.config.deadline {
                let waited = started.elapsed();
                if waited >= deadline {
                    self.shared
                        .counters
                        .timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    let err = CommError {
                        rank: self.rank,
                        peer: Some(src),
                        collective,
                        kind: CommErrorKind::Timeout {
                            waited_ms: waited.as_millis() as u64,
                        },
                    };
                    self.shared.post_failure(err.clone());
                    return Err(err);
                }
                tick = tick.min(deadline - waited);
            }
            match self.receivers[src].recv_timeout(tick) {
                Ok(frame) => return self.verify(frame, src, collective),
                Err(RecvTimeoutError::Disconnected) => return Err(self.peer_gone(src, collective)),
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    fn verify(
        &self,
        frame: Frame,
        src: usize,
        collective: &'static str,
    ) -> Result<Vec<u8>, CommError> {
        if fnv1a64(&frame.payload) != frame.checksum {
            let err = CommError {
                rank: self.rank,
                peer: Some(src),
                collective,
                kind: CommErrorKind::Corrupt,
            };
            self.shared.post_failure(err.clone());
            return Err(err);
        }
        Ok(frame.payload)
    }

    /// Synchronize all ranks.
    ///
    /// # Panics
    /// On any [`CommError`] ([`Communicator::try_barrier`] is the typed
    /// variant).
    pub fn barrier(&self) {
        // lint not active in this crate, but keep the panic localized:
        self.try_barrier().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Synchronize all ranks, honoring the deadline and the abort signal.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        let index = self.next_index();
        self.inject_crash(index, "barrier")?;
        let t = Instant::now();
        let result = self.barrier_wait(t);
        self.record_collective(t);
        result
    }

    fn barrier_wait(&self, started: Instant) -> Result<(), CommError> {
        let shared = &self.shared;
        let mut st = shared.lock_barrier();
        if shared.aborted.load(Ordering::SeqCst) {
            drop(st);
            return Err(self.aborted_error("barrier", None));
        }
        st.waiting += 1;
        if st.waiting == shared.size {
            st.waiting = 0;
            st.generation = st.generation.wrapping_add(1);
            shared.barrier_cv.notify_all();
            return Ok(());
        }
        let generation = st.generation;
        loop {
            let (guard, _timeout) = shared.barrier_cv.wait_timeout(st, shared.config.poll);
            st = guard;
            if st.generation != generation {
                return Ok(());
            }
            if shared.aborted.load(Ordering::SeqCst) {
                drop(st);
                return Err(self.aborted_error("barrier", None));
            }
            if let Some(deadline) = shared.config.deadline {
                let waited = started.elapsed();
                if waited >= deadline {
                    drop(st);
                    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    let err = CommError {
                        rank: self.rank,
                        peer: None,
                        collective: "barrier",
                        kind: CommErrorKind::Timeout {
                            waited_ms: waited.as_millis() as u64,
                        },
                    };
                    shared.post_failure(err.clone());
                    return Err(err);
                }
            }
        }
    }

    /// MPI_Alltoallv: send `send[dst]` to each rank, receive one buffer
    /// from each rank, returned in rank order. Self-delivery is a move,
    /// not traffic.
    ///
    /// # Panics
    /// On any [`CommError`] ([`Communicator::try_alltoallv`] is the typed
    /// variant).
    pub fn alltoallv(&self, send: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
        self.try_alltoallv(send).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible MPI_Alltoallv with deadline, retry, and fault injection.
    pub fn try_alltoallv(&self, send: Vec<Vec<f32>>) -> Result<Vec<Vec<f32>>, CommError> {
        assert_eq!(send.len(), self.size(), "one send buffer per rank");
        let index = self.next_index();
        self.inject_crash(index, "alltoallv")?;
        let faults = self.shared.plan.message_faults(self.rank, index);
        let t = Instant::now();
        let mut own: Option<Vec<f32>> = None;
        for (dst, buf) in send.into_iter().enumerate() {
            if dst == self.rank {
                own = Some(buf);
            } else {
                self.record(dst, buf.len() * 4);
                self.send_frame(dst, bytes_of_f32(buf), &faults, "alltoallv")?;
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank {
                out.push(own.take().unwrap());
            } else {
                out.push(f32_of_bytes(self.recv_frame(src, "alltoallv")?));
            }
        }
        self.record_collective(t);
        Ok(out)
    }

    /// MPI_Alltoall of u64 counts (metadata exchanges).
    ///
    /// # Panics
    /// On any [`CommError`] ([`Communicator::try_alltoall_counts`] is the
    /// typed variant).
    pub fn alltoall_counts(&self, send: Vec<u64>) -> Vec<u64> {
        self.try_alltoall_counts(send)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible MPI_Alltoall of u64 counts (one collective-index entry,
    /// carried over the f32 alltoallv as two bit-packed lanes).
    pub fn try_alltoall_counts(&self, send: Vec<u64>) -> Result<Vec<u64>, CommError> {
        assert_eq!(send.len(), self.size());
        let bufs: Vec<Vec<f32>> = send
            .iter()
            .map(|&v| {
                let b = v.to_le_bytes();
                vec![
                    f32::from_le_bytes([b[0], b[1], b[2], b[3]]),
                    f32::from_le_bytes([b[4], b[5], b[6], b[7]]),
                ]
            })
            .collect();
        Ok(self
            .try_alltoallv(bufs)?
            .into_iter()
            .map(|buf| {
                let a = buf[0].to_le_bytes();
                let b = buf[1].to_le_bytes();
                u64::from_le_bytes([a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]])
            })
            .collect())
    }
}

fn bytes_of_f32(v: Vec<f32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn f32_of_bytes(b: Vec<u8>) -> Vec<f32> {
    assert_eq!(b.len() % 4, 0);
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run an SPMD function on `size` thread-ranks and return each rank's
/// result (in rank order) together with the traffic ledger.
///
/// The closure receives this rank's [`Communicator`]; ranks share nothing
/// else. Panics in any rank propagate — survivors are unblocked via the
/// shared abort signal first, so a panicking rank can never deadlock the
/// others (they observe [`CommErrorKind::Aborted`] and unwind too).
///
/// ```
/// use xct_runtime::run_ranks;
/// // Four ranks send their rank id to everyone and sum what arrives:
/// // everyone ends with 0+1+2+3.
/// let (results, ledger) = run_ranks(4, |comm| {
///     let recv = comm.alltoallv(vec![vec![comm.rank() as f32]; comm.size()]);
///     recv.iter().map(|b| b[0]).sum::<f32>()
/// });
/// assert_eq!(results, vec![6.0; 4]);
/// assert!(ledger.total() > 0);
/// ```
pub fn run_ranks<F, R>(size: usize, f: F) -> (Vec<R>, CommLedger)
where
    F: Fn(&Communicator) -> R + Sync,
    R: Send,
{
    match run_ranks_inner(
        size,
        CommConfig::unbounded(),
        Arc::new(FaultPlan::new()),
        |comm| Ok(f(comm)),
    ) {
        Ok(out) => out,
        Err(err) => panic!("{err}"),
    }
}

/// Supervised SPMD run: fault plan, deadlines, and typed failure
/// propagation.
///
/// Each rank's closure returns `Result<R, CommError>`; the first failure
/// (a typed collective error, a closure error, or a caught panic) aborts
/// the shared barrier generation, unblocks every survivor, and is
/// returned as the run's single originating error. On success every
/// rank's value is returned in rank order with the ledger.
///
/// ```
/// use std::sync::Arc;
/// use xct_runtime::{run_ranks_with, CommConfig, FaultPlan};
/// let (results, ledger) = run_ranks_with(
///     3,
///     CommConfig::default(),
///     Arc::new(FaultPlan::new()),
///     |comm| {
///         let recv = comm.try_alltoallv(vec![vec![1.0f32]; comm.size()])?;
///         Ok(recv.iter().map(|b| b[0]).sum::<f32>())
///     },
/// )
/// .unwrap();
/// assert_eq!(results, vec![3.0; 3]);
/// assert_eq!(ledger.fault_stats().injected, 0);
/// ```
pub fn run_ranks_with<F, R>(
    size: usize,
    config: CommConfig,
    plan: Arc<FaultPlan>,
    f: F,
) -> Result<(Vec<R>, CommLedger), CommError>
where
    F: Fn(&Communicator) -> Result<R, CommError> + Sync,
    R: Send,
{
    run_ranks_inner(size, config, plan, f)
}

fn run_ranks_inner<F, R>(
    size: usize,
    config: CommConfig,
    plan: Arc<FaultPlan>,
    f: F,
) -> Result<(Vec<R>, CommLedger), CommError>
where
    F: Fn(&Communicator) -> Result<R, CommError> + Sync,
    R: Send,
{
    assert!(size > 0);
    let shared = Arc::new(Shared {
        size,
        barrier: Mutex::named("comm/barrier", BarrierState::default()),
        barrier_cv: Condvar::new(),
        aborted: AtomicBool::new(false),
        failure: Mutex::named("comm/failure", None),
        config,
        plan,
        counters: FaultCounters::default(),
        traffic: Mutex::named("comm/traffic", vec![0; size * size]),
        collectives: Mutex::named("comm/collectives", vec![CollectiveStats::default(); size]),
    });

    // channels: txs[src][dst] pairs with rxs[dst][src]. Pushing one
    // receiver onto every rxs row per outer (src) iteration lands each at
    // index `src` without explicit indexing.
    let mut txs: Vec<Vec<Option<Sender<Frame>>>> = Vec::with_capacity(size);
    let mut rxs: Vec<Vec<Option<Receiver<Frame>>>> =
        (0..size).map(|_| Vec::with_capacity(size)).collect();
    for _src in 0..size {
        let mut row = Vec::with_capacity(size);
        for rx_row in rxs.iter_mut() {
            let (tx, rx) = unbounded();
            row.push(Some(tx));
            rx_row.push(Some(rx));
        }
        txs.push(row);
    }

    let comms: Vec<Communicator> = (0..size)
        .map(|rank| Communicator {
            rank,
            shared: shared.clone(),
            collective_index: AtomicU64::new(0),
            senders: txs[rank].iter_mut().map(|t| t.take().unwrap()).collect(),
            receivers: rxs[rank].iter_mut().map(|r| r.take().unwrap()).collect(),
        })
        .collect();

    let mut results: Vec<Option<Result<R, CommError>>> = (0..size).map(|_| None).collect();
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for (comm, slot) in comms.iter().zip(results.iter_mut()) {
            let f = &f;
            handles.push(scope.spawn(move || {
                // Catch panics so one rank's unwind cannot strand peers
                // blocked on it: post the failure, flip the abort flag,
                // and let survivors return typed Aborted errors.
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(comm))) {
                    Ok(Ok(value)) => *slot = Some(Ok(value)),
                    Ok(Err(err)) => {
                        comm.shared.post_failure(err.clone());
                        *slot = Some(Err(err));
                    }
                    Err(payload) => {
                        let err = CommError {
                            rank: comm.rank,
                            peer: None,
                            collective: "run_ranks",
                            kind: CommErrorKind::Panic {
                                message: panic_message(payload),
                            },
                        };
                        comm.shared.post_failure(err.clone());
                        *slot = Some(Err(err));
                    }
                }
            }));
        }
        for h in handles {
            // Never panics: every rank closure is wrapped in catch_unwind.
            let _ = h.join();
        }
    });
    drop(comms);

    let ledger = CommLedger {
        size,
        bytes: shared.traffic.lock().clone(),
        collectives: shared.collectives.lock().clone(),
        faults: shared.counters.snapshot(),
    };

    if let Some(err) = shared.failure() {
        return Err(err);
    }
    let mut out = Vec::with_capacity(size);
    for slot in results {
        match slot.expect("every rank writes its slot") {
            Ok(value) => out.push(value),
            Err(err) => return Err(err),
        }
    }
    Ok((out, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ranks_are_distinct_and_complete() {
        let (ranks, _) = run_ranks(4, |c| c.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn alltoallv_exchanges_correctly() {
        let (results, ledger) = run_ranks(3, |c| {
            // Rank r sends [r*10 + dst] to each dst.
            let send: Vec<Vec<f32>> = (0..3).map(|d| vec![(c.rank() * 10 + d) as f32]).collect();
            c.alltoallv(send)
        });
        for (rank, recv) in results.iter().enumerate() {
            for (src, buf) in recv.iter().enumerate() {
                assert_eq!(
                    buf,
                    &vec![(src * 10 + rank) as f32],
                    "rank {rank} src {src}"
                );
            }
        }
        // 3 ranks × 2 peers × 4 bytes each.
        assert_eq!(ledger.total(), 24);
        assert_eq!(ledger.nonzero_pairs(), 6);
        assert_eq!(ledger.bytes(0, 0), 0, "self traffic not counted");
    }

    #[test]
    fn alltoallv_variable_sizes() {
        let (results, ledger) = run_ranks(2, |c| {
            let send: Vec<Vec<f32>> = if c.rank() == 0 {
                vec![vec![], vec![1.0, 2.0, 3.0]]
            } else {
                vec![vec![9.0], vec![]]
            };
            c.alltoallv(send)
        });
        assert_eq!(results[0][1], vec![9.0]);
        assert_eq!(results[1][0], vec![1.0, 2.0, 3.0]);
        assert_eq!(ledger.bytes(0, 1), 12);
        assert_eq!(ledger.bytes(1, 0), 4);
    }

    /// Every rank's `mine` summed elementwise in rank order, over one
    /// `try_alltoallv` (one collective-index entry).
    fn sum_over_ranks(c: &Communicator, mine: &[f32]) -> Result<Vec<f32>, CommError> {
        let mut sum = vec![0f32; mine.len()];
        for buf in c.try_alltoallv(vec![mine.to_vec(); c.size()])? {
            sum.iter_mut().zip(buf).for_each(|(s, v)| *s += v);
        }
        Ok(sum)
    }

    #[test]
    fn rank_order_sum_is_identical_on_every_rank() {
        // The terms do not associate in f32 (1e8 + 1 rounds away), so
        // only a fixed rank order gives every rank the same bits.
        let (results, _) = run_ranks(5, |c| {
            let term = [1e8f32, 1.0, -1e8, 3.0, 0.5][c.rank()];
            sum_over_ranks(c, &[term, c.rank() as f32, 1.0]).unwrap()
        });
        let want = [(((1e8f32 + 1.0) - 1e8) + 3.0) + 0.5, 10.0, 5.0];
        for r in results {
            assert_eq!(r, want);
        }
    }

    #[test]
    fn alltoallv_gathers_in_rank_order() {
        // An allgather is an alltoallv that sends one buffer to everyone:
        // the blocks come back in source-rank order, lengths intact.
        let (results, _) = run_ranks(4, |c| {
            let mine = vec![c.rank() as f32 * 2.0; c.rank()];
            c.alltoallv(vec![mine; c.size()])
        });
        for r in results {
            let lens: Vec<usize> = r.iter().map(Vec::len).collect();
            assert_eq!(lens, vec![0, 1, 2, 3]);
            let flat: Vec<f32> = r.into_iter().flatten().collect();
            assert_eq!(flat, vec![2.0, 4.0, 4.0, 6.0, 6.0, 6.0]);
        }
    }

    #[test]
    fn alltoall_counts_roundtrip() {
        let (results, _) = run_ranks(3, |c| {
            let send: Vec<u64> = (0..3).map(|d| (c.rank() as u64) << 32 | d as u64).collect();
            c.alltoall_counts(send)
        });
        for (rank, recv) in results.iter().enumerate() {
            for (src, &v) in recv.iter().enumerate() {
                assert_eq!(v, (src as u64) << 32 | rank as u64);
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_ranks(4, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all 4 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn repeated_collectives_stay_matched() {
        let (results, _) = run_ranks(3, |c| {
            let mut acc = 0.0f32;
            for round in 0..10 {
                let send: Vec<Vec<f32>> = (0..3).map(|_| vec![round as f32]).collect();
                let recv = c.alltoallv(send);
                acc += recv.iter().map(|b| b[0]).sum::<f32>();
            }
            acc
        });
        // Each round every rank receives 3 copies of `round`.
        let expect: f32 = (0..10).map(|r| 3.0 * r as f32).sum();
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn collective_stats_count_calls_and_time() {
        let (_, ledger) = run_ranks(3, |c| {
            for _ in 0..4 {
                c.alltoallv((0..3).map(|_| vec![1.0f32]).collect());
            }
            c.barrier();
            c.alltoall_counts(vec![7; 3]);
        });
        for rank in 0..3 {
            let s = ledger.collectives(rank);
            assert_eq!(s.calls, 6, "rank {rank}: 4 alltoallv + barrier + counts");
            assert!(s.seconds >= 0.0);
        }
        // The byte matrix export matches the per-pair accessor.
        let m = ledger.byte_matrix();
        for src in 0..3 {
            for dst in 0..3 {
                assert_eq!(m[src * 3 + dst], ledger.bytes(src, dst));
            }
        }
    }

    #[test]
    fn single_rank_works() {
        let (results, ledger) = run_ranks(1, |c| {
            let recv = c.alltoallv(vec![vec![1.0, 2.0]]);
            (recv, sum_over_ranks(c, &[3.0]).unwrap())
        });
        assert_eq!(results[0].0, vec![vec![1.0, 2.0]]);
        assert_eq!(results[0].1, vec![3.0]);
        assert_eq!(ledger.total(), 0);
    }

    // ---- fault-tolerance tests -------------------------------------

    /// Run `f` on a watchdog thread; panic if it does not finish in time.
    /// Guards every chaos test against reintroducing a deadlock.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let out = std::panic::catch_unwind(AssertUnwindSafe(f));
            let _ = tx.send(());
            out
        });
        if rx.recv_timeout(limit).is_err() {
            panic!("deadlock: run exceeded {limit:?}");
        }
        match h.join().expect("watchdog thread vanished") {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    #[test]
    fn panicking_rank_unblocks_survivors() {
        // Regression for the seed deadlock: rank 1 panics before the
        // barrier; ranks 0 and 2 used to block forever on Barrier::wait.
        let err = within(Duration::from_secs(10), || {
            run_ranks_with(
                3,
                CommConfig::unbounded(),
                Arc::new(FaultPlan::new()),
                |c| {
                    if c.rank() == 1 {
                        panic!("rank 1 exploded");
                    }
                    c.try_barrier()?;
                    Ok(c.rank())
                },
            )
            .unwrap_err()
        });
        assert_eq!(err.rank, 1);
        assert_eq!(
            err.kind,
            CommErrorKind::Panic {
                message: "rank 1 exploded".to_string()
            }
        );
    }

    #[test]
    #[should_panic(expected = "rank 1 exploded")]
    fn compat_run_ranks_propagates_panic_without_deadlock() {
        within(Duration::from_secs(10), || {
            run_ranks(3, |c| {
                if c.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                c.barrier();
                c.rank()
            })
        });
    }

    #[test]
    fn injected_crash_aborts_with_typed_error() {
        // Rank 1's first alltoallv (collective index 0) crashes; everyone
        // else is unblocked with Aborted{origin: 1}.
        let plan = Arc::new(FaultPlan::new().with(1, 0, FaultKind::Crash));
        let err = within(Duration::from_secs(10), move || {
            run_ranks_with(3, CommConfig::default(), plan, |c| {
                let send: Vec<Vec<f32>> = (0..3).map(|_| vec![c.rank() as f32]).collect();
                let recv = c.try_alltoallv(send)?;
                Ok(recv.len())
            })
            .unwrap_err()
        });
        assert_eq!(err.rank, 1);
        assert_eq!(err.collective, "alltoallv");
        assert_eq!(err.kind, CommErrorKind::Crash);
    }

    #[test]
    fn transient_drop_is_retried_transparently() {
        // One lost delivery attempt is inside the retry budget: the
        // collective succeeds and the retry is visible in the stats.
        let plan = Arc::new(FaultPlan::new().with(0, 0, FaultKind::Drop { attempts: 1 }));
        let (results, ledger) = within(Duration::from_secs(10), move || {
            run_ranks_with(2, CommConfig::default(), plan, |c| {
                Ok(sum_over_ranks(c, &[c.rank() as f32 + 1.0])?[0])
            })
            .unwrap()
        });
        assert_eq!(results, vec![3.0, 3.0]);
        assert!(ledger.fault_stats().retries >= 1);
        assert!(ledger.fault_stats().injected >= 1);
    }

    #[test]
    fn exhausted_drop_budget_is_send_lost() {
        let plan = Arc::new(FaultPlan::new().with(0, 0, FaultKind::Drop { attempts: 100 }));
        let config = CommConfig {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..CommConfig::default()
        };
        let err = within(Duration::from_secs(10), move || {
            run_ranks_with(2, config, plan, |c| Ok(sum_over_ranks(c, &[1.0])?[0])).unwrap_err()
        });
        assert_eq!(err.rank, 0);
        assert_eq!(err.kind, CommErrorKind::SendLost { attempts: 3 });
    }

    #[test]
    fn bitflip_is_detected_as_corrupt() {
        let plan = Arc::new(FaultPlan::new().with(1, 0, FaultKind::BitFlip { bit: 5 }));
        let err = within(Duration::from_secs(10), move || {
            run_ranks_with(2, CommConfig::default(), plan, |c| {
                let send: Vec<Vec<f32>> = (0..2).map(|_| vec![c.rank() as f32]).collect();
                c.try_alltoallv(send).map(|r| r.len())
            })
            .unwrap_err()
        });
        // Rank 0 detects the corrupted frame sent by rank 1.
        assert_eq!(err.rank, 0);
        assert_eq!(err.peer, Some(1));
        assert_eq!(err.kind, CommErrorKind::Corrupt);
    }

    #[test]
    fn delay_within_deadline_is_transparent() {
        let plan = Arc::new(FaultPlan::new().with(0, 0, FaultKind::Delay { micros: 2_000 }));
        let (results, ledger) = within(Duration::from_secs(10), move || {
            run_ranks_with(2, CommConfig::default(), plan, |c| {
                Ok(sum_over_ranks(c, &[c.rank() as f32])?[0])
            })
            .unwrap()
        });
        assert_eq!(results, vec![1.0, 1.0]);
        assert_eq!(ledger.fault_stats().injected, 1);
    }

    #[test]
    fn deadline_produces_timeout_not_hang() {
        // Rank 1 never enters the collective; rank 0's receive times out.
        let config = CommConfig::with_deadline(Duration::from_millis(100));
        let err = within(Duration::from_secs(10), move || {
            run_ranks_with(2, config, Arc::new(FaultPlan::new()), |c| {
                if c.rank() == 0 {
                    let send: Vec<Vec<f32>> = (0..2).map(|_| vec![1.0]).collect();
                    c.try_alltoallv(send).map(|_| ())
                } else {
                    // Sleep past the deadline without collectives.
                    std::thread::sleep(Duration::from_secs(2));
                    Ok(())
                }
            })
            .unwrap_err()
        });
        assert_eq!(err.rank, 0);
        assert!(
            matches!(err.kind, CommErrorKind::Timeout { waited_ms } if waited_ms >= 100),
            "{err}"
        );
    }

    #[test]
    fn barrier_deadline_times_out() {
        let config = CommConfig::with_deadline(Duration::from_millis(100));
        let err = within(Duration::from_secs(10), move || {
            run_ranks_with(2, config, Arc::new(FaultPlan::new()), |c| {
                if c.rank() == 0 {
                    c.try_barrier()?;
                } else {
                    std::thread::sleep(Duration::from_secs(2));
                }
                Ok(())
            })
            .unwrap_err()
        });
        assert_eq!(err.collective, "barrier");
        assert!(matches!(err.kind, CommErrorKind::Timeout { .. }), "{err}");
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_run_ranks() {
        let workload = |c: &Communicator| {
            let mut acc = vec![c.rank() as f32 * 0.25 + 0.125, 1.5];
            for _ in 0..5 {
                acc = sum_over_ranks(c, &acc).unwrap();
                for v in acc.iter_mut() {
                    *v *= 0.5;
                }
            }
            acc
        };
        let (plain, _) = run_ranks(3, workload);
        let (supervised, ledger) =
            run_ranks_with(3, CommConfig::default(), Arc::new(FaultPlan::new()), |c| {
                Ok(workload(c))
            })
            .unwrap();
        assert_eq!(plain, supervised, "empty plan must not perturb numerics");
        assert_eq!(ledger.fault_stats(), FaultStats::default());
    }

    #[test]
    fn closure_error_aborts_peers() {
        // A rank that fails outside any collective (e.g. checkpoint I/O)
        // still unblocks peers waiting on it.
        let err = within(Duration::from_secs(10), || {
            run_ranks_with(
                2,
                CommConfig::unbounded(),
                Arc::new(FaultPlan::new()),
                |c| {
                    if c.rank() == 1 {
                        return Err(CommError {
                            rank: 1,
                            peer: None,
                            collective: "checkpoint",
                            kind: CommErrorKind::Checkpoint {
                                message: "disk full".to_string(),
                            },
                        });
                    }
                    c.try_barrier()?;
                    Ok(())
                },
            )
            .unwrap_err()
        });
        assert_eq!(err.rank, 1);
        assert_eq!(
            err.kind,
            CommErrorKind::Checkpoint {
                message: "disk full".to_string()
            }
        );
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
