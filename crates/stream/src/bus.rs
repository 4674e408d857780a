//! A Kafka-like in-memory message bus with bounded, backpressured topics.
//!
//! Components of the datAcron architecture communicate through ordered
//! topics. [`Topic<T>`] is an append-only log; each [`Consumer`] holds its
//! own offset, so multiple downstream components (synopses → RDFizer,
//! synopses → CEP, …) read the same stream independently, exactly as the
//! paper's Kafka deployment does. Thread-safe: producers and consumers may
//! live on different threads.
//!
//! # Retention
//!
//! Like Kafka, a topic keeps a message only while some reader still needs
//! it. An unbounded topic retains exactly the messages a live registered
//! consumer has not read yet: a publish with no consumer appends nothing
//! (its offset is assigned and it counts as `reclaimed`), and every poll
//! or consumer drop reclaims the prefix all live consumers have passed. A
//! consumer that joins while others are live sees only the future.
//!
//! # Failure model
//!
//! Surveillance feeds overrun slow consumers by design, so a topic whose
//! consumer stalls grows without limit. A topic may therefore be *bounded*
//! ([`Topic::bounded`]): when the retained window is full, the configured
//! [`OverflowPolicy`] decides between
//!
//! * [`DropOldest`](OverflowPolicy::DropOldest) — truncate the oldest
//!   retained message (lossy, never blocks; Kafka-style retention);
//! * [`RejectNew`](OverflowPolicy::RejectNew) — refuse the publish and hand
//!   the message back to the producer;
//! * [`Block`](OverflowPolicy::Block) — backpressure: wait until every
//!   registered consumer has read past the oldest retained message, then
//!   reclaim the consumed prefix and publish.
//!
//! Truncation never silently corrupts a reader: a [`Consumer`] whose
//! offset has fallen behind the retained window observes an explicit
//! [`Lagged`] signal carrying how many messages it missed, and is resynced
//! to the oldest retained message for its next poll.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::Duration;

/// What a bounded topic does when the retained window is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Truncate the oldest retained message to make room (lossy; lagging
    /// consumers observe [`Lagged`]).
    #[default]
    DropOldest,
    /// Refuse the new message and return it to the producer.
    RejectNew,
    /// Block the producer until consumers free space (backpressure). Gives
    /// up with [`PublishError::Timeout`] after [`TopicConfig::block_timeout`]
    /// so a topic with no (or stalled) consumers cannot deadlock ingestion.
    Block,
}

/// Capacity and overflow behaviour of a topic.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Maximum retained messages; `None` = unbounded, keeping each message
    /// until every live consumer has read it.
    pub capacity: Option<usize>,
    /// What to do when full.
    pub policy: OverflowPolicy,
    /// How long a [`Block`](OverflowPolicy::Block) publish waits before
    /// giving up.
    pub block_timeout: Duration,
}

impl Default for TopicConfig {
    fn default() -> Self {
        Self {
            capacity: None,
            policy: OverflowPolicy::DropOldest,
            block_timeout: Duration::from_secs(5),
        }
    }
}

/// Why a publish did not append a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError<T> {
    /// The topic is full under [`OverflowPolicy::RejectNew`]; the message
    /// is handed back.
    Rejected(T),
    /// An [`OverflowPolicy::Block`] publish timed out waiting for
    /// consumers; the message is handed back.
    Timeout(T),
}

impl<T> PublishError<T> {
    /// Recovers the message that was not published.
    pub fn into_inner(self) -> T {
        match self {
            PublishError::Rejected(msg) | PublishError::Timeout(msg) => msg,
        }
    }
}

impl<T> std::fmt::Display for PublishError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Rejected(_) => write!(f, "topic full: message rejected"),
            PublishError::Timeout(_) => write!(f, "topic full: blocked publish timed out"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for PublishError<T> {}

/// Why [`Topic::wait_for_space`] returned without space becoming
/// available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceWaitError {
    /// The timeout expired while the topic stayed full.
    Timeout,
    /// Every registered consumer has been dropped on a full
    /// [`Block`](OverflowPolicy::Block) topic: nothing can ever free
    /// space, so waiting out the timeout would only delay the inevitable.
    /// Surfaced promptly — including to callers already parked when the
    /// last consumer dropped.
    NoConsumers,
}

impl std::fmt::Display for SpaceWaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceWaitError::Timeout => write!(f, "timed out waiting for topic space"),
            SpaceWaitError::NoConsumers => {
                write!(f, "no live consumers: topic space can never be freed")
            }
        }
    }
}

impl std::error::Error for SpaceWaitError {}

/// A consumer fell behind a truncated prefix: `skipped` messages were
/// dropped before it could read them. The consumer is resynced to the
/// oldest retained message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lagged {
    /// How many messages this consumer missed.
    pub skipped: u64,
}

/// Running counters of one topic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopicStats {
    /// Messages successfully appended.
    pub published: u64,
    /// Messages refused under `RejectNew` (or timed-out `Block`).
    pub rejected: u64,
    /// Messages truncated by `DropOldest` while unread by some consumer
    /// position (these are what lagging consumers observe as skipped).
    pub dropped: u64,
    /// Messages no live consumer needs any more, so never or no longer
    /// retained: read by every registered consumer, or published to an
    /// unbounded topic with no consumer. Lossless truncation.
    pub reclaimed: u64,
    /// Times a `Block` publish had to wait.
    pub blocked: u64,
    /// Messages delivered to consumers via `poll`/`poll_wait` (each
    /// delivery counts once per consumer, so with two consumers this is
    /// up to `2 × published`).
    pub consumed: u64,
    /// Times a consumer observed a [`Lagged`] signal.
    pub lag_signals: u64,
}

/// A point-in-time health snapshot of one topic.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicHealth {
    /// Topic name.
    pub name: String,
    /// Messages currently retained.
    pub retained: usize,
    /// Configured capacity (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Next offset to be assigned (= messages ever published).
    pub end_offset: u64,
    /// Oldest retained offset.
    pub base_offset: u64,
    /// Counters.
    pub stats: TopicStats,
}

impl TopicHealth {
    /// `true` when the topic has lost or refused messages.
    pub fn is_lossless(&self) -> bool {
        self.stats.dropped == 0 && self.stats.rejected == 0
    }
}

#[derive(Debug)]
struct Inner<T> {
    /// Retained messages; `log[0]` sits at offset `base`.
    log: VecDeque<T>,
    /// Offset of the oldest retained message.
    base: u64,
    stats: TopicStats,
    /// Offsets of registered consumers (dropped consumers are pruned
    /// lazily). Used to reclaim the consumed prefix under `Block`.
    consumers: Vec<Weak<AtomicU64>>,
}

impl<T> Inner<T> {
    fn end(&self) -> u64 {
        self.base + self.log.len() as u64
    }

    /// Lowest offset any live registered consumer still needs, if any.
    fn min_consumer_offset(&mut self) -> Option<u64> {
        self.consumers.retain(|w| w.strong_count() > 0);
        self.consumers
            .iter()
            .filter_map(|w| w.upgrade())
            .map(|pos| pos.load(Ordering::Acquire))
            .min()
    }

    /// Truncates the prefix every registered consumer has already read.
    /// Returns how many messages were reclaimed.
    fn reclaim_consumed(&mut self) -> usize {
        match self.min_consumer_offset() {
            Some(min) => self.reclaim_to(min),
            None => 0,
        }
    }

    /// The unbounded retention rule: keeps exactly the messages some live
    /// consumer has not read — none when no consumer is live. Returns
    /// whether one is.
    fn retain_unread(&mut self) -> bool {
        let min = self.min_consumer_offset();
        self.reclaim_to(min.unwrap_or(u64::MAX));
        min.is_some()
    }

    fn reclaim_to(&mut self, offset: u64) -> usize {
        let upto = offset.min(self.end());
        let n = upto.saturating_sub(self.base) as usize;
        self.log.drain(..n);
        self.base = upto.max(self.base);
        self.stats.reclaimed += n as u64;
        n
    }
}

/// An ordered, thread-safe topic log, optionally bounded.
#[derive(Debug)]
pub struct Topic<T> {
    name: String,
    config: TopicConfig,
    inner: Mutex<Inner<T>>,
    /// Signalled whenever a consumer advances (space may be reclaimable).
    progress: Condvar,
}

impl<T: Clone> Topic<T> {
    /// Creates an empty unbounded topic.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Self::with_config(name, TopicConfig::default())
    }

    /// Creates an empty bounded topic with the given overflow policy.
    pub fn bounded(name: impl Into<String>, capacity: usize, policy: OverflowPolicy) -> Arc<Self> {
        Self::with_config(
            name,
            TopicConfig {
                capacity: Some(capacity),
                policy,
                ..TopicConfig::default()
            },
        )
    }

    /// Creates an empty topic with full configuration control.
    pub fn with_config(name: impl Into<String>, config: TopicConfig) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            config,
            inner: Mutex::new(Inner {
                log: VecDeque::new(),
                base: 0,
                stats: TopicStats::default(),
                consumers: Vec::new(),
            }),
            progress: Condvar::new(),
        })
    }

    /// The topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The topic configuration.
    pub fn config(&self) -> &TopicConfig {
        &self.config
    }

    /// Locks for a publish and decides, once for all of its messages,
    /// whether they are kept: an unbounded topic with no live consumer
    /// keeps none.
    fn lock_for_append(&self) -> (std::sync::MutexGuard<'_, Inner<T>>, bool) {
        let mut inner = self.lock();
        let keep = self.config.capacity.is_some() || inner.retain_unread();
        (inner, keep)
    }

    /// The append path shared by single and batched publishes: applies the
    /// overflow policy (possibly waiting on the progress condvar under
    /// `Block`) and appends — or, when not `keep`, only assigns the offset —
    /// threading the lock guard through so a batch can append many messages
    /// under one acquisition.
    fn append_locked<'a>(
        &'a self,
        mut inner: std::sync::MutexGuard<'a, Inner<T>>,
        msg: T,
        keep: bool,
    ) -> (std::sync::MutexGuard<'a, Inner<T>>, Result<u64, PublishError<T>>) {
        if let Some(capacity) = self.config.capacity {
            let mut waited = false;
            while inner.log.len() >= capacity.max(1) {
                match self.config.policy {
                    OverflowPolicy::DropOldest => {
                        inner.log.pop_front();
                        inner.base += 1;
                        inner.stats.dropped += 1;
                    }
                    OverflowPolicy::RejectNew => {
                        // Space may have been freed by consumers since the
                        // last publish: reclaim the fully-consumed prefix
                        // before refusing, like the Block arm does.
                        if inner.reclaim_consumed() > 0 {
                            continue;
                        }
                        inner.stats.rejected += 1;
                        return (inner, Err(PublishError::Rejected(msg)));
                    }
                    OverflowPolicy::Block => {
                        if inner.reclaim_consumed() > 0 {
                            continue;
                        }
                        if waited || inner.min_consumer_offset().is_none() {
                            // Timed out — or no live consumer exists, so
                            // space can never be freed and waiting out the
                            // block timeout would just stall the producer.
                            inner.stats.rejected += 1;
                            return (inner, Err(PublishError::Timeout(msg)));
                        }
                        inner.stats.blocked += 1;
                        waited = true;
                        // A batch publish appends its prefix without
                        // signalling until the whole batch is done, so a
                        // consumer parked in `poll_wait` has not been woken
                        // yet. Wake it before parking ourselves, or producer
                        // and consumer both sleep on `progress` until the
                        // block timeout expires.
                        self.progress.notify_all();
                        let deadline = std::time::Instant::now() + self.config.block_timeout;
                        loop {
                            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                            if remaining.is_zero() {
                                break;
                            }
                            let (guard, _timeout) = self
                                .progress
                                .wait_timeout(inner, remaining)
                                .unwrap_or_else(|e| e.into_inner());
                            inner = guard;
                            if inner.log.len() < capacity || inner.reclaim_consumed() > 0 {
                                waited = false;
                                break;
                            }
                            if inner.min_consumer_offset().is_none() {
                                // The last consumer dropped while we were
                                // parked (its Drop woke us): give up now.
                                break;
                            }
                        }
                    }
                }
            }
        }
        let offset = inner.end();
        if keep {
            inner.log.push_back(msg);
        } else {
            // Nobody could ever read it: the log stays empty at `base`.
            inner.base += 1;
            inner.stats.reclaimed += 1;
        }
        inner.stats.published += 1;
        (inner, Ok(offset))
    }

    /// Appends one message, returning its offset, or an error carrying the
    /// message back when the topic is full and the policy refuses it.
    pub fn try_publish(&self, msg: T) -> Result<u64, PublishError<T>> {
        let (inner, keep) = self.lock_for_append();
        let (inner, result) = self.append_locked(inner, msg, keep);
        drop(inner);
        if result.is_ok() {
            // Wake consumers waiting in `poll_wait` for new data.
            self.progress.notify_all();
        }
        result
    }

    /// Appends one message, returning its offset, or `None` when the topic
    /// refused it (full under `RejectNew`, or a timed-out `Block`). The
    /// refusal is counted in [`TopicStats::rejected`]; use
    /// [`try_publish`](Self::try_publish) to get the message back.
    pub fn publish(&self, msg: T) -> Option<u64> {
        self.try_publish(msg).ok()
    }

    /// Appends a batch under a **single lock acquisition** (a `Block` wait
    /// mid-batch still releases the lock while waiting), returning the
    /// offset of the first message that was actually published — `None` for
    /// an empty batch or when every message was refused. Refused messages
    /// are dropped and counted in [`TopicStats::rejected`]; use
    /// [`publish_batch_all`](Self::publish_batch_all) to get them back.
    pub fn publish_batch(&self, msgs: impl IntoIterator<Item = T>) -> Option<u64> {
        self.publish_batch_inner(msgs, None)
    }

    /// Like [`publish_batch`](Self::publish_batch), but hands refused
    /// messages back to the producer instead of dropping them, so a
    /// lossless producer can retry exactly what was not appended. The
    /// first refusal refuses the rest of the batch too, so what comes back
    /// is always a suffix, in input order, and retrying it keeps the
    /// producer's order.
    pub fn publish_batch_all(&self, msgs: impl IntoIterator<Item = T>) -> (Option<u64>, Vec<T>) {
        let mut refused = Vec::new();
        let first = self.publish_batch_inner(msgs, Some(&mut refused));
        (first, refused)
    }

    fn publish_batch_inner(
        &self,
        msgs: impl IntoIterator<Item = T>,
        mut refused: Option<&mut Vec<T>>,
    ) -> Option<u64> {
        let mut first = None;
        let mut appended = false;
        let (mut inner, keep) = self.lock_for_append();
        let mut msgs = msgs.into_iter();
        for msg in msgs.by_ref() {
            let (guard, result) = self.append_locked(inner, msg, keep);
            inner = guard;
            match result {
                Ok(offset) => {
                    first.get_or_insert(offset);
                    appended = true;
                }
                Err(err) => {
                    if let Some(out) = refused.as_deref_mut() {
                        out.push(err.into_inner());
                        break;
                    }
                }
            }
        }
        if let Some(out) = refused {
            // Hand back a suffix: a consumer advancing mid-batch must not
            // let a later message in ahead of a refused one.
            let before = out.len();
            out.extend(msgs);
            inner.stats.rejected += (out.len() - before) as u64;
        }
        drop(inner);
        if appended {
            self.progress.notify_all();
        }
        first
    }

    /// Number of messages ever published (not reduced by truncation).
    pub fn len(&self) -> u64 {
        self.lock().end()
    }

    /// `true` when nothing has ever been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Oldest offset still retained.
    pub fn base_offset(&self) -> u64 {
        self.lock().base
    }

    /// Messages currently retained in memory.
    pub fn retained(&self) -> usize {
        self.lock().log.len()
    }

    /// Running counters.
    pub fn stats(&self) -> TopicStats {
        self.lock().stats
    }

    /// Durable snapshot for checkpointing: the base offset, the counters
    /// and a clone of the retained log contents.
    pub fn durable_state(&self) -> (u64, TopicStats, Vec<T>) {
        let inner = self.lock();
        (inner.base, inner.stats, inner.log.iter().cloned().collect())
    }

    /// Restores a checkpointed snapshot, replacing the current contents and
    /// counters. Registered consumers keep their offsets; restore before
    /// consumers advance (i.e. immediately after construction) so offsets
    /// and contents stay coherent. On an unbounded topic, restore before
    /// anything subscribes: the first [`consumer`](Self::consumer) then
    /// inherits the retained messages. Waiters are notified.
    pub fn restore_state(&self, base: u64, stats: TopicStats, retained: Vec<T>) {
        {
            let mut inner = self.lock();
            inner.base = base;
            inner.stats = stats;
            inner.log = retained.into();
        }
        self.progress.notify_all();
    }

    /// A point-in-time health snapshot.
    pub fn health(&self) -> TopicHealth {
        let inner = self.lock();
        TopicHealth {
            name: self.name.clone(),
            retained: inner.log.len(),
            capacity: self.config.capacity,
            end_offset: inner.end(),
            base_offset: inner.base,
            stats: inner.stats,
        }
    }

    /// Creates a registered consumer. On a bounded topic it starts at the
    /// oldest retained message. On an unbounded topic it sees only what is
    /// published from now on while other consumers are live; with none live
    /// it inherits whatever is retained (a restored checkpoint's unread
    /// suffix, otherwise nothing).
    pub fn consumer(self: &Arc<Self>) -> Consumer<T> {
        let mut inner = self.lock();
        let start = match self.config.capacity {
            None if inner.min_consumer_offset().is_some() => inner.end(),
            _ => inner.base,
        };
        let pos = Arc::new(AtomicU64::new(start));
        inner.consumers.push(Arc::downgrade(&pos));
        drop(inner);
        Consumer {
            topic: Arc::clone(self),
            pos,
            skipped_total: 0,
        }
    }

    /// Waits until the topic has room for at least one more message, or
    /// the timeout expires. `Ok(())` means space is available.
    ///
    /// "Room" means the retained window is below capacity, or (under
    /// [`OverflowPolicy::Block`]) a fully-consumed prefix could be
    /// reclaimed — which this call performs, exactly as a blocked publish
    /// would. Unbounded and [`DropOldest`](OverflowPolicy::DropOldest)
    /// topics always have room.
    ///
    /// Fails typed instead of blocking pointlessly:
    /// [`SpaceWaitError::Timeout`] when the deadline expires, and
    /// [`SpaceWaitError::NoConsumers`] **promptly** when a full `Block`
    /// topic has no live registered consumer — space can then never be
    /// freed, and a caller parked here is woken the moment the last
    /// consumer drops (see [`Consumer`]'s `Drop`).
    ///
    /// This is the event-driven retry primitive for lossless producers:
    /// instead of busy-spinning `try_publish` against a full topic (each
    /// attempt re-arming its own internal timeout), park here — every
    /// consumer advance signals the same condvar a blocked publish waits
    /// on, so the wakeup is prompt, not sleep-quantized.
    pub fn wait_for_space(&self, timeout: Duration) -> Result<(), SpaceWaitError> {
        let Some(capacity) = self.config.capacity else {
            return Ok(());
        };
        if self.config.policy == OverflowPolicy::DropOldest {
            return Ok(());
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.log.len() < capacity.max(1) {
                return Ok(());
            }
            if self.config.policy == OverflowPolicy::Block {
                if inner.reclaim_consumed() > 0 {
                    return Ok(());
                }
                if inner.min_consumer_offset().is_none() {
                    return Err(SpaceWaitError::NoConsumers);
                }
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(SpaceWaitError::Timeout);
            }
            let (guard, _timeout) = self
                .progress
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

}

// Internal plumbing that must not require `T: Clone` (used from
// `Consumer::drop`, which is implemented for every `T`).
impl<T> Topic<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A poisoned bus mutex means a writer panicked mid-append of a
        // single element; the log itself is still structurally sound, so
        // keep serving rather than cascading the failure.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Called by consumers after advancing or leaving: reclaims what an
    /// unbounded topic no longer needs and wakes blocked producers.
    fn note_progress(&self) {
        // Taking the lock orders the offset store before the wakeup.
        let mut inner = self.lock();
        if self.config.capacity.is_none() {
            inner.retain_unread();
        }
        drop(inner);
        self.progress.notify_all();
    }
}

/// A registered reader over a topic with its own offset.
#[derive(Debug)]
pub struct Consumer<T> {
    topic: Arc<Topic<T>>,
    pos: Arc<AtomicU64>,
    skipped_total: u64,
}

impl<T: Clone> Consumer<T> {
    /// The next offset this consumer will read.
    pub fn offset(&self) -> u64 {
        self.pos.load(Ordering::Acquire)
    }

    /// Total messages this consumer has ever missed to truncation.
    pub fn skipped_total(&self) -> u64 {
        self.skipped_total
    }

    /// Polls up to `max` messages, advancing the offset.
    ///
    /// When the topic truncated past this consumer's offset, returns
    /// [`Lagged`] with the number of messages missed and resyncs to the
    /// oldest retained message; the next call returns data again.
    pub fn poll(&mut self, max: usize) -> Result<Vec<T>, Lagged> {
        let offset = self.pos.load(Ordering::Acquire);
        let (batch, base) = {
            let mut inner = self.topic.lock();
            let batch = self.read_locked(&inner, offset, max);
            let base = inner.base;
            if base > offset {
                inner.stats.lag_signals += 1;
            } else {
                inner.stats.consumed += batch.len() as u64;
            }
            (batch, base)
        };
        if base > offset {
            let skipped = base - offset;
            self.skipped_total += skipped;
            self.pos.store(base, Ordering::Release);
            self.topic.note_progress();
            return Err(Lagged { skipped });
        }
        if !batch.is_empty() {
            self.pos.store(offset + batch.len() as u64, Ordering::Release);
            self.topic.note_progress();
        }
        Ok(batch)
    }

    /// Polls up to `max` messages, **waiting** up to `timeout` for data to
    /// arrive when the topic is currently drained. Returns an empty batch
    /// on timeout. Lag is reported exactly as in [`poll`](Self::poll).
    ///
    /// This is the blocking consume primitive of the sharded executor:
    /// worker threads park here instead of spinning, and every publish
    /// wakes them.
    pub fn poll_wait(&mut self, max: usize, timeout: Duration) -> Result<Vec<T>, Lagged> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let offset = self.pos.load(Ordering::Acquire);
            let mut inner = self.topic.lock();
            let base = inner.base;
            if base > offset {
                inner.stats.lag_signals += 1;
                drop(inner);
                let skipped = base - offset;
                self.skipped_total += skipped;
                self.pos.store(base, Ordering::Release);
                self.topic.note_progress();
                return Err(Lagged { skipped });
            }
            let batch = self.read_locked(&inner, offset, max);
            if !batch.is_empty() {
                inner.stats.consumed += batch.len() as u64;
                drop(inner);
                self.pos.store(offset + batch.len() as u64, Ordering::Release);
                self.topic.note_progress();
                return Ok(batch);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Ok(Vec::new());
            }
            let (guard, _timeout) = self
                .topic
                .progress
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            drop(inner);
        }
    }

    fn read_locked(&self, inner: &Inner<T>, from: u64, max: usize) -> Vec<T> {
        if from < inner.base || from >= inner.end() {
            return Vec::new();
        }
        let start = (from - inner.base) as usize;
        // Saturate: `poll(usize::MAX)` (drain) from a mid-window offset
        // must not overflow.
        let stop = inner.log.len().min(start.saturating_add(max));
        inner.log.range(start..stop).cloned().collect()
    }

    /// Polls one message if available.
    pub fn poll_one(&mut self) -> Result<Option<T>, Lagged> {
        Ok(self.poll(1)?.into_iter().next())
    }

    /// Drains everything currently available.
    pub fn drain(&mut self) -> Result<Vec<T>, Lagged> {
        self.poll(usize::MAX)
    }

    /// Messages published but not yet consumed (including any the consumer
    /// can no longer read because they were truncated).
    pub fn lag(&self) -> u64 {
        self.topic.len().saturating_sub(self.offset())
    }

    /// Jumps past every currently published message: the next poll starts
    /// at the topic's end offset, and nothing skipped counts as lag. For
    /// consumers whose owner already processed the topic's contents out of
    /// band — e.g. re-attaching to a restored topic whose retained messages
    /// were all drained before the checkpoint was cut.
    pub fn fast_forward(&mut self) {
        let end = self.topic.lock().end();
        self.pos.store(end, Ordering::Release);
    }
}

impl<T> Drop for Consumer<T> {
    /// Deregisters eagerly, releases what only this consumer still needed,
    /// and wakes parked producers: a producer blocked in `wait_for_space` /
    /// a `Block` publish must re-evaluate whether any consumer can still
    /// free space, or it would sleep out its full timeout against a topic
    /// nobody will ever drain.
    fn drop(&mut self) {
        let mine = Arc::as_ptr(&self.pos);
        self.topic
            .lock()
            .consumers
            .retain(|w| w.strong_count() > 0 && !std::ptr::eq(w.as_ptr(), mine));
        self.topic.note_progress();
    }
}

/// A registry of named topics, each carrying one message type `T`.
///
/// The integrated pipeline uses one bus per message type (raw reports,
/// critical points, RDF fragments, events); the registry keeps topic
/// creation race-free.
#[derive(Debug)]
pub struct MessageBus<T> {
    topics: RwLock<HashMap<String, Arc<Topic<T>>>>,
    default_config: TopicConfig,
}

impl<T: Clone> MessageBus<T> {
    /// Creates an empty bus creating unbounded topics.
    pub fn new() -> Self {
        Self::with_default_config(TopicConfig::default())
    }

    /// Creates an empty bus whose topics are created with `config`.
    pub fn with_default_config(config: TopicConfig) -> Self {
        Self {
            topics: RwLock::new(HashMap::new()),
            default_config: config,
        }
    }

    fn topics_read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Topic<T>>>> {
        self.topics.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the topic with this name, creating it on first use with the
    /// bus default configuration.
    pub fn topic(&self, name: &str) -> Arc<Topic<T>> {
        if let Some(t) = self.topics_read().get(name) {
            return Arc::clone(t);
        }
        let mut topics = self.topics.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            topics
                .entry(name.to_string())
                .or_insert_with(|| Topic::with_config(name, self.default_config.clone())),
        )
    }

    /// Names of all topics created so far, sorted.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics_read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Health snapshots of all topics, sorted by name.
    pub fn health(&self) -> Vec<TopicHealth> {
        let mut all: Vec<TopicHealth> = self.topics_read().values().map(|t| t.health()).collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }
}

impl<T: Clone> Default for MessageBus<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn publish_and_poll_in_order() {
        let topic = Topic::new("raw");
        let mut c = topic.consumer();
        topic.publish(1);
        topic.publish(2);
        topic.publish(3);
        assert_eq!(c.poll(2).expect("no lag"), vec![1, 2]);
        assert_eq!(c.poll(10).expect("no lag"), vec![3]);
        assert!(c.poll(10).expect("no lag").is_empty());
    }

    #[test]
    fn independent_consumers() {
        let topic = Topic::new("raw");
        let mut a = topic.consumer();
        let mut b = topic.consumer();
        topic.publish_batch(0..5);
        assert_eq!(a.drain().expect("no lag"), vec![0, 1, 2, 3, 4]);
        assert_eq!(b.poll(2).expect("no lag"), vec![0, 1]);
        assert_eq!(b.lag(), 3);
        assert_eq!(topic.retained(), 3, "only what the slower consumer has not read");
    }

    #[test]
    fn bus_creates_and_reuses_topics() {
        let bus: MessageBus<u32> = MessageBus::new();
        let t1 = bus.topic("alpha");
        let t2 = bus.topic("alpha");
        t1.publish(7);
        assert_eq!(t2.len(), 1);
        bus.topic("beta");
        assert_eq!(bus.topic_names(), vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(bus.health().len(), 2);
    }

    #[test]
    fn concurrent_producers_and_consumer() {
        let topic: Arc<Topic<u64>> = Topic::new("raw");
        let mut c = topic.consumer();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let t = Arc::clone(&topic);
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        t.publish(p * 1000 + i);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer thread");
        }
        let all = c.drain().expect("no lag");
        assert_eq!(all.len(), 4000);
        // Per-producer order is preserved.
        for p in 0..4u64 {
            let seq: Vec<u64> = all.iter().copied().filter(|v| v / 1000 == p).collect();
            assert!(seq.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn publish_batch_returns_first_offset() {
        let topic = Topic::new("raw");
        topic.publish(0);
        let first = topic.publish_batch([1, 2, 3]);
        assert_eq!(first, Some(1));
        assert_eq!(topic.len(), 4);
    }

    #[test]
    fn publish_batch_of_nothing_returns_none() {
        let topic: Arc<Topic<u8>> = Topic::new("raw");
        assert_eq!(topic.publish_batch(std::iter::empty()), None);
        assert_eq!(topic.len(), 0);
        topic.publish(9);
        assert_eq!(topic.publish_batch(std::iter::empty()), None, "offset is never fabricated");
    }

    #[test]
    fn drop_oldest_bounds_memory_and_reports_lag() {
        let topic = Topic::bounded("raw", 4, OverflowPolicy::DropOldest);
        let mut c = topic.consumer();
        for i in 0..10u32 {
            topic.publish(i);
            assert!(topic.retained() <= 4, "capacity respected");
        }
        let lagged = c.poll(100).expect_err("prefix was truncated");
        assert_eq!(lagged.skipped, 6);
        assert_eq!(c.skipped_total(), 6);
        // After the explicit signal, the survivors read normally.
        assert_eq!(c.poll(100).expect("resynced"), vec![6, 7, 8, 9]);
        assert_eq!(topic.stats().dropped, 6);
        assert_eq!(topic.len(), 10, "offsets keep counting");
        assert!(!topic.health().is_lossless());
    }

    #[test]
    fn reject_new_hands_the_message_back() {
        let topic = Topic::bounded("raw", 2, OverflowPolicy::RejectNew);
        assert_eq!(topic.publish(1), Some(0));
        assert_eq!(topic.publish(2), Some(1));
        let err = topic.try_publish(3).expect_err("full");
        assert_eq!(err.into_inner(), 3);
        assert_eq!(topic.publish(4), None);
        assert_eq!(topic.stats().rejected, 2);
        // Consuming does not free space under RejectNew (log retention is
        // capacity-based), but the retained window never grows.
        assert_eq!(topic.retained(), 2);
        let mut c = topic.consumer();
        assert_eq!(c.drain().expect("no lag"), vec![1, 2]);
    }

    #[test]
    fn block_applies_backpressure_until_consumer_catches_up() {
        let topic = Topic::with_config(
            "raw",
            TopicConfig {
                capacity: Some(8),
                policy: OverflowPolicy::Block,
                block_timeout: Duration::from_secs(10),
            },
        );
        let mut c = topic.consumer();
        let producer = {
            let t = Arc::clone(&topic);
            thread::spawn(move || {
                for i in 0..100u64 {
                    t.try_publish(i).expect("blocked publish eventually succeeds");
                }
            })
        };
        let mut seen = Vec::new();
        while seen.len() < 100 {
            match c.poll(3) {
                Ok(batch) => seen.extend(batch),
                Err(lagged) => panic!("Block policy never truncates unread data: {lagged:?}"),
            }
            assert!(topic.retained() <= 8, "capacity respected under sustained overload");
            thread::yield_now();
        }
        producer.join().expect("producer");
        assert_eq!(seen, (0..100).collect::<Vec<_>>(), "lossless delivery");
        assert!(topic.stats().reclaimed > 0, "consumed prefix was reclaimed");
        assert_eq!(topic.stats().dropped, 0);
    }

    #[test]
    fn block_without_consumers_times_out_instead_of_deadlocking() {
        let topic = Topic::with_config(
            "raw",
            TopicConfig {
                capacity: Some(1),
                policy: OverflowPolicy::Block,
                block_timeout: Duration::from_millis(20),
            },
        );
        assert_eq!(topic.publish(1), Some(0));
        let err = topic.try_publish(2).expect_err("no consumer will ever free space");
        assert!(matches!(err, PublishError::Timeout(2)));
    }

    #[test]
    fn wait_for_space_is_immediate_when_room_exists() {
        let unbounded: Arc<Topic<u8>> = Topic::new("raw");
        assert!(unbounded.wait_for_space(Duration::ZERO).is_ok());
        let dropping = Topic::bounded("raw", 1, OverflowPolicy::DropOldest);
        dropping.publish(1);
        assert!(dropping.wait_for_space(Duration::ZERO).is_ok(), "DropOldest always has room");
        let bounded = Topic::bounded("raw", 2, OverflowPolicy::Block);
        bounded.publish(1);
        assert!(bounded.wait_for_space(Duration::ZERO).is_ok(), "below capacity");
    }

    #[test]
    fn wait_for_space_times_out_on_a_stuck_topic() {
        let topic = Topic::bounded("raw", 1, OverflowPolicy::Block);
        let _pin = topic.consumer(); // registered but never advances
        topic.publish(1);
        let started = std::time::Instant::now();
        assert_eq!(
            topic.wait_for_space(Duration::from_millis(20)),
            Err(SpaceWaitError::Timeout)
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn wait_for_space_wakes_on_consumer_progress() {
        let topic = Topic::bounded("raw", 1, OverflowPolicy::Block);
        let mut c = topic.consumer();
        topic.publish(7);
        let waiter = {
            let t = Arc::clone(&topic);
            thread::spawn(move || t.wait_for_space(Duration::from_secs(10)))
        };
        // The consumer reading the retained message makes the prefix
        // reclaimable; the waiter must observe that without timing out.
        thread::sleep(Duration::from_millis(10));
        assert_eq!(c.poll(10).expect("no lag"), vec![7]);
        assert!(waiter.join().expect("waiter thread").is_ok(), "woken by consumer progress");
        assert_eq!(topic.try_publish(8).expect("space reclaimed"), 1);
    }

    #[test]
    fn wait_for_space_reclaims_consumed_prefix_under_block() {
        let topic = Topic::bounded("raw", 2, OverflowPolicy::Block);
        let mut c = topic.consumer();
        topic.publish(1);
        topic.publish(2);
        assert_eq!(c.drain().expect("no lag"), vec![1, 2]);
        // Full by log length, but the whole window is consumed: waiting
        // must reclaim it rather than park.
        assert!(topic.wait_for_space(Duration::ZERO).is_ok());
        assert!(topic.stats().reclaimed >= 1);
    }

    #[test]
    fn reject_new_reclaims_consumed_prefix_before_refusing() {
        let topic = Topic::bounded("t", 2, OverflowPolicy::RejectNew);
        let mut c = topic.consumer();
        topic.try_publish(1).unwrap();
        topic.try_publish(2).unwrap();
        assert!(matches!(topic.try_publish(3), Err(PublishError::Rejected(3))));
        // Once the consumer has read the window, a new publish must
        // reclaim the consumed prefix instead of rejecting forever.
        assert_eq!(c.drain().expect("no lag"), vec![1, 2]);
        assert_eq!(topic.try_publish(3), Ok(2));
        assert_eq!(c.drain().expect("no lag"), vec![3]);
    }

    #[test]
    fn wait_for_space_fails_fast_when_no_consumer_exists() {
        let topic = Topic::bounded("raw", 1, OverflowPolicy::Block);
        topic.publish(1);
        let started = std::time::Instant::now();
        // Nobody can ever free space: typed error, no pointless 10 s park.
        assert_eq!(
            topic.wait_for_space(Duration::from_secs(10)),
            Err(SpaceWaitError::NoConsumers)
        );
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    /// Regression test for the consumer-drop-while-parked path: a producer
    /// already parked in `wait_for_space` must be woken promptly when the
    /// last consumer drops, with the typed `NoConsumers` error — not left
    /// to sleep out its full timeout.
    #[test]
    fn wait_for_space_errs_promptly_when_last_consumer_drops_mid_wait() {
        let topic = Topic::bounded("raw", 1, OverflowPolicy::Block);
        let c = topic.consumer(); // pins the retained message
        topic.publish(1);
        let started = std::time::Instant::now();
        let waiter = {
            let t = Arc::clone(&topic);
            thread::spawn(move || t.wait_for_space(Duration::from_secs(30)))
        };
        thread::sleep(Duration::from_millis(30)); // let the waiter park
        drop(c);
        let result = waiter.join().expect("waiter thread");
        assert_eq!(result, Err(SpaceWaitError::NoConsumers));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "waiter slept {:?} despite the last consumer dropping",
            started.elapsed()
        );
    }

    /// The same path through a blocked publish: `try_publish` on a full
    /// `Block` topic gives up with a typed timeout error when its last
    /// consumer drops mid-wait instead of blocking out the full timeout.
    #[test]
    fn blocked_publish_gives_up_when_last_consumer_drops_mid_wait() {
        let topic = Topic::with_config(
            "raw",
            TopicConfig {
                capacity: Some(1),
                policy: OverflowPolicy::Block,
                block_timeout: Duration::from_secs(30),
            },
        );
        let c = topic.consumer();
        topic.publish(1);
        let started = std::time::Instant::now();
        let publisher = {
            let t = Arc::clone(&topic);
            thread::spawn(move || t.try_publish(2))
        };
        thread::sleep(Duration::from_millis(30)); // let the publisher park
        drop(c);
        let result = publisher.join().expect("publisher thread");
        assert!(matches!(result, Err(PublishError::Timeout(2))), "got {result:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "publisher blocked {:?} despite the last consumer dropping",
            started.elapsed()
        );
    }
}
