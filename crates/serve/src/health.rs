//! The health/watchdog subsystem: a monitor the writer loop heartbeats into
//! and the transport layer evaluates on demand (`HEALTH?`, `GET /healthz`).
//!
//! The monitor tracks three signals:
//!
//! * **writer heartbeat age** — the writer loop beats every tick even when
//!   idle ([`crate::engine`] uses a bounded `recv_timeout`), so a heartbeat
//!   older than [`HealthConfig::stall_after`] means the writer thread is
//!   wedged (or a repair is pathologically long): status `stalled`.
//! * **update-queue saturation** — depth at or above
//!   [`HealthConfig::queue_warn_pct`] percent of capacity: `degraded`
//!   (producers are about to block).
//! * **epoch-publish staleness** — operations are pending but no epoch has
//!   been published for [`HealthConfig::publish_stale_after`]: `degraded`.
//!
//! Cover quality needs no signal: the writer minimizes before every publish,
//! so every published cover is minimal.
//!
//! Reasons are stable machine-readable codes ([`reasons`]); the numeric
//! evidence travels alongside in the [`HealthReport`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tdb_obs::Gauge;

/// Stable reason codes a [`HealthReport`] can carry.
pub mod reasons {
    /// Writer heartbeat older than [`super::HealthConfig::stall_after`].
    pub const WRITER_STALLED: &str = "writer_stalled";
    /// Update queue at or above the warning fraction of its capacity.
    pub const QUEUE_SATURATED: &str = "queue_saturated";
    /// Operations pending but no epoch published recently.
    pub const PUBLISH_STALE: &str = "publish_stale";
}

/// Watchdog thresholds (part of [`crate::EngineConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Heartbeat age beyond which the writer counts as stalled.
    pub stall_after: Duration,
    /// Maximum publish age tolerated while operations are pending.
    pub publish_stale_after: Duration,
    /// Queue-depth percentage of capacity at which saturation is flagged.
    pub queue_warn_pct: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stall_after: Duration::from_secs(3),
            publish_stale_after: Duration::from_secs(1),
            queue_warn_pct: 75,
        }
    }
}

/// Overall classification of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// All signals within thresholds.
    Ok,
    /// Serving, but at least one signal crossed its warning threshold.
    Degraded,
    /// The writer thread is not making progress.
    Stalled,
}

impl HealthStatus {
    /// Lower-case wire name (`ok` / `degraded` / `stalled`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Stalled => "stalled",
        }
    }
}

/// One point-in-time evaluation of the monitor.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Overall classification.
    pub status: HealthStatus,
    /// Machine-readable reason codes (see [`reasons`]); empty when `Ok`.
    pub reasons: Vec<&'static str>,
    /// Age of the writer's last heartbeat.
    pub heartbeat_age: Duration,
    /// Age of the last published epoch.
    pub publish_age: Duration,
    /// Update-queue depth at evaluation time.
    pub queue_depth: i64,
    /// Update-queue capacity.
    pub queue_capacity: usize,
}

/// Shared between the writer loop (producer of heartbeats and publication
/// stamps) and the transport layer (evaluator).
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    queue_capacity: usize,
    queue_depth: Gauge,
    started: Instant,
    heartbeat_ns: AtomicU64,
    last_publish_ns: AtomicU64,
}

impl HealthMonitor {
    /// A monitor for an engine with the given queue shape; `queue_depth` is
    /// the engine's live depth gauge. The heartbeat and publish stamps start
    /// "fresh" so a just-started engine evaluates `ok`.
    pub fn new(config: HealthConfig, queue_capacity: usize, queue_depth: Gauge) -> Self {
        HealthMonitor {
            config,
            queue_capacity,
            queue_depth,
            started: Instant::now(),
            heartbeat_ns: AtomicU64::new(0),
            last_publish_ns: AtomicU64::new(0),
        }
    }

    /// The monitor's thresholds.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Writer-loop heartbeat: called every tick, busy or idle.
    pub fn beat(&self) {
        self.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    /// Stamp an epoch publication.
    pub fn published(&self) {
        self.last_publish_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    fn age_of(&self, stamp_ns: u64) -> Duration {
        Duration::from_nanos(self.now_ns().saturating_sub(stamp_ns))
    }

    /// Classify the engine right now.
    pub fn evaluate(&self) -> HealthReport {
        let heartbeat_age = self.age_of(self.heartbeat_ns.load(Ordering::Relaxed));
        let publish_age = self.age_of(self.last_publish_ns.load(Ordering::Relaxed));
        let queue_depth = self.queue_depth.get();

        let mut reason_codes = Vec::new();
        if heartbeat_age > self.config.stall_after {
            reason_codes.push(reasons::WRITER_STALLED);
        }
        if queue_depth.max(0) as u128 * 100
            >= self.queue_capacity as u128 * self.config.queue_warn_pct as u128
            && queue_depth > 0
        {
            reason_codes.push(reasons::QUEUE_SATURATED);
        }
        if queue_depth > 0 && publish_age > self.config.publish_stale_after {
            reason_codes.push(reasons::PUBLISH_STALE);
        }

        let status = if reason_codes.contains(&reasons::WRITER_STALLED) {
            HealthStatus::Stalled
        } else if reason_codes.is_empty() {
            HealthStatus::Ok
        } else {
            HealthStatus::Degraded
        };
        HealthReport {
            status,
            reasons: reason_codes,
            heartbeat_age,
            publish_age,
            queue_depth,
            queue_capacity: self.queue_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(config: HealthConfig) -> HealthMonitor {
        HealthMonitor::new(config, 100, Gauge::default())
    }

    #[test]
    fn fresh_monitor_is_ok() {
        let m = monitor(HealthConfig::default());
        let report = m.evaluate();
        assert_eq!(report.status, HealthStatus::Ok);
        assert!(report.reasons.is_empty());
        assert_eq!(report.queue_capacity, 100);
    }

    #[test]
    fn old_heartbeat_classifies_stalled_and_a_beat_recovers() {
        let m = monitor(HealthConfig {
            stall_after: Duration::ZERO,
            ..Default::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        let report = m.evaluate();
        assert_eq!(report.status, HealthStatus::Stalled);
        assert_eq!(report.reasons, vec![reasons::WRITER_STALLED]);
        // Any stall threshold above the beat-to-evaluate gap recovers.
        let m = monitor(HealthConfig::default());
        m.beat();
        assert_eq!(m.evaluate().status, HealthStatus::Ok);
    }

    #[test]
    fn queue_saturation_degrades() {
        let m = monitor(HealthConfig::default());
        m.beat();
        m.queue_depth.set(75); // exactly the 75% threshold of capacity 100
        let report = m.evaluate();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert!(report.reasons.contains(&reasons::QUEUE_SATURATED));
        m.queue_depth.set(74);
        assert_eq!(m.evaluate().status, HealthStatus::Ok);
    }

    #[test]
    fn pending_ops_with_stale_publish_degrade() {
        let m = monitor(HealthConfig {
            publish_stale_after: Duration::ZERO,
            ..Default::default()
        });
        m.beat();
        m.queue_depth.set(1);
        std::thread::sleep(Duration::from_millis(2));
        let report = m.evaluate();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert!(report.reasons.contains(&reasons::PUBLISH_STALE));
        // An empty queue tolerates arbitrary publish age (nothing to do).
        m.queue_depth.set(0);
        m.beat();
        assert_eq!(m.evaluate().status, HealthStatus::Ok);
    }

    #[test]
    fn stalled_dominates_degraded() {
        let m = monitor(HealthConfig {
            stall_after: Duration::ZERO,
            ..Default::default()
        });
        m.queue_depth.set(100);
        std::thread::sleep(Duration::from_millis(2));
        let report = m.evaluate();
        assert_eq!(report.status, HealthStatus::Stalled);
        assert!(report.reasons.len() >= 2, "{:?}", report.reasons);
    }
}
