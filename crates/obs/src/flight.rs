//! The always-on flight recorder: a lock-free, fixed-capacity ring of
//! compact lifecycle events.
//!
//! Unlike the registry's trace buffer (unbounded until a cap, dropped
//! beyond it), the flight recorder *overwrites oldest*: it is meant to be
//! left on for arbitrarily long runs and asked "what just happened?"
//! after a crash or an invariant violation. The ring holds
//! [`CAPACITY`] events of six words each (~3.5 MB) and is written
//! through a per-slot seqlock:
//!
//! * a writer claims a global monotone ticket with one `fetch_add`, then
//!   CASes its slot's sequence word from the previous lap's *complete*
//!   value to the odd *in-progress* value, stores the six payload words,
//!   and releases the even *complete* value `2·ticket + 2`;
//! * a reader loads the sequence word, copies the payload, and re-checks
//!   the sequence — an odd value or a changed value means a concurrent
//!   overwrite, and the slot is retried or skipped. Every payload word is
//!   an `AtomicU64`, so no read is ever torn even mid-overwrite; the
//!   seqlock only guarantees the six words belong to *one* event.
//!
//! When disabled (the default) [`record`] is a single relaxed atomic
//! load and no allocation — the same bar as the metrics registry; the
//! ring itself is not allocated until the first [`enable`].
//!
//! Events carry a *correlation key* (the request uid assigned at
//! generation time), an optional tenant id, and two payload words whose
//! meaning depends on the [`FlightKind`] — see the table in DESIGN.md.
//! [`crate::timeline`] reconstructs per-request lifecycles from a
//! [`FlightSnapshot`] and checks them against its one lifecycle grammar;
//! [`dump_json_lines`] is the only on-disk form of those events, and
//! timelines are rebuilt from it rather than written separately.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no key / no tenant" payload fields.
pub const NONE: u64 = u64::MAX;

/// Ring capacity in events. 2^16 slots × 7 words ≈ 3.5 MB.
pub const CAPACITY: usize = 1 << 16;

/// Schema version stamped on every dump.
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// What happened. The discriminant is the on-ring encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum FlightKind {
    /// A request was drawn from an arrival stream. `key` = request uid,
    /// `a` = VM count.
    Generated = 0,
    /// The request reached the simulator. `a` = sim time in µ-units,
    /// `b` = VM count.
    Arrived = 1,
    /// Admission control accepted the request, binding `key` to
    /// `tenant`. `a` = window, `b` = VM count.
    Admitted = 2,
    /// Admission control rejected the request. `a` = window.
    Rejected = 3,
    /// One VM of an admitted request was placed. `a` = server, `b` =
    /// local VM index.
    Placed = 4,
    /// A running VM moved servers. `a` = from server, `b` = to server.
    Migrated = 5,
    /// The tenant released its resources. `a` = window.
    Departed = 6,
    /// A window's QoS fell below the tenant's guarantee (Eq. 23 credit
    /// accrued). `a` = window, `b` = credit in µ-units.
    SlaViolated = 7,
    /// A server went down. `a` = server, `b` = window.
    ServerFailed = 8,
    /// A server came back. `a` = server, `b` = window.
    ServerRepaired = 9,
    /// A scheduling window closed. `a` = window, `b` = running tenants.
    WindowClosed = 10,
    /// An invariant monitor tripped. `key` = monitor code (0 capacity,
    /// 1 placement, 2 affinity); `a`/`b` are monitor-specific.
    Violation = 11,
    /// Free-form marker dropped by drivers/tests.
    Marker = 12,
    /// The placement store accepted an optimistic commit for the
    /// request, reserving its residual capacity. `a` = window, `b` =
    /// retry round (0 = first attempt).
    Committed = 13,
    /// The placement store bounced an optimistic commit (another
    /// scheduler shard took the capacity first, or it never fit).
    /// `a` = window, `b` = retry round of the bounced attempt.
    Conflicted = 14,
    /// One rejected try_commit attempt, attributed to the first server
    /// whose residual could not absorb the proposal. `a` = server,
    /// `b` = the conflict-reason tag (0 stale, 1 capacity). Emitted
    /// alongside [`FlightKind::Conflicted`] so timelines show *where*
    /// a bounced request hit contention, and the profiler can build
    /// per-server hotspot tables.
    CommitAttempt = 15,
    /// An allocator panicked while solving one part of a round (part 0
    /// for the native engines); the part's requests were treated as
    /// unsolved. `a` = window, `b` = part index.
    SolverPanicked = 16,
}

impl FlightKind {
    /// All kinds, for iteration in tests and exporters.
    pub const ALL: [FlightKind; 17] = [
        FlightKind::Generated,
        FlightKind::Arrived,
        FlightKind::Admitted,
        FlightKind::Rejected,
        FlightKind::Placed,
        FlightKind::Migrated,
        FlightKind::Departed,
        FlightKind::SlaViolated,
        FlightKind::ServerFailed,
        FlightKind::ServerRepaired,
        FlightKind::WindowClosed,
        FlightKind::Violation,
        FlightKind::Marker,
        FlightKind::Committed,
        FlightKind::Conflicted,
        FlightKind::CommitAttempt,
        FlightKind::SolverPanicked,
    ];

    /// Stable lower-case name used in JSONL dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Generated => "generated",
            FlightKind::Arrived => "arrived",
            FlightKind::Admitted => "admitted",
            FlightKind::Rejected => "rejected",
            FlightKind::Placed => "placed",
            FlightKind::Migrated => "migrated",
            FlightKind::Departed => "departed",
            FlightKind::SlaViolated => "sla_violated",
            FlightKind::ServerFailed => "server_failed",
            FlightKind::ServerRepaired => "server_repaired",
            FlightKind::WindowClosed => "window_closed",
            FlightKind::Violation => "violation",
            FlightKind::Marker => "marker",
            FlightKind::Committed => "committed",
            FlightKind::Conflicted => "conflicted",
            FlightKind::CommitAttempt => "commit_attempt",
            FlightKind::SolverPanicked => "solver_panicked",
        }
    }

    /// Inverse of [`FlightKind::name`].
    pub fn from_name(s: &str) -> Option<FlightKind> {
        FlightKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Inverse of the on-ring `as u64` encoding.
    pub fn from_tag(tag: u64) -> Option<FlightKind> {
        FlightKind::ALL.into_iter().find(|&k| k as u64 == tag)
    }
}

/// One recorded event, as read back out of the ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightEvent {
    /// Global record ordinal (total order across threads).
    pub ticket: u64,
    /// Wall-clock microseconds since the registry epoch.
    pub ts_us: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Request correlation uid, or [`NONE`].
    pub key: u64,
    /// Tenant id, or [`NONE`].
    pub tenant: u64,
    /// Kind-specific payload word.
    pub a: u64,
    /// Kind-specific payload word.
    pub b: u64,
}

/// Everything retrievable from the ring at one instant.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// Surviving events in ticket order (oldest first).
    pub events: Vec<FlightEvent>,
    /// Total events ever recorded (tickets issued).
    pub recorded: u64,
    /// Events no longer retrievable (overwritten or mid-write).
    pub overwritten: u64,
}

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 6],
}

struct Ring {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: Default::default(),
            })
            .collect();
        Self {
            slots,
            cursor: AtomicU64::new(0),
        }
    }

    fn write(&self, words: [u64; 6]) {
        let cap = self.slots.len() as u64;
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & (cap - 1)) as usize];
        // The slot is free once the writer one lap behind has released it
        // (seq == 2·(ticket − cap) + 2), or immediately on the first lap
        // (seq == 0). Spin until then — laps are CAPACITY tickets apart,
        // so contention here means the ring wrapped during one write.
        let expected = if ticket < cap {
            0
        } else {
            2 * (ticket - cap) + 2
        };
        while slot
            .seq
            .compare_exchange_weak(
                expected,
                2 * ticket + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            std::hint::spin_loop();
        }
        for (cell, w) in slot.words.iter().zip(words) {
            cell.store(w, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    fn snapshot(&self) -> FlightSnapshot {
        const RETRIES: usize = 64;
        let recorded = self.cursor.load(Ordering::Acquire);
        let mut events = Vec::with_capacity(self.slots.len().min(recorded as usize));
        for slot in self.slots.iter() {
            for _ in 0..RETRIES {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    break; // never written
                }
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue; // write in progress
                }
                let mut w = [0u64; 6];
                for (dst, cell) in w.iter_mut().zip(&slot.words) {
                    *dst = cell.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != s1 {
                    continue; // overwritten underneath us; retry
                }
                let ticket = (s1 - 2) / 2;
                if let Some(kind) = FlightKind::from_tag(w[1]) {
                    events.push(FlightEvent {
                        ticket,
                        ts_us: w[0],
                        kind,
                        key: w[2],
                        tenant: w[3],
                        a: w[4],
                        b: w[5],
                    });
                }
                break;
            }
        }
        events.sort_unstable_by_key(|e| e.ticket);
        let overwritten = recorded.saturating_sub(events.len() as u64);
        FlightSnapshot {
            events,
            recorded,
            overwritten,
        }
    }
}

/// Lives outside the `OnceLock` so the disabled fast path touches
/// nothing else.
static ENABLED: AtomicBool = AtomicBool::new(false);
static STRICT: AtomicBool = AtomicBool::new(false);
static RING: OnceLock<Ring> = OnceLock::new();
static ENV_STRICT: OnceLock<bool> = OnceLock::new();

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring::new(CAPACITY))
}

/// Turns the recorder on (allocating the ring on first use). Idempotent.
pub fn enable() {
    ring();
    crate::now_us(); // pin the shared epoch so timestamps correlate
    ENABLED.store(true, Ordering::Release);
}

/// Turns the recorder off. Recorded events are kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether the recorder is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the ring. Not safe to race with concurrent [`record`] calls —
/// callers (tests, drivers) quiesce recording first.
pub fn reset() {
    if let Some(r) = RING.get() {
        for slot in r.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        r.cursor.store(0, Ordering::Release);
    }
}

/// Arms fail-fast mode: the next invariant-monitor violation panics
/// (which also triggers the panic-hook dump). Also armed by setting the
/// `CPO_STRICT_MONITORS` environment variable to anything but `0`.
pub fn set_strict(on: bool) {
    STRICT.store(on, Ordering::Release);
}

/// Whether invariant monitors fail fast. Monitors only run while the
/// recorder is enabled, so strictness has no effect on untraced runs.
pub fn strict_monitors() -> bool {
    STRICT.load(Ordering::Relaxed)
        || *ENV_STRICT
            .get_or_init(|| std::env::var_os("CPO_STRICT_MONITORS").is_some_and(|v| v != "0"))
}

/// Records one event. When disabled this is two relaxed atomic loads and
/// no allocation; when enabled it is wait-free except under ring wrap.
///
/// Events are fanned out to every enabled consumer off one shared
/// timestamp: the ring (when the recorder is on) and the latency
/// profiler ([`crate::prof`], when profiling is on) see the same
/// microsecond, so ring timelines and profiled stage decompositions
/// agree exactly.
#[inline]
pub fn record(kind: FlightKind, key: u64, tenant: u64, a: u64, b: u64) {
    let ring_on = is_enabled();
    let prof_on = crate::prof::is_enabled();
    if !ring_on && !prof_on {
        return;
    }
    let ts = crate::now_us();
    if ring_on {
        ring().write([ts, kind as u64, key, tenant, a, b]);
    }
    if prof_on {
        crate::prof::observe(ts, kind, key, tenant, a, b);
    }
}

/// Drops a free-form [`FlightKind::Marker`] event.
pub fn marker(a: u64, b: u64) {
    record(FlightKind::Marker, NONE, NONE, a, b);
}

/// Copies the surviving ring contents out, oldest first.
pub fn snapshot() -> FlightSnapshot {
    match RING.get() {
        None => FlightSnapshot::default(),
        Some(r) => r.snapshot(),
    }
}

// --- JSONL dump / parse -------------------------------------------------

fn write_opt(v: u64, out: &mut String) {
    use std::fmt::Write as _;
    if v == NONE {
        out.push_str("null");
    } else {
        let _ = write!(out, "{v}");
    }
}

pub(crate) fn write_event_json(e: &FlightEvent, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"ticket\":{},\"ts_us\":{},\"kind\":\"{}\",\"key\":",
        e.ticket,
        e.ts_us,
        e.kind.name()
    );
    write_opt(e.key, out);
    out.push_str(",\"tenant\":");
    write_opt(e.tenant, out);
    let _ = write!(out, ",\"a\":{},\"b\":{}}}", e.a, e.b);
}

pub(crate) fn event_from_value(v: &crate::json::Value) -> Result<FlightEvent, String> {
    let field_u64 = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(crate::json::Value::as_u64)
            .ok_or_else(|| format!("missing numeric field {name}"))
    };
    let opt = |name: &str| -> Result<u64, String> {
        match v.get(name) {
            None | Some(crate::json::Value::Null) => Ok(NONE),
            Some(x) => x
                .as_u64()
                .ok_or_else(|| format!("field {name} is not numeric")),
        }
    };
    let kind_name = v
        .get("kind")
        .and_then(crate::json::Value::as_str)
        .ok_or("missing kind")?;
    let kind =
        FlightKind::from_name(kind_name).ok_or_else(|| format!("unknown kind {kind_name:?}"))?;
    Ok(FlightEvent {
        ticket: field_u64("ticket")?,
        ts_us: field_u64("ts_us")?,
        kind,
        key: opt("key")?,
        tenant: opt("tenant")?,
        a: field_u64("a")?,
        b: field_u64("b")?,
    })
}

/// Serialises a snapshot as JSON lines: a schema-version meta header,
/// then one event object per line in ticket order.
pub fn dump_json_lines(snap: &FlightSnapshot) -> String {
    let mut out = format!(
        "{{\"event\":\"meta\",\"schema\":\"cpo-flight\",\"schema_version\":{},\"recorded\":{},\"overwritten\":{}}}\n",
        FLIGHT_SCHEMA_VERSION, snap.recorded, snap.overwritten
    );
    for e in &snap.events {
        write_event_json(e, &mut out);
        out.push('\n');
    }
    out
}

/// Parses a [`dump_json_lines`] document back. Rejects unknown schema
/// versions; accepts a missing header (headerless fragments) for
/// forgiving hand-editing.
pub fn dump_from_json_lines(text: &str) -> Result<FlightSnapshot, String> {
    let mut snap = FlightSnapshot::default();
    let mut saw_header = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = crate::json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if v.get("event").and_then(crate::json::Value::as_str) == Some("meta") {
            let version = v
                .get("schema_version")
                .and_then(crate::json::Value::as_u64)
                .ok_or("meta line without schema_version")?;
            if version != FLIGHT_SCHEMA_VERSION {
                return Err(format!(
                    "unsupported flight schema version {version} (expected {FLIGHT_SCHEMA_VERSION})"
                ));
            }
            snap.recorded = v
                .get("recorded")
                .and_then(crate::json::Value::as_u64)
                .unwrap_or(0);
            snap.overwritten = v
                .get("overwritten")
                .and_then(crate::json::Value::as_u64)
                .unwrap_or(0);
            saw_header = true;
            continue;
        }
        snap.events
            .push(event_from_value(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    if !saw_header {
        snap.recorded = snap.events.len() as u64;
    }
    snap.events.sort_unstable_by_key(|e| e.ticket);
    Ok(snap)
}

// --- panic hook ---------------------------------------------------------

static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs a panic hook that dumps the ring to
/// `<dir>/flight-panic.jsonl` before delegating to the previous hook.
/// Idempotent; the dump is skipped when the recorder is disabled or
/// empty, and any I/O error is swallowed (a panic hook must not panic).
pub fn install_panic_hook(dir: &std::path::Path) {
    if HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let dir = dir.to_path_buf();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if is_enabled() {
            let snap = snapshot();
            if !snap.events.is_empty() {
                let _ = std::fs::create_dir_all(&dir);
                let path = dir.join("flight-panic.jsonl");
                if std::fs::write(&path, dump_json_lines(&snap)).is_ok() {
                    eprintln!(
                        "flight recorder dumped {} events to {}",
                        snap.events.len(),
                        path.display()
                    );
                }
            }
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let _g = test_lock();
        disable();
        reset();
        record(FlightKind::Marker, 1, 2, 3, 4);
        assert_eq!(snapshot().events.len(), 0);
        assert_eq!(snapshot().recorded, 0);
    }

    #[test]
    fn events_come_back_in_ticket_order_with_payload() {
        let _g = test_lock();
        enable();
        reset();
        for i in 0..100u64 {
            record(FlightKind::Arrived, i, NONE, i * 10, i * 11);
        }
        let snap = snapshot();
        disable();
        reset();
        assert_eq!(snap.recorded, 100);
        assert_eq!(snap.overwritten, 0);
        assert_eq!(snap.events.len(), 100);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.ticket, i as u64);
            assert_eq!(e.key, i as u64);
            assert_eq!(e.a, i as u64 * 10);
            assert_eq!(e.b, i as u64 * 11);
            assert_eq!(e.kind, FlightKind::Arrived);
        }
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let _g = test_lock();
        enable();
        reset();
        let n = (CAPACITY + 1000) as u64;
        for i in 0..n {
            record(FlightKind::Marker, i, NONE, i, 0);
        }
        let snap = snapshot();
        disable();
        reset();
        assert_eq!(snap.recorded, n);
        assert_eq!(snap.events.len(), CAPACITY);
        assert_eq!(snap.overwritten, 1000);
        // The survivors are exactly the newest CAPACITY tickets.
        assert_eq!(snap.events.first().unwrap().ticket, 1000);
        assert_eq!(snap.events.last().unwrap().ticket, n - 1);
        for e in &snap.events {
            assert_eq!(e.key, e.ticket, "payload must match its ticket");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for k in FlightKind::ALL {
            assert_eq!(FlightKind::from_name(k.name()), Some(k));
            assert_eq!(FlightKind::from_tag(k as u64), Some(k));
        }
        assert_eq!(FlightKind::from_name("nope"), None);
        assert_eq!(FlightKind::from_tag(999), None);
    }

    #[test]
    fn dump_round_trips_including_none_fields() {
        let snap = FlightSnapshot {
            events: vec![
                FlightEvent {
                    ticket: 0,
                    ts_us: 5,
                    kind: FlightKind::Generated,
                    key: 7,
                    tenant: NONE,
                    a: 3,
                    b: 0,
                },
                FlightEvent {
                    ticket: 1,
                    ts_us: 9,
                    kind: FlightKind::Admitted,
                    key: 7,
                    tenant: 12,
                    a: 0,
                    b: 3,
                },
            ],
            recorded: 2,
            overwritten: 0,
        };
        let text = dump_json_lines(&snap);
        assert!(text.starts_with("{\"event\":\"meta\""));
        let back = dump_from_json_lines(&text).unwrap();
        assert_eq!(back.events, snap.events);
        assert_eq!(back.recorded, 2);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let text = "{\"event\":\"meta\",\"schema\":\"cpo-flight\",\"schema_version\":99}\n";
        assert!(dump_from_json_lines(text).unwrap_err().contains("99"));
    }

    #[test]
    fn strict_flag_toggles() {
        // Env var is absent in the test environment, so only the runtime
        // flag matters here.
        if std::env::var_os("CPO_STRICT_MONITORS").is_some() {
            return;
        }
        assert!(!strict_monitors());
        set_strict(true);
        assert!(strict_monitors());
        set_strict(false);
        assert!(!strict_monitors());
    }
}
