//! Property tests: the flight-dump JSONL codec must round-trip arbitrary
//! event streams exactly — the post-mortem path (`dump → parse →
//! reconstruct`) sees precisely what the in-process path (`snapshot →
//! reconstruct`) saw.

use cpo_obs::flight::{
    dump_from_json_lines, dump_json_lines, FlightEvent, FlightKind, FlightSnapshot, NONE,
};
use cpo_obs::timeline::reconstruct;
use proptest::prelude::*;

/// A random event stream with ascending tickets. Keys and tenants land
/// in a small range (realistic collisions) or the `NONE` sentinel; the
/// payload words cover the full u64 range including values beyond f64's
/// integer precision, which the codec must keep exact.
fn arb_events() -> impl Strategy<Value = Vec<FlightEvent>> {
    collection::vec(
        (
            0usize..FlightKind::ALL.len(),
            0u64..40,
            0u64..40,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
        ),
        0..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (ki, key, tenant, a, b, ts_us))| FlightEvent {
                ticket: i as u64,
                ts_us,
                kind: FlightKind::ALL[ki],
                key: if key >= 30 { NONE } else { key },
                tenant: if tenant >= 30 { NONE } else { tenant },
                a,
                b,
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn dump_roundtrips_exactly(events in arb_events()) {
        let snap = FlightSnapshot {
            recorded: events.len() as u64 + 3,
            overwritten: 3,
            events,
        };
        let text = dump_json_lines(&snap);
        let back = dump_from_json_lines(&text).expect("own dump must parse");
        prop_assert_eq!(back.events, snap.events);
        prop_assert_eq!(back.recorded, snap.recorded);
        prop_assert_eq!(back.overwritten, snap.overwritten);
    }

    #[test]
    fn reconstruction_commutes_with_the_dump(events in arb_events()) {
        // snapshot → dump → parse → reconstruct == snapshot → reconstruct
        let snap = FlightSnapshot {
            recorded: events.len() as u64,
            overwritten: 0,
            events,
        };
        let direct = reconstruct(&snap.events);
        let parsed = dump_from_json_lines(&dump_json_lines(&snap)).unwrap();
        let via_dump = reconstruct(&parsed.events);
        prop_assert_eq!(direct.timelines, via_dump.timelines);
        prop_assert_eq!(direct.orphans, via_dump.orphans);
    }
}

#[test]
fn headerless_dump_is_accepted() {
    let text = "{\"ticket\":0,\"ts_us\":5,\"kind\":\"generated\",\"key\":1,\"tenant\":null,\"a\":2,\"b\":0}\n";
    let snap = dump_from_json_lines(text).unwrap();
    assert_eq!(snap.events.len(), 1);
    assert_eq!(snap.events[0].kind, FlightKind::Generated);
    assert_eq!(snap.events[0].tenant, NONE);
}

#[test]
fn future_schema_versions_are_rejected() {
    let text = "{\"event\":\"meta\",\"schema\":\"cpo-flight\",\"schema_version\":999,\"recorded\":0,\"overwritten\":0}\n";
    assert!(dump_from_json_lines(text).is_err());
}
