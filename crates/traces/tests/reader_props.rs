//! Property tests of the CSV trace readers over arbitrary bytes.
//!
//! Each input is a valid Azure or Huawei header followed by random
//! bytes, salted with commas, digits, newlines and well-formed rows so
//! that some rows parse. Both readers run under both malformed-row
//! policies, bare and inside [`Sorted`]. They must never panic, every
//! [`TraceError::MalformedRow`] must name a data line of the input, and
//! every non-blank data line must come out as exactly one event, one
//! error or one skipped row.

use cpo_traces::prelude::*;
use proptest::prelude::*;
use std::io::Cursor;

const AZURE_HEADER: &[u8] = b"vm_id,vm_created,vm_deleted,core_count,memory_gb\n";
const AZURE_ROW: &[u8] = b"v,7,60,2,4\n";
const HUAWEI_HEADER: &[u8] = b"id,cpu,memory_mb,disk_gb,start_time,duration\n";
const HUAWEI_ROW: &[u8] = b"0,1,1024,10,3,60\n";

/// One token of the random body: a raw byte, a CSV-ish byte, or a
/// whole well-formed row of the schema.
fn token(huawei: bool, (kind, byte): (u8, u8)) -> Vec<u8> {
    match kind {
        0..=2 => vec![byte],
        3 => vec![b'\n'],
        4 => vec![b','],
        5 => vec![b'0' + byte % 10],
        6 => if huawei { HUAWEI_ROW } else { AZURE_ROW }.to_vec(),
        _ => vec![[b'\r', b'.', b'-', b' '][usize::from(byte % 4)]],
    }
}

/// `(huawei, input)`: a valid header plus the random body.
fn input() -> impl Strategy<Value = (bool, Vec<u8>)> {
    (0u8..2, collection::vec((0u8..8, 0u8..=255), 0..300)).prop_map(|(schema, tokens)| {
        let huawei = schema == 1;
        let mut bytes = if huawei { HUAWEI_HEADER } else { AZURE_HEADER }.to_vec();
        for t in tokens {
            bytes.extend(token(huawei, t));
        }
        (huawei, bytes)
    })
}

fn open(huawei: bool, bytes: &[u8], policy: MalformedPolicy) -> Box<dyn DatasetReader> {
    let input = Cursor::new(bytes.to_vec());
    if huawei {
        Box::new(HuaweiReader::new(input, policy).expect("valid header"))
    } else {
        Box::new(AzureReader::new(input, policy).expect("valid header"))
    }
}

/// What draining a reader to the end produced.
#[derive(Debug, Default)]
struct Drained {
    events: usize,
    errors: usize,
    malformed_lines: Vec<usize>,
    skipped: usize,
}

fn drain(mut reader: Box<dyn DatasetReader>, max_items: usize) -> Drained {
    let mut out = Drained::default();
    while let Some(item) = reader.next_event() {
        match item {
            Ok(_) => out.events += 1,
            Err(TraceError::MalformedRow { line, .. }) => {
                out.errors += 1;
                out.malformed_lines.push(line);
            }
            Err(TraceError::OutOfOrder { .. }) => out.errors += 1,
            Err(other) => panic!("unexpected error from an in-memory input: {other:?}"),
        }
        assert!(
            out.events + out.errors <= max_items,
            "reader does not terminate"
        );
    }
    out.skipped = reader.skipped_rows();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn readers_account_for_every_line_of_arbitrary_bytes((huawei, bytes) in input()) {
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        // `split` yields an empty tail after a final newline.
        let line_count = lines.len() - usize::from(bytes.last() == Some(&b'\n'));
        let data_lines = lines[1..]
            .iter()
            .filter(|l| !l.trim_ascii().is_empty())
            .count();
        for policy in [MalformedPolicy::Skip, MalformedPolicy::Fail] {
            for sorted in [false, true] {
                let reader = open(huawei, &bytes, policy);
                let reader = if sorted {
                    Box::new(Sorted::new(reader, 4))
                } else {
                    reader
                };
                let out = drain(reader, data_lines);
                for &line in &out.malformed_lines {
                    prop_assert!(
                        (2..=line_count).contains(&line),
                        "malformed line {line} outside 2..={line_count} ({policy:?}, sorted={sorted})"
                    );
                }
                if !sorted {
                    prop_assert!(
                        out.malformed_lines.windows(2).all(|w| w[0] < w[1]),
                        "line numbers must increase: {:?}",
                        out.malformed_lines
                    );
                }
                if policy == MalformedPolicy::Skip {
                    prop_assert!(out.malformed_lines.is_empty(), "Skip surfaced a malformed row");
                } else {
                    prop_assert_eq!(out.skipped, 0);
                }
                prop_assert_eq!(
                    out.skipped + out.events + out.errors,
                    data_lines,
                    "{:?} under {:?}, sorted={}",
                    out,
                    policy,
                    sorted
                );
            }
        }
    }
}
