//! Decoder-hardening fuzz corpus: the columnar trace (`.cvtc`) and
//! windowed-schedule sidecar (`.cvsc`) decoders are fed truncated,
//! bit-flipped and length-lying inputs. Every case must either fail with
//! a [`TraceError`](cablevod_trace::TraceError) or decode data identical
//! to the uncorrupted original — never panic, never return silently
//! wrong records.

use proptest::prelude::*;

use cablevod_tests::{temp_path, TempFile};

use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::SimTime;
use cablevod_trace::columnar::{write_trace, ColumnarReader};
use cablevod_trace::schedule::{ScheduleSidecarReader, ScheduleSidecarWriter};
use cablevod_trace::synth::{generate, SynthConfig};

/// The three corruption families the corpus sweeps — truncation, a
/// single flipped bit, and an 8-byte "lie" (how a corrupt length,
/// offset or count field presents). `kind` picks the family, `at` the
/// fractional position, `value` the lie.
fn apply(bytes: &mut Vec<u8>, kind: usize, at: f64, value: u64) {
    let len = bytes.len();
    match kind {
        0 => bytes.truncate((len as f64 * at) as usize),
        1 => {
            let bit = ((len * 8 - 1) as f64 * at) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        _ => {
            let start = ((len.saturating_sub(8)) as f64 * at) as usize;
            bytes[start..start + 8].copy_from_slice(&value.to_le_bytes());
        }
    }
}

fn synth(seed: u64) -> SynthConfig {
    SynthConfig {
        users: 60,
        programs: 12,
        days: 2,
        seed,
        ..SynthConfig::smoke_test()
    }
}

/// Reference events for the sidecar corpus: per-neighborhood
/// time-ordered, interleaved across neighborhoods so chunks of different
/// neighborhoods mix in the file.
fn schedule_events(seed: u64) -> Vec<(u32, SimTime, ProgramId)> {
    (0..600u64)
        .map(|i| {
            let nbhd = ((i + seed) % 3) as u32;
            (
                nbhd,
                SimTime::from_secs(i * 7 + seed % 5),
                ProgramId::new(((i * 13 + seed) % 4) as u32),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Corrupted `.cvtc` files error or decode the original records.
    #[test]
    fn columnar_decoder_survives_corruption(
        seed in 0u64..500,
        kind in 0usize..3,
        at in 0.0..1.0f64,
        lie in 0u64..u64::MAX,
    ) {
        let trace = generate(&synth(seed));
        let path = TempFile(temp_path("cvtc"));
        // Small chunks so every corruption family can land mid-file.
        write_trace(&path.0, &trace, 128).expect("write valid trace");
        let mut bytes = std::fs::read(&path.0).expect("read trace back");
        apply(&mut bytes, kind, at, lie);
        std::fs::write(&path.0, &bytes).expect("write mutated trace");

        // Decoding may fail at open, at any chunk, or succeed — but a
        // success must reproduce the original records exactly.
        if let Ok(reader) = ColumnarReader::open(&path.0) {
            if let Ok(decoded) = reader.read_trace() {
                prop_assert_eq!(decoded.records(), trace.records());
            }
        }
    }

    /// The mmap and pread chunk backings are observationally identical
    /// over the same corruption corpus: identical records on success,
    /// identical error text on failure — a corrupt chunk must not behave
    /// differently just because the bytes arrive through a mapping.
    #[test]
    fn mmap_and_pread_backings_agree_under_corruption(
        seed in 0u64..500,
        kind in 0usize..3,
        at in 0.0..1.0f64,
        lie in 0u64..u64::MAX,
    ) {
        let trace = generate(&synth(seed));
        let path = TempFile(temp_path("cvtc_mm"));
        write_trace(&path.0, &trace, 128).expect("write valid trace");
        let mut bytes = std::fs::read(&path.0).expect("read trace back");
        apply(&mut bytes, kind, at, lie);
        std::fs::write(&path.0, &bytes).expect("write mutated trace");

        let via_mmap = ColumnarReader::open(&path.0).and_then(|r| r.read_trace());
        let via_pread = ColumnarReader::open_pread(&path.0).and_then(|r| r.read_trace());
        match (via_mmap, via_pread) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.records(), b.records());
                prop_assert_eq!(a.records(), trace.records());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false,
                "backings disagree: mmap ok={} vs pread ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Corrupted `.cvsc` sidecars error or decode the original events.
    #[test]
    fn schedule_decoder_survives_corruption(
        seed in 0u64..500,
        kind in 0usize..3,
        at in 0.0..1.0f64,
        lie in 0u64..u64::MAX,
    ) {
        let events = schedule_events(seed);
        let path = TempFile(temp_path("cvsc"));
        let mut writer =
            ScheduleSidecarWriter::create(&path.0, 3, &[2, 1, 3, 2], 64).expect("create sidecar");
        for &(nbhd, time, program) in &events {
            writer.push(nbhd, time, program).expect("push valid event");
        }
        writer.finish().expect("finish sidecar");
        let mut bytes = std::fs::read(&path.0).expect("read sidecar back");
        apply(&mut bytes, kind, at, lie);
        std::fs::write(&path.0, &bytes).expect("write mutated sidecar");

        if let Ok(reader) = ScheduleSidecarReader::open(&path.0) {
            // Reassemble per-neighborhood streams; any chunk may fail.
            let mut out = Vec::new();
            'nbhd: for n in 0..3usize {
                let mut decoded = Vec::new();
                let mut chunk_events = Vec::new();
                for &chunk in reader.chunks_of(n) {
                    if reader.read_chunk(chunk as usize, &mut chunk_events).is_err() {
                        continue 'nbhd;
                    }
                    decoded.extend_from_slice(&chunk_events);
                }
                out.push((n as u32, decoded));
            }
            for (n, decoded) in out {
                let original: Vec<(SimTime, ProgramId)> = events
                    .iter()
                    .filter(|&&(nbhd, ..)| nbhd == n)
                    .map(|&(_, time, program)| (time, program))
                    .collect();
                prop_assert_eq!(decoded, original);
            }
        }
    }
}

/// A targeted (non-random) case: one flipped payload bit in an otherwise
/// pristine file must fail checksum verification naming the chunk — this
/// is the regression the CRC column exists for, since every header and
/// directory field would still parse cleanly.
#[test]
fn payload_bit_flip_is_caught_by_checksum() {
    let trace = generate(&synth(7));
    let path = TempFile(temp_path("cvtc_payload"));
    write_trace(&path.0, &trace, 128).expect("write valid trace");
    let reader = ColumnarReader::open(&path.0).expect("open pristine");
    let meta = reader.directory()[0];
    drop(reader);

    let mut bytes = std::fs::read(&path.0).expect("read back");
    // Flip a low bit of a duration column value: small enough to stay in
    // range, so only the checksum can notice.
    let flip_at = meta.file_offset as usize + 16 * meta.record_count as usize;
    bytes[flip_at] ^= 1;
    std::fs::write(&path.0, &bytes).expect("write mutated");

    let reader = ColumnarReader::open(&path.0).expect("directory still parses");
    let err = reader
        .read_trace()
        .expect_err("checksum must catch the flip");
    let message = err.to_string();
    assert!(
        message.contains("chunk 0") && message.contains("checksum"),
        "error should name the chunk and the checksum: {message}"
    );

    // The portable pread backing must report the identical failure.
    let reader = ColumnarReader::open_pread(&path.0).expect("directory still parses");
    let pread_message = reader
        .read_trace()
        .expect_err("checksum must catch the flip on the pread path too")
        .to_string();
    assert_eq!(
        message, pread_message,
        "mmap and pread paths must fail a corrupt chunk identically"
    );
}

/// Same targeted case for the sidecar format.
#[test]
fn schedule_payload_bit_flip_is_caught_by_checksum() {
    let events = schedule_events(3);
    let path = TempFile(temp_path("cvsc_payload"));
    let mut writer =
        ScheduleSidecarWriter::create(&path.0, 3, &[2, 1, 3, 2], 64).expect("create sidecar");
    for &(nbhd, time, program) in &events {
        writer.push(nbhd, time, program).expect("push valid event");
    }
    writer.finish().expect("finish sidecar");
    let reader = ScheduleSidecarReader::open(&path.0).expect("open pristine");
    let meta = reader.directory()[0];
    drop(reader);

    let mut bytes = std::fs::read(&path.0).expect("read back");
    // Flip a low bit of the first time value: the chunk still satisfies
    // every ordering check, so only the checksum can notice.
    bytes[meta.file_offset as usize] ^= 1;
    std::fs::write(&path.0, &bytes).expect("write mutated");

    let reader = ScheduleSidecarReader::open(&path.0).expect("directory still parses");
    let mut out = Vec::new();
    let err = reader
        .read_chunk(0, &mut out)
        .expect_err("checksum must catch the flip");
    let message = err.to_string();
    assert!(
        message.contains("chunk 0") && message.contains("checksum"),
        "error should name the chunk and the checksum: {message}"
    );
}
