//! Checkpoint-journal hardening corpus (the `tests/fuzz_decoders.rs`
//! treatment for `.cvj` files): journals are fed truncations, single
//! flipped bits, and mid-record byte lies. Every case must either load
//! a valid prefix of the original records (torn tails are dropped) or
//! fail cleanly — never panic, and **never** return a cell that differs
//! from what was journaled.

use proptest::prelude::*;

use cablevod_tests::{temp_path, TempFile};

use cablevod_cache::IndexStats;
use cablevod_hfc::meter::RateStats;
use cablevod_hfc::units::{BitRate, DataSize};
use cablevod_sim::{
    CellKey, CellRecord, CheckpointJournal, DegradationReport, JournalHeader,
    NeighborhoodDegradation, SimReport,
};

/// A fully-populated synthetic report — every field nonzero-ish and
/// salt-dependent, so corruption anywhere in a record is visible.
fn sample_report(salt: u64) -> SimReport {
    let rate = |n: u64| BitRate::from_bps(n.wrapping_mul(salt + 1));
    let stats = |base: u64| RateStats {
        mean: rate(base),
        q05: rate(base / 2),
        q95: rate(base * 2),
        max: rate(base * 3),
        samples: (base % 97) as usize,
    };
    let mut server_hourly = [BitRate::ZERO; 24];
    for (hour, slot) in server_hourly.iter_mut().enumerate() {
        *slot = rate(hour as u64 * 1000 + 1);
    }
    SimReport {
        server_peak: stats(1_000_000),
        server_total: DataSize::from_bits(salt * 12_345 + 8),
        server_hourly,
        coax_peak: stats(500_000),
        coax_per_neighborhood: (0..4).map(|n| rate(n * 77 + 3)).collect(),
        cache: IndexStats {
            hits: salt,
            miss_uncached: salt + 1,
            miss_not_materialized: salt + 2,
            miss_peer_busy: salt + 3,
            admissions: salt + 4,
            evictions: salt + 5,
            capture_fills: salt + 6,
            delayed_hits: salt + 7,
            inflight_misses: salt + 8,
        },
        sessions: salt * 100 + 7,
        segment_requests: salt * 1000 + 11,
        viewer_overcommits: salt % 13,
        degradation: salt.is_multiple_of(2).then(|| DegradationReport {
            blocked_sessions: salt,
            interrupted_sessions: salt + 1,
            retries: salt * 3,
            retry_histogram: vec![salt, salt / 2, 0, 1],
            per_neighborhood: (0..2)
                .map(|n| NeighborhoodDegradation {
                    blocked_sessions: n + salt,
                    interrupted_sessions: n,
                    retries: n * 2,
                    outage_secs: n * 3600,
                    recoveries_measured: n % 2,
                    recovery_lag_total_secs: n * 5,
                    recovery_lag_max_secs: n * 4,
                })
                .collect(),
        }),
        measured_from_day: 1,
        measured_to_day: 3,
    }
}

fn record(point: u32, series: u32, salt: u64) -> CellRecord {
    CellRecord {
        key: CellKey { point, series },
        series: format!("series-{series}"),
        point: format!("point-{point}"),
        strategy: "LFU".into(),
        threads: 1,
        report: sample_report(salt),
    }
}

/// Writes a valid journal with `cells` records and returns its bytes.
fn build_journal(tag: &str, seed: u64, cells: u32) -> (JournalHeader, Vec<CellRecord>, Vec<u8>) {
    let path = temp_path(tag);
    let guard = TempFile(path.clone());
    let header = JournalHeader {
        scenario: format!("fuzz-{seed}"),
        fingerprint: (seed as u32).wrapping_mul(0x9E37_79B9),
        cells: cells * 2,
    };
    let mut journal = CheckpointJournal::create(&path, header.clone()).expect("creates");
    let mut records = Vec::new();
    for i in 0..cells {
        let rec = record(i, i % 2, seed.wrapping_add(u64::from(i)));
        journal.append(rec.clone()).expect("appends");
        records.push(rec);
    }
    let bytes = std::fs::read(&path).expect("reads back");
    drop(guard);
    (header, records, bytes)
}

/// The three corruption families (mirrors `tests/fuzz_decoders.rs`):
/// truncation, a single flipped bit, and an 8-byte lie.
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

/// Loads corrupted bytes as a journal; on success the result must be a
/// valid prefix of the original journal.
fn assert_prefix_or_error(
    tag: &str,
    header: &JournalHeader,
    records: &[CellRecord],
    bytes: Vec<u8>,
) {
    let path = temp_path(tag);
    let _guard = TempFile(path.clone());
    std::fs::write(&path, bytes).expect("writes corrupt journal");
    match CheckpointJournal::load(&path) {
        Err(_) => {}
        Ok(journal) => {
            assert_eq!(journal.header(), header, "header must survive exactly");
            let got = journal.cells();
            assert!(got.len() <= records.len(), "corruption cannot invent cells");
            assert_eq!(
                got,
                &records[..got.len()],
                "loaded cells must be a byte-exact prefix of the original"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random corruption anywhere in the journal: load gives a valid
    /// prefix or a clean error, never a panic, never a mutated cell.
    #[test]
    fn corrupted_journals_never_yield_wrong_cells(
        seed in 0u64..500,
        cells in 1u32..6,
        kind in 0usize..3,
        at in 0.0..1.0f64,
        lie in 0u64..u64::MAX,
    ) {
        let (header, records, mut bytes) = build_journal("corpus", seed, cells);
        apply(&mut bytes, kind, at, lie);
        assert_prefix_or_error("corpus_load", &header, &records, bytes);
    }
}

/// A journal truncated mid-way through its final record drops exactly
/// that record — the torn-tail rule.
#[test]
fn torn_tail_drops_only_the_last_record() {
    let (header, records, bytes) = build_journal("tail", 9, 3);
    // Cut into the last line: the journal has a header line plus three
    // record lines; chop 10 bytes so the final newline and CRC frame
    // cannot validate.
    let cut = bytes.len() - 10;
    let torn = bytes[..cut].to_vec();
    let path = temp_path("tail_load");
    let _guard = TempFile(path.clone());
    std::fs::write(&path, torn).expect("writes torn journal");
    let journal = CheckpointJournal::load(&path).expect("torn tail is tolerated");
    assert_eq!(journal.header(), &header);
    assert_eq!(journal.cells(), &records[..2], "only the torn record drops");
}

/// A bit flip in an *interior* record is mid-journal corruption: the
/// loader must refuse the whole file rather than skip a cell.
#[test]
fn interior_bit_flip_refuses_the_journal() {
    let (_, _, mut bytes) = build_journal("interior", 4, 3);
    // Find the second line (first cell record) and flip a bit in its
    // JSON body.
    let first_nl = bytes.iter().position(|&b| b == b'\n').expect("header line");
    bytes[first_nl + 40] ^= 0x01;
    let path = temp_path("interior_load");
    let _guard = TempFile(path.clone());
    std::fs::write(&path, bytes).expect("writes corrupt journal");
    let err = CheckpointJournal::load(&path).expect_err("interior corruption refused");
    assert!(err.to_string().contains("mid-journal"), "got {err}");
}

/// An empty or header-only journal loads cleanly with zero cells.
#[test]
fn header_only_journal_loads_empty() {
    let path = temp_path("empty");
    let _guard = TempFile(path.clone());
    let header = JournalHeader {
        scenario: "empty".into(),
        fingerprint: 7,
        cells: 4,
    };
    CheckpointJournal::create(&path, header.clone()).expect("creates");
    let journal = CheckpointJournal::load(&path).expect("loads");
    assert_eq!(journal.header(), &header);
    assert!(journal.cells().is_empty());
}

/// A journal whose header line itself is torn fails cleanly.
#[test]
fn torn_header_errors_cleanly() {
    let (_, _, bytes) = build_journal("noheader", 2, 1);
    let path = temp_path("noheader_load");
    let _guard = TempFile(path.clone());
    // Keep only half of the header line.
    let first_nl = bytes.iter().position(|&b| b == b'\n').expect("header line");
    std::fs::write(&path, &bytes[..first_nl / 2]).expect("writes torn header");
    assert!(CheckpointJournal::load(&path).is_err());
}
