//! Torn-write safety of the run ledger.
//!
//! The ledger's crash model: the process (or the machine) dies at an
//! arbitrary byte boundary mid-append. Recovery must replay exactly the
//! longest prefix of fully-written records — never a partial row, never a
//! corrupted one — and the file must keep working as a ledger afterwards.

use proptest::prelude::*;

use parapsp::core::persist::{self, FsyncPolicy, RowLedger};

/// Fixed ledger header: magic (4) + version (1) + n (8) + run id (8) +
/// epoch (4).
const HEADER_LEN: usize = 25;

/// Every record of an `n`-vertex ledger has the same framing: source id
/// (4) + payload length (4) + payload (4·n) + CRC-32C checksum (4).
fn record_len(n: usize) -> usize {
    4 + 4 + 4 * n + 4
}

/// A deterministic, distinctive row for `source` in an `n`-vertex run.
fn row_for(n: usize, source: u32, salt: u64) -> Vec<u32> {
    (0..n as u32)
        .map(|v| {
            (salt as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(source * 7919 + v * 31)
                % 100_000
        })
        .collect()
}

fn workdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("parapsp-ledger-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Truncating a ledger at ANY byte offset recovers a valid prefix of
    // the appended rows — bit-exact payloads, in order, nothing past the
    // cut — and the reopened ledger accepts further appends that survive
    // a subsequent clean recovery.
    #[test]
    fn truncation_at_any_offset_recovers_a_valid_prefix(
        n in 1usize..16,
        rows in 1usize..12,
        salt in any::<u64>(),
        cut_fraction in 0.0f64..=1.0,
    ) {
        let rows = rows.min(n);
        let path = workdir().join(format!("torn-{salt:x}-{n}-{rows}.ledger"));
        std::fs::remove_file(&path).ok();

        let mut ledger = RowLedger::create(&path, n, FsyncPolicy::Never)
            .expect("create ledger");
        for s in 0..rows as u32 {
            ledger.append(s, &row_for(n, s, salt)).expect("append");
        }
        ledger.finish().expect("finish");

        // Chop the file at an arbitrary byte offset — the crash.
        let bytes = std::fs::read(&path).expect("read ledger back");
        prop_assert_eq!(bytes.len(), HEADER_LEN + rows * record_len(n));
        let cut = (cut_fraction * bytes.len() as f64) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        if cut < HEADER_LEN {
            // A torn *header* means creation itself never completed; the
            // only safe answer is a refusal (empty files start fresh).
            let result = RowLedger::open(&path, n, FsyncPolicy::Never);
            if cut == 0 {
                let (_, recovered) = result.expect("an empty file starts fresh");
                prop_assert!(recovered.is_none(), "an empty file replays nothing");
            } else {
                prop_assert!(result.is_err(), "a torn header must not open");
            }
            std::fs::remove_file(&path).ok();
            return Ok(());
        }

        // Recovery: exactly the fully-written records, bit-exact.
        let intact = ((cut - HEADER_LEN) / record_len(n)).min(rows);
        let (mut ledger, recovered) = RowLedger::open(&path, n, FsyncPolicy::Never)
            .expect("recover the torn ledger");
        // No replayed record, no checkpoint: nothing n² is allocated.
        prop_assert_eq!(recovered.is_some(), intact > 0);
        let completed = recovered.as_ref().map_or(vec![false; n], |cp| cp.completed().to_vec());
        prop_assert_eq!(completed.iter().filter(|&&done| done).count(), intact);
        for s in 0..n as u32 {
            let done = completed[s as usize];
            prop_assert_eq!(done, (s as usize) < intact, "source {}", s);
            if done {
                let expected = row_for(n, s, salt);
                prop_assert_eq!(
                    recovered.as_ref().expect("a row replayed").matrix().row(s),
                    expected.as_slice(),
                    "recovered row {} must be bit-exact", s
                );
            }
        }

        // The recovered ledger keeps appending: complete the missing rows
        // and a second recovery sees every row.
        for s in intact as u32..n as u32 {
            ledger.append(s, &row_for(n, s, salt)).expect("append after recovery");
        }
        ledger.finish().expect("finish after recovery");
        let (_, full) = RowLedger::open(&path, n, FsyncPolicy::Never)
            .expect("reopen the completed ledger");
        let full = full.expect("every row replays");
        prop_assert!(full.is_complete());
        for s in 0..n as u32 {
            let expected = row_for(n, s, salt);
            prop_assert_eq!(full.matrix().row(s), expected.as_slice());
        }
        std::fs::remove_file(&path).ok();
    }

    // A flipped byte anywhere in the record region stops replay at (or
    // before) the damaged record — recovery never serves a row that
    // fails its checksum.
    #[test]
    fn corruption_never_yields_a_corrupted_row(
        n in 2usize..12,
        salt in any::<u64>(),
        flip_at_fraction in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let rows = n.min(8);
        let path = workdir().join(format!("flip-{salt:x}-{n}.ledger"));
        std::fs::remove_file(&path).ok();

        let mut ledger = RowLedger::create(&path, n, FsyncPolicy::Never)
            .expect("create ledger");
        for s in 0..rows as u32 {
            ledger.append(s, &row_for(n, s, salt)).expect("append");
        }
        ledger.finish().expect("finish");

        let mut bytes = std::fs::read(&path).expect("read ledger back");
        let body = bytes.len() - HEADER_LEN;
        let flip_at = (HEADER_LEN + (flip_at_fraction * body as f64) as usize)
            .min(bytes.len() - 1);
        bytes[flip_at] ^= 1 << flip_bit;
        std::fs::write(&path, &bytes).expect("write corrupted ledger");

        let damaged_record = (flip_at - HEADER_LEN) / record_len(n);
        let (_, recovered) = RowLedger::open(&path, n, FsyncPolicy::Never)
            .expect("recovery handles corruption by stopping, not failing");
        // Replay stops at the first record whose checksum (or framing)
        // disagrees — CRC-32C over (source, payload) detects every
        // single-bit flip, so exactly the records before the damage
        // survive, bit-exact, and nothing after the damage is trusted.
        prop_assert_eq!(recovered.is_some(), damaged_record > 0);
        let completed = recovered.as_ref().map_or(vec![false; n], |cp| cp.completed().to_vec());
        prop_assert_eq!(completed.iter().filter(|&&done| done).count(), damaged_record);
        for s in 0..rows as u32 {
            let done = completed[s as usize];
            prop_assert_eq!(done, (s as usize) < damaged_record, "source {}", s);
            if done {
                let expected = row_for(n, s, salt);
                prop_assert_eq!(
                    recovered.as_ref().expect("a row replayed").matrix().row(s),
                    expected.as_slice(),
                    "a recovered row must never be corrupted (source {})", s
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The ledger writer's batched checksum is CRC-32C row by row: batches
    // of 0..=9 rows (every remainder of 4) with mixed lengths 0..=40 and
    // INF cells checksum exactly as `row_checksum` does per row.
    #[test]
    fn batched_checksums_equal_row_by_row_checksums(
        rows in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(
                (0u32..4, any::<u32>()).prop_map(|(kind, v)| if kind == 0 { u32::MAX } else { v }),
                0..=40,
            )),
            0..=9,
        ),
    ) {
        let batch: Vec<(u32, &[u32])> = rows.iter().map(|(s, row)| (*s, row.as_slice())).collect();
        let sums = persist::row_checksums(&batch);
        prop_assert_eq!(sums.len(), batch.len());
        for (&(source, row), &sum) in batch.iter().zip(&sums) {
            prop_assert_eq!(sum, persist::row_checksum(source, row), "source {}", source);
        }
    }

    // A ledger written through the batched path holds the bytes per-row
    // appends would have written (bar the run id in the header), and
    // recovery replays every one of its records.
    #[test]
    fn batched_ledger_matches_per_row_appends_and_replays_fully(
        n in 1usize..24,
        batch_sizes in proptest::collection::vec(0usize..=9, 1..5),
        salt in any::<u64>(),
    ) {
        let dir = workdir();
        let per_row = dir.join(format!("per-row-{salt:x}-{n}.ledger"));
        let batched = dir.join(format!("batched-{salt:x}-{n}.ledger"));
        let mut a = RowLedger::create(&per_row, n, FsyncPolicy::Never).expect("create");
        let mut b = RowLedger::create(&batched, n, FsyncPolicy::Never).expect("create");
        let mut next = 0u32;
        for &size in &batch_sizes {
            // Sources wrap so long runs also cover duplicate records.
            let sources: Vec<u32> = (0..size as u32).map(|i| (next + i) % n as u32).collect();
            next += size as u32;
            let mut rows = Vec::new();
            for &s in &sources {
                let mut row = row_for(n, s, salt);
                row[(s as usize * 7) % n] = u32::MAX; // an INF cell
                a.append(s, &row).expect("append");
                rows.extend_from_slice(&row);
            }
            b.append_batch(&sources, &rows).expect("append_batch");
        }
        prop_assert_eq!(a.records(), b.records());
        a.finish().expect("finish");
        b.finish().expect("finish");
        let (bytes_a, bytes_b) = (std::fs::read(&per_row).unwrap(), std::fs::read(&batched).unwrap());
        // Header bytes 13..21 are the run id, minted per ledger.
        prop_assert_eq!(&bytes_a[..13], &bytes_b[..13]);
        prop_assert_eq!(&bytes_a[21..], &bytes_b[21..]);
        let records = (bytes_b.len() - HEADER_LEN) / record_len(n);
        prop_assert_eq!(records, batch_sizes.iter().sum::<usize>());
        let distinct = (next as usize).min(n);
        let (_, replay) = RowLedger::open(&batched, n, FsyncPolicy::Never).expect("open");
        let replayed = replay.map_or(0, |cp| cp.completed_count());
        prop_assert_eq!(replayed, distinct, "every record replays");
        // Reopening truncated nothing: every record was valid.
        prop_assert_eq!(std::fs::metadata(&batched).unwrap().len() as usize, bytes_b.len());
        std::fs::remove_file(&per_row).ok();
        std::fs::remove_file(&batched).ok();
    }
}
