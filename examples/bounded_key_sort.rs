//! Domain example: the MultiLists ordering procedure as a **general-purpose
//! parallel sort** for bounded integer keys, as the paper suggests
//! ("the proposed parallel MultiLists ordering algorithm can be used in
//! general parallel sorting problem when keys are in limited ranges", §4.3).
//!
//! Sorts a synthetic web-server access log by HTTP status code and by
//! response-time bucket, comparing against the standard library sort.
//!
//! ```text
//! cargo run --release --example bounded_key_sort
//! ```

use std::time::Instant;

use parapsp::order::sort::{sort_in_place_by_bounded_key, sorted_by_bounded_key, SortDirection};
use parapsp::parfor::ThreadPool;

#[derive(Debug, Clone)]
struct LogEntry {
    request_id: u64,
    status: u16,
    latency_ms: u32,
}

fn synthesize(n: usize) -> Vec<LogEntry> {
    // Deterministic pseudo-random log (no RNG dependency needed here).
    (0..n as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            LogEntry {
                request_id: i,
                status: match h % 100 {
                    0..=79 => 200,
                    80..=89 => 304,
                    90..=95 => 404,
                    96..=98 => 500,
                    _ => 503,
                },
                latency_ms: (h % 2_000) as u32,
            }
        })
        .collect()
}

fn main() {
    let entries = synthesize(1_000_000);
    let pool = ThreadPool::new(4);

    // Sort by latency (keys bounded by 2000 ms) — MultiLists territory.
    let start = Instant::now();
    let by_latency =
        sorted_by_bounded_key(&entries, |e| e.latency_ms, SortDirection::Descending, &pool);
    let ours = start.elapsed();

    let start = Instant::now();
    let mut std_sorted = entries.clone();
    std_sorted.sort_by_key(|e| std::cmp::Reverse(e.latency_ms));
    let std_time = start.elapsed();

    println!("sorting {} log entries by latency:", entries.len());
    println!("  MultiLists (4 threads): {ours:?}");
    println!("  std stable sort:        {std_time:?}");
    assert_eq!(by_latency.len(), entries.len());
    // Both sorts are stable, so the results must be identical.
    assert!(by_latency
        .iter()
        .zip(&std_sorted)
        .all(|(a, b)| a.request_id == b.request_id));
    println!(
        "  slowest request: #{} at {} ms (status {})",
        by_latency[0].request_id, by_latency[0].latency_ms, by_latency[0].status
    );

    // Group by status code in place (tiny key range).
    let mut entries = entries;
    sort_in_place_by_bounded_key(
        &mut entries,
        |e| e.status as u32,
        SortDirection::Ascending,
        &pool,
    );
    println!("\nentries grouped by status code:");
    let mut i = 0;
    while i < entries.len() {
        let status = entries[i].status;
        let j = entries[i..]
            .iter()
            .take_while(|e| e.status == status)
            .count();
        println!("  {status}: {j} requests");
        i += j;
    }
}
