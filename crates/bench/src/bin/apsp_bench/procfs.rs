//! Process resource readings from `/proc` (Linux).

/// `AT_CLKTCK` in the auxiliary vector: the unit of `/proc/*/stat` times.
const AT_CLKTCK: u64 = 17;

/// Peak resident set (`VmHWM`) of this process in KiB; 0 without procfs.
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU seconds this process has used — user and system time of all its
/// threads plus that of every child it has reaped (the dist workers).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces:
    // index 0 is field 3 (state), so utime..cstime (fields 14–17) are 11..15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / clock_ticks_per_second() as f64
}

/// `sysconf(_SC_CLK_TCK)` without libc: read from the auxiliary vector.
fn clock_ticks_per_second() -> u64 {
    let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |bytes: &[u8]| u64::from_ne_bytes(bytes.try_into().expect("8 bytes"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map(|(_, value)| value)
        .filter(|&hz| hz > 0)
        .unwrap_or(100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_live() {
        assert!(vm_hwm_kb() > 0);
        assert!((1..=10_000).contains(&clock_ticks_per_second()));
        let before = cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
    }
}
