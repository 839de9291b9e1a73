//! Loop-scheduling policies mirroring the OpenMP `schedule` clause.

/// How iterations of a [`ThreadPool::parallel_for`](crate::ThreadPool::parallel_for)
/// loop are assigned to worker threads.
///
/// The three variants correspond one-to-one to the schemes evaluated in the
/// paper's Figure 1 (scheduling-scheme effect on ParAlg2):
///
/// | Paper name       | OpenMP clause            | Variant                 |
/// |------------------|--------------------------|-------------------------|
/// | block partition  | default `parallel for`   | [`Schedule::Block`]     |
/// | static-cyclic    | `schedule(static, 1)`    | [`Schedule::StaticCyclic`] |
/// | dynamic-cyclic   | `schedule(dynamic, 1)`   | [`Schedule::DynamicChunked`]`(1)` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Each thread receives one contiguous block of iterations
    /// (OpenMP's default static partitioning).
    Block,
    /// Iteration `i` is executed by thread `i mod num_threads`
    /// (`schedule(static, 1)`).
    StaticCyclic,
    /// Threads claim the next `chunk` iterations from a shared atomic
    /// counter (`schedule(dynamic, chunk)`). With `chunk == 1` this is the
    /// paper's *dynamic-cyclic* scheme: the global claim order is exactly
    /// the iteration order, so a degree-sorted loop issues sources in the
    /// intended order.
    DynamicChunked(usize),
}

impl Schedule {
    /// The paper's preferred scheme, `schedule(dynamic, 1)`.
    #[inline]
    pub const fn dynamic_cyclic() -> Self {
        Schedule::DynamicChunked(1)
    }

    /// A short stable label used by benchmark reports.
    pub fn label(&self) -> String {
        match self {
            Schedule::Block => "block".to_owned(),
            Schedule::StaticCyclic => "static-cyclic".to_owned(),
            Schedule::DynamicChunked(1) => "dynamic-cyclic".to_owned(),
            Schedule::DynamicChunked(c) => format!("dynamic({c})"),
        }
    }
}

/// Parses the CLI spelling of a schedule: `block`, `static-cyclic`,
/// `dynamic-cyclic`, or `dynamic:<chunk>`.
///
/// ```
/// use parapsp_parfor::Schedule;
/// assert_eq!("dynamic:4".parse(), Ok(Schedule::DynamicChunked(4)));
/// assert_eq!("dynamic-cyclic".parse(), Ok(Schedule::dynamic_cyclic()));
/// ```
impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        const POSSIBLE: &[&str] = &[
            "block",
            "static-cyclic",
            "dynamic-cyclic",
            "dynamic:<chunk>",
        ];
        let (name, param) = crate::spec::split_spec(raw);
        match name {
            "block" | "static-cyclic" | "dynamic-cyclic" if param.is_some() => {
                Err(crate::spec::reject_param("schedule", name))
            }
            "block" => Ok(Schedule::Block),
            "static-cyclic" => Ok(Schedule::StaticCyclic),
            "dynamic-cyclic" => Ok(Schedule::dynamic_cyclic()),
            "dynamic" => {
                let chunk = crate::spec::parse_positive_param("schedule", name, param)?;
                Ok(Schedule::DynamicChunked(chunk))
            }
            _ => Err(crate::spec::reject_unknown("schedule", raw, POSSIBLE)),
        }
    }
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::dynamic_cyclic()
    }
}

/// Splits `0..n` into `parts` contiguous blocks and returns the half-open
/// range assigned to block `idx`.
///
/// The first `n % parts` blocks receive one extra element, matching the
/// usual OpenMP static partitioning, so block sizes differ by at most one.
///
/// ```
/// use parapsp_parfor::block_range;
/// assert_eq!(block_range(10, 4, 0), 0..3);
/// assert_eq!(block_range(10, 4, 1), 3..6);
/// assert_eq!(block_range(10, 4, 2), 6..8);
/// assert_eq!(block_range(10, 4, 3), 8..10);
/// ```
#[inline]
pub fn block_range(n: usize, parts: usize, idx: usize) -> std::ops::Range<usize> {
    assert!(parts > 0, "cannot split a range into zero parts");
    assert!(
        idx < parts,
        "block index {idx} out of range for {parts} parts"
    );
    let base = n / parts;
    let extra = n % parts;
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything_exactly_once() {
        for n in [0usize, 1, 2, 7, 16, 100, 101] {
            for parts in 1..=9usize {
                let mut seen = vec![false; n];
                let mut prev_end = 0;
                for idx in 0..parts {
                    let r = block_range(n, parts, idx);
                    assert_eq!(r.start, prev_end, "blocks must be contiguous");
                    prev_end = r.end;
                    for i in r {
                        assert!(!seen[i]);
                        seen[i] = true;
                    }
                }
                assert_eq!(prev_end, n);
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        for n in [1usize, 5, 10, 97] {
            for parts in 1..=8usize {
                let sizes: Vec<usize> =
                    (0..parts).map(|i| block_range(n, parts, i).len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} parts={parts} sizes={sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        let _ = block_range(10, 0, 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Schedule::Block.label(), "block");
        assert_eq!(Schedule::StaticCyclic.label(), "static-cyclic");
        assert_eq!(Schedule::dynamic_cyclic().label(), "dynamic-cyclic");
        assert_eq!(Schedule::DynamicChunked(8).label(), "dynamic(8)");
    }

    #[test]
    fn from_str_accepts_every_cli_spelling() {
        assert_eq!("block".parse(), Ok(Schedule::Block));
        assert_eq!("static-cyclic".parse(), Ok(Schedule::StaticCyclic));
        assert_eq!("dynamic-cyclic".parse(), Ok(Schedule::DynamicChunked(1)));
        assert_eq!("dynamic:4".parse(), Ok(Schedule::DynamicChunked(4)));
    }

    #[test]
    fn from_str_rejects_malformed_specs() {
        for bad in [
            "warp",
            "dynamic",
            "dynamic:0",
            "dynamic:lots",
            "guided:2",
            "work-stealing",
            "work-stealing:16",
            "block:4",
            "dynamic-cyclic:2",
            "",
        ] {
            let err = bad.parse::<Schedule>().unwrap_err();
            assert!(err.contains("schedule"), "{bad}: {err}");
        }
    }

    #[test]
    fn default_is_dynamic_cyclic() {
        assert_eq!(Schedule::default(), Schedule::DynamicChunked(1));
    }
}
