//! Saving and loading distance matrices, plus partial-run checkpoints.
//!
//! An APSP run over a real dataset can take hours (the paper quotes
//! "several hours" for Flickr sequentially) — downstream analysis should
//! not have to recompute it, and a crashed run should not have to start
//! over. Three on-disk shapes:
//!
//! * **binary, version 1** — `PAPD` magic, format version, `n` as u64,
//!   then `n²` little-endian `u32`s. Compact and exact; ~4·n² bytes.
//! * **checkpoint, version 2** — same magic, version 2, `n`, the number
//!   of completed rows, a completed-row bitmap, then only the completed
//!   rows in ascending source order. A finished run's checkpoint is a
//!   complete matrix; a killed run's checkpoint resumes via
//!   [`crate::engine::Runner::run_resumed`].
//! * **run ledger, version 3** — same magic, version 3, `n`, a run id and
//!   driver epoch, then one *appended* framed record per completed row
//!   (source id, row length, payload, FNV-1a checksum). Unlike the
//!   checkpoint — a whole snapshot, written once when a run stops — the
//!   ledger grows by O(row) per completed row while the run goes, and
//!   recovery ([`RowLedger::open`]) truncates a torn tail and replays the
//!   longest valid prefix, so a crash mid-append loses at most the record
//!   being written.
//! * **TSV** — human-readable rows, `INF` spelled as `inf`; intended for
//!   spreadsheets and ad-hoc scripts on small matrices.
//!
//! Version skew is one-directional by design: [`read_checkpoint`] accepts
//! a version-1 full matrix (treated as "every row complete") and replays a
//! version-3 ledger (so `--resume` takes either artifact), while
//! [`read_binary`] rejects version-2/3 files so pre-checkpoint readers
//! fail loudly instead of misinterpreting a bitmap as distances.
//!
//! All readers treat the header as untrusted: payloads are read in
//! bounded chunks, so a tiny file whose header claims a multi-gigabyte
//! matrix fails with [`PersistError::Format`] instead of attempting the
//! allocation.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, BufWriter, IoSlice, Read, Write};
use std::path::{Path, PathBuf};

use parapsp_graph::INF;

use crate::dist::DistanceMatrix;
use crate::store::{cell_bytes, cell_bytes_mut};

const MAGIC: &[u8; 4] = b"PAPD";
const VERSION: u8 = 1;
const CHECKPOINT_VERSION: u8 = 2;
const LEDGER_VERSION: u8 = 3;

/// Bytes before the first ledger record: magic, version, `n`, run id,
/// epoch.
const LEDGER_HEADER_LEN: u64 = 4 + 1 + 8 + 8 + 4;
/// Byte offset of the epoch field inside the ledger header.
const LEDGER_EPOCH_OFFSET: u64 = 4 + 1 + 8 + 8;

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;

/// One FNV-1a step over the four little-endian bytes of `word`.
#[inline(always)]
fn fnv_word(mut hash: u32, word: u32) -> u32 {
    for byte in word.to_le_bytes() {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over a source id and its row payload (little-endian words).
///
/// The same checksum seals rows on the distributed wire and in the run
/// ledger, so a row gathered over the network and a row replayed from
/// disk are guarded by one algorithm.
pub fn row_checksum(source: u32, row: &[u32]) -> u32 {
    row.iter()
        .fold(fnv_word(FNV_OFFSET, source), |hash, &word| {
            fnv_word(hash, word)
        })
}

/// [`row_checksum`] of every `(source, row)` pair, in order — bit-identical
/// to calling it row by row.
///
/// FNV-1a is one serial multiply chain, so a single row runs at the
/// multiplier's latency. Here four rows advance in lockstep over their
/// common length: four independent chains the CPU overlaps, about three
/// times the throughput of the row-by-row loop. Longer rows finish their
/// tails alone, and a batch's last `len % 4` rows go row by row.
pub fn row_checksums(rows: &[(u32, &[u32])]) -> Vec<u32> {
    let mut sums = Vec::with_capacity(rows.len());
    let mut quads = rows.chunks_exact(4);
    for quad in &mut quads {
        let common = quad.iter().map(|(_, row)| row.len()).min().unwrap_or(0);
        let mut hash = [0u32; 4];
        for (hash, &(source, _)) in hash.iter_mut().zip(quad) {
            *hash = fnv_word(FNV_OFFSET, source);
        }
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| &quad[i].1[..common]);
        for (((&wa, &wb), &wc), &wd) in a.iter().zip(b).zip(c).zip(d) {
            hash = [
                fnv_word(hash[0], wa),
                fnv_word(hash[1], wb),
                fnv_word(hash[2], wc),
                fnv_word(hash[3], wd),
            ];
        }
        for (hash, &(_, row)) in hash.iter_mut().zip(quad) {
            *hash = row[common..]
                .iter()
                .fold(*hash, |hash, &word| fnv_word(hash, word));
        }
        sums.extend_from_slice(&hash);
    }
    sums.extend(
        quads
            .remainder()
            .iter()
            .map(|&(source, row)| row_checksum(source, row)),
    );
    sums
}

/// The little-endian bytes of a row of cells: a view of the row itself on
/// little-endian hosts, a converted copy elsewhere. The run ledger and the
/// distributed wire both write rows through it.
pub fn le_bytes(row: &[u32]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        Cow::Borrowed(cell_bytes(row))
    } else {
        Cow::Owned(row.iter().flat_map(|cell| cell.to_le_bytes()).collect())
    }
}

/// Cells per chunked read: 64 Ki cells = 256 KiB. Memory for a payload
/// grows with the bytes that actually arrive, never with the header's
/// claimed size alone.
const READ_CHUNK_CELLS: usize = 1 << 16;

/// Errors from matrix persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not a matrix file, or is a newer/corrupt version.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(err) => write!(f, "I/O error: {err}"),
            PersistError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(err: std::io::Error) -> Self {
        PersistError::Io(err)
    }
}

/// Reads `cells` little-endian `u32`s in bounded chunks. `cells` comes
/// from an untrusted header, so nothing is allocated up front: the vector
/// grows only as data arrives, and a premature EOF is a [`PersistError::Format`]
/// naming how much of the promised payload was present.
fn read_cells<R: Read>(reader: &mut R, cells: usize) -> Result<Vec<u32>, PersistError> {
    let mut data = Vec::new();
    let mut bytes = vec![0u8; READ_CHUNK_CELLS.min(cells.max(1)) * 4];
    let mut remaining = cells;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK_CELLS);
        let chunk = &mut bytes[..take * 4];
        reader.read_exact(chunk).map_err(|err| {
            if err.kind() == std::io::ErrorKind::UnexpectedEof {
                PersistError::Format(format!(
                    "truncated payload: header promises {cells} cells, file ends within cell {}",
                    cells - remaining
                ))
            } else {
                PersistError::Io(err)
            }
        })?;
        data.extend(
            chunk
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        remaining -= take;
    }
    Ok(data)
}

/// Rejects trailing garbage after a fully parsed payload (a corrupt or
/// concatenated file).
fn expect_eof<R: Read>(reader: &mut R) -> Result<(), PersistError> {
    let mut probe = [0u8; 1];
    if reader.read(&mut probe)? != 0 {
        return Err(PersistError::Format("trailing bytes after matrix".into()));
    }
    Ok(())
}

/// Parses the shared `PAPD` header, returning `(version, n)`.
fn read_header<R: Read>(reader: &mut R) -> Result<(u8, usize), PersistError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::Format(
            "missing PAPD magic — not a distance matrix file".into(),
        ));
    }
    let mut version = [0u8; 1];
    reader.read_exact(&mut version)?;
    let mut n_bytes = [0u8; 8];
    reader.read_exact(&mut n_bytes)?;
    let n = u64::from_le_bytes(n_bytes);
    let n = usize::try_from(n)
        .ok()
        .filter(|n| n.checked_mul(*n).is_some())
        .ok_or_else(|| PersistError::Format(format!("matrix size {n} overflows")))?;
    Ok((version[0], n))
}

/// Writes the binary format to any writer.
pub fn write_binary<W: Write>(dist: &DistanceMatrix, writer: W) -> Result<(), PersistError> {
    let mut writer = BufWriter::new(writer);
    writer.write_all(MAGIC)?;
    writer.write_all(&[VERSION])?;
    writer.write_all(&(dist.n() as u64).to_le_bytes())?;
    for (_, row) in dist.rows() {
        writer.write_all(&le_bytes(row))?;
    }
    writer.flush()?;
    Ok(())
}

/// Reads the binary format from any reader. Rejects checkpoint (version 2)
/// files: a partial matrix must be loaded with [`read_checkpoint`] so
/// missing rows cannot masquerade as real distances.
pub fn read_binary<R: Read>(reader: R) -> Result<DistanceMatrix, PersistError> {
    let mut reader = BufReader::new(reader);
    let (version, n) = read_header(&mut reader)?;
    if version != VERSION {
        return Err(PersistError::Format(format!(
            "unsupported format version {version} (checkpoints are version {CHECKPOINT_VERSION}; \
             load them with read_checkpoint)"
        )));
    }
    let data = read_cells(&mut reader, n * n)?;
    expect_eof(&mut reader)?;
    Ok(DistanceMatrix::from_raw(n, data.into_boxed_slice()))
}

/// Writes a matrix to `path` in the binary format.
pub fn save_binary(dist: &DistanceMatrix, path: impl AsRef<Path>) -> Result<(), PersistError> {
    write_binary(dist, std::fs::File::create(path)?)
}

/// Loads a matrix from a binary file.
pub fn load_binary(path: impl AsRef<Path>) -> Result<DistanceMatrix, PersistError> {
    read_binary(std::fs::File::open(path)?)
}

/// A partially computed distance matrix: the matrix itself plus a flag
/// per source row saying whether that row is final. Incomplete rows are
/// all-[`INF`], exactly the state a fresh kernel expects, so a resumed
/// run computes only the missing sources and lands on the bit-identical
/// matrix a fault-free run would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    dist: DistanceMatrix,
    completed: Vec<bool>,
}

impl Checkpoint {
    /// Wraps a matrix and its completed-row flags.
    ///
    /// Rows marked incomplete are scrubbed back to all-[`INF`]: the
    /// resume path owns them from scratch, so no half-written values may
    /// leak through.
    ///
    /// # Panics
    ///
    /// Panics when `completed.len() != dist.n()`.
    pub fn new(mut dist: DistanceMatrix, completed: Vec<bool>) -> Self {
        assert_eq!(
            completed.len(),
            dist.n(),
            "one completed flag per source row"
        );
        for (s, &done) in completed.iter().enumerate() {
            if !done {
                dist.row_mut(s as u32).fill(INF);
            }
        }
        Checkpoint { dist, completed }
    }

    /// A checkpoint in which every row is final (a finished run).
    pub fn complete(dist: DistanceMatrix) -> Self {
        let completed = vec![true; dist.n()];
        Checkpoint { dist, completed }
    }

    /// A checkpoint in which no row is final yet.
    fn empty(n: usize) -> Self {
        Checkpoint {
            dist: DistanceMatrix::new_infinite(n),
            completed: vec![false; n],
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.dist.n()
    }

    /// Per-source completion flags.
    pub fn completed(&self) -> &[bool] {
        &self.completed
    }

    /// How many rows are final.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|&&done| done).count()
    }

    /// Whether every row is final (the checkpoint is a full matrix).
    pub fn is_complete(&self) -> bool {
        self.completed.iter().all(|&done| done)
    }

    /// The matrix (incomplete rows are all-[`INF`]).
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Splits the checkpoint into matrix and flags.
    pub fn into_parts(self) -> (DistanceMatrix, Vec<bool>) {
        (self.dist, self.completed)
    }
}

/// Bitmap bytes needed for `n` rows.
fn bitmap_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Writes the version-2 checkpoint format: header, completed count,
/// completed-row bitmap (LSB-first within each byte, padding bits zero),
/// then only the completed rows in ascending source order.
pub fn write_checkpoint<W: Write>(cp: &Checkpoint, writer: W) -> Result<(), PersistError> {
    let n = cp.n();
    let mut writer = BufWriter::new(writer);
    writer.write_all(MAGIC)?;
    writer.write_all(&[CHECKPOINT_VERSION])?;
    writer.write_all(&(n as u64).to_le_bytes())?;
    writer.write_all(&(cp.completed_count() as u64).to_le_bytes())?;
    let mut bitmap = vec![0u8; bitmap_len(n)];
    for (s, &done) in cp.completed.iter().enumerate() {
        if done {
            bitmap[s / 8] |= 1 << (s % 8);
        }
    }
    writer.write_all(&bitmap)?;
    for (s, &done) in cp.completed.iter().enumerate() {
        if done {
            writer.write_all(&le_bytes(cp.dist.row(s as u32)))?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads a checkpoint. Accepts both format versions: a version-1 full
/// matrix loads as an all-rows-complete checkpoint (old outputs remain
/// valid resume inputs), and version 2 is the native checkpoint format
/// with its bitmap validated against the completed count and its padding
/// bits required to be zero.
pub fn read_checkpoint<R: Read>(reader: R) -> Result<Checkpoint, PersistError> {
    let mut reader = BufReader::new(reader);
    let (version, n) = read_header(&mut reader)?;
    match version {
        VERSION => {
            let data = read_cells(&mut reader, n * n)?;
            expect_eof(&mut reader)?;
            Ok(Checkpoint::complete(DistanceMatrix::from_raw(
                n,
                data.into_boxed_slice(),
            )))
        }
        CHECKPOINT_VERSION => {
            let mut count_bytes = [0u8; 8];
            reader.read_exact(&mut count_bytes)?;
            let claimed = u64::from_le_bytes(count_bytes);
            if claimed > n as u64 {
                return Err(PersistError::Format(format!(
                    "checkpoint claims {claimed} completed rows of only {n}"
                )));
            }
            let mut bitmap = vec![0u8; bitmap_len(n)];
            reader.read_exact(&mut bitmap)?;
            let completed: Vec<bool> = (0..n)
                .map(|s| bitmap[s / 8] & (1 << (s % 8)) != 0)
                .collect();
            let set = completed.iter().filter(|&&done| done).count();
            if set as u64 != claimed {
                return Err(PersistError::Format(format!(
                    "checkpoint bitmap has {set} rows set but the header claims {claimed}"
                )));
            }
            for s in n..bitmap.len() * 8 {
                if bitmap[s / 8] & (1 << (s % 8)) != 0 {
                    return Err(PersistError::Format(
                        "checkpoint bitmap has padding bits set".into(),
                    ));
                }
            }
            let cells = read_cells(&mut reader, set * n)?;
            expect_eof(&mut reader)?;
            let mut dist = DistanceMatrix::new_infinite(n);
            let mut rows = cells.chunks_exact(n.max(1));
            for (s, &done) in completed.iter().enumerate() {
                if done {
                    dist.copy_row_from(s as u32, rows.next().expect("one chunk per set bit"));
                }
            }
            Ok(Checkpoint { dist, completed })
        }
        LEDGER_VERSION => {
            let (replay, _, _, _) = replay_ledger_body(&mut reader, n)?;
            Ok(replay.unwrap_or_else(|| Checkpoint::empty(n)))
        }
        other => Err(PersistError::Format(format!(
            "unsupported format version {other}"
        ))),
    }
}

/// Atomically writes a checkpoint to `path`: the bytes land in a `.tmp`
/// sibling first, are fsynced, and only then renamed into place, so a
/// crash at any moment leaves either the previous checkpoint or the new
/// one — never a torn file. On Unix the parent directory is fsynced too —
/// and fsync failures are propagated, not swallowed — so the rename
/// itself survives a power cut; elsewhere directories can't reliably be
/// opened for syncing and the directory entry is left to the OS.
pub fn save_checkpoint(cp: &Checkpoint, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let file = std::fs::File::create(&tmp)?;
    // write_checkpoint buffers internally and flushes before returning,
    // so by the time it returns every byte has reached the file object.
    write_checkpoint(cp, &file)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// Fsyncs the directory holding `path`, making a just-renamed entry
/// durable. A bare filename syncs `.`, the working directory.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// Non-Unix platforms often refuse to open directories; the rename is
/// still atomic, only its durability across power loss is best-effort.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Loads a checkpoint from a file (any format version, including a
/// version-3 run ledger, whose longest valid record prefix is replayed).
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, PersistError> {
    read_checkpoint(std::fs::File::open(path)?)
}

// ---------------------------------------------------------------------------
// Run ledger (version 3): crash-safe O(row) incremental durability
// ---------------------------------------------------------------------------

/// When ledger appends reach the platter.
///
/// A checkpoint is written once and fsynced whole; the ledger appends
/// tiny records, so the caller chooses the durability/throughput point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every appended record: a crash loses nothing that
    /// [`RowLedger::append`] returned `Ok` for.
    Always,
    /// Fsync on [`RowLedger::commit`] (the `Runner` commits once per
    /// batch of the policy's `every` rows) and on [`RowLedger::finish`].
    /// The default: a crash loses at most one uncommitted batch.
    #[default]
    Commit,
    /// Never fsync explicitly; the OS flushes the page cache on its own
    /// schedule. Fastest, weakest — recovery still never yields a
    /// corrupted row, only fewer of them.
    Never,
}

impl FsyncPolicy {
    /// Every selectable policy, in display order.
    pub const ALL: [FsyncPolicy; 3] =
        [FsyncPolicy::Always, FsyncPolicy::Commit, FsyncPolicy::Never];

    /// The stable CLI name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Commit => "commit",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Reads exactly `buf.len()` bytes, or returns `None` on a premature EOF
/// (a torn ledger tail, not an error). Genuine I/O failures propagate.
fn read_exact_or_torn<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<Option<()>, PersistError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(None),
            Ok(got) => filled += got,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(PersistError::Io(err)),
        }
    }
    Ok(Some(()))
}

/// Reads a record's `cells`-cell payload into `payload`, straight into
/// its memory in reads of at most `READ_CHUNK_CELLS` cells — one read for
/// any row up to 64 Ki cells. The buffer grows with the bytes that
/// arrive, never with the header's claim alone. Returns `false` on a torn
/// tail.
fn read_payload<R: Read>(
    reader: &mut R,
    payload: &mut Vec<u32>,
    cells: usize,
) -> Result<bool, PersistError> {
    payload.clear();
    while payload.len() < cells {
        let start = payload.len();
        payload.resize(start + (cells - start).min(READ_CHUNK_CELLS), 0);
        if read_exact_or_torn(reader, cell_bytes_mut(&mut payload[start..]))?.is_none() {
            return Ok(false);
        }
    }
    for cell in payload.iter_mut() {
        *cell = u32::from_le(*cell);
    }
    Ok(true)
}

/// Replays ledger records after the `(version, n)` header: reads the run
/// id and epoch, then accepts framed records until the first torn or
/// invalid one. Returns the replayed checkpoint (`None` when no record
/// replayed — the n² matrix is only allocated for the first valid row),
/// the run id, the epoch, and the byte length of the valid prefix (header
/// included) — everything past that length is a torn tail the writer may
/// truncate.
fn replay_ledger_body<R: Read>(
    reader: &mut R,
    n: usize,
) -> Result<(Option<Checkpoint>, u64, u32, u64), PersistError> {
    let mut id_bytes = [0u8; 8];
    reader.read_exact(&mut id_bytes)?;
    let run_id = u64::from_le_bytes(id_bytes);
    let mut epoch_bytes = [0u8; 4];
    reader.read_exact(&mut epoch_bytes)?;
    let epoch = u32::from_le_bytes(epoch_bytes);

    let mut replay: Option<Checkpoint> = None;
    let mut valid = LEDGER_HEADER_LEN;
    let mut payload = Vec::new();
    loop {
        let mut record_header = [0u8; 8];
        if read_exact_or_torn(reader, &mut record_header)?.is_none() {
            break;
        }
        let source = u32::from_le_bytes(record_header[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(record_header[4..].try_into().expect("4 bytes"));
        // A record whose coordinates disagree with the header is
        // indistinguishable from a torn/corrupt tail: stop replaying.
        if source as usize >= n || len as usize != n {
            break;
        }
        // A short payload read is a torn tail, not a format error.
        if !read_payload(reader, &mut payload, n)? {
            break;
        }
        let mut sum_bytes = [0u8; 4];
        if read_exact_or_torn(reader, &mut sum_bytes)?.is_none() {
            break;
        }
        if u32::from_le_bytes(sum_bytes) != row_checksum(source, &payload) {
            break;
        }
        let replay = replay.get_or_insert_with(|| Checkpoint::empty(n));
        replay.dist.copy_row_from(source, &payload);
        replay.completed[source as usize] = true;
        valid += 8 + 4 * n as u64 + 4;
    }
    Ok((replay, run_id, epoch, valid))
}

/// Writes every slice in `slices` to `file` with as few `writev` calls as
/// the kernel allows, retrying short writes.
fn write_all_vectored(file: &mut File, mut slices: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !slices.is_empty() {
        match file.write_vectored(slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(written) => IoSlice::advance_slices(&mut slices, written),
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// A crash-safe append-only run ledger: one framed record per completed
/// row, recovered by replaying the longest valid prefix.
///
/// Where [`save_checkpoint`] writes O(n²) bytes at once, the ledger
/// appends O(n) bytes per completed row — the per-source decomposition
/// makes every completed row independently final, so appending it once is
/// all the durability a restart needs. The header carries a `run_id`
/// (minted at [`RowLedger::create`]) and an `epoch` (bumped on every
/// [`RowLedger::open`] of an existing file), which the distributed driver
/// hands to its workers so a restarted driver can reject handshakes from
/// a different run or a stale incarnation.
///
/// Records go to the file unbuffered, each as its frame header, the row's
/// own bytes and its checksum in one vectored write, so an append costs
/// no copy of the row in user space and a killed process loses no record
/// an append returned for.
#[derive(Debug)]
pub struct RowLedger {
    file: File,
    path: PathBuf,
    n: usize,
    policy: FsyncPolicy,
    run_id: u64,
    epoch: u32,
    records: u64,
    dirty: bool,
}

/// Mints a run id that is unique for practical purposes without a
/// dependency on an RNG crate: wall-clock nanoseconds and the process id,
/// mixed through splitmix64. Never returns 0 — that value is reserved for
/// "no previous run" in the distributed handshake. Used by
/// [`RowLedger::create`], and by the distributed driver for ledger-less
/// runs that still need a run identity to hand their workers.
pub fn mint_run_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = nanos ^ (u64::from(std::process::id()) << 32);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).max(1) // 0 is reserved for "no previous run" in handshakes
}

impl RowLedger {
    /// Creates a fresh ledger at `path` (truncating any existing file)
    /// for an `n`-vertex run, minting a new run id at epoch 0. The header
    /// is written and — unless the policy is [`FsyncPolicy::Never`] —
    /// fsynced along with its directory entry before this returns.
    pub fn create(
        path: impl Into<PathBuf>,
        n: usize,
        policy: FsyncPolicy,
    ) -> Result<RowLedger, PersistError> {
        let path = path.into();
        let mut ledger = RowLedger {
            file: File::create(&path)?,
            path,
            n,
            policy,
            run_id: mint_run_id(),
            epoch: 0,
            records: 0,
            dirty: false,
        };
        let mut header = Vec::with_capacity(LEDGER_HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.push(LEDGER_VERSION);
        header.extend_from_slice(&(n as u64).to_le_bytes());
        header.extend_from_slice(&ledger.run_id.to_le_bytes());
        header.extend_from_slice(&ledger.epoch.to_le_bytes());
        ledger.file.write_all(&header)?;
        if ledger.policy != FsyncPolicy::Never {
            ledger.file.sync_all()?;
            sync_parent_dir(&ledger.path)?;
        }
        Ok(ledger)
    }

    /// Opens `path` for appending, recovering whatever a previous
    /// incarnation managed to write: the longest valid record prefix is
    /// replayed into the returned [`Checkpoint`], the torn tail (if any)
    /// is truncated away, and the header's epoch is bumped — so workers
    /// still holding state from the previous driver incarnation can be
    /// told apart. A missing or empty file becomes a fresh
    /// [`RowLedger::create`].
    ///
    /// The checkpoint is `None` when no record replayed (a missing, empty
    /// or header-only file): opening a fresh ledger allocates nothing of
    /// size n².
    ///
    /// Fails with [`PersistError::Format`] when the file exists but is
    /// not an `n`-vertex ledger (wrong magic, version, or size) — an
    /// existing artifact is never silently clobbered.
    pub fn open(
        path: impl Into<PathBuf>,
        n: usize,
        policy: FsyncPolicy,
    ) -> Result<(RowLedger, Option<Checkpoint>), PersistError> {
        let path = path.into();
        let mut file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Ok((RowLedger::create(path, n, policy)?, None));
            }
            Err(err) => return Err(PersistError::Io(err)),
        };
        if file.metadata()?.len() == 0 {
            drop(file);
            return Ok((RowLedger::create(path, n, policy)?, None));
        }
        let (replay, run_id, epoch, valid) = {
            let mut reader = BufReader::new(&mut file);
            let (version, file_n) = read_header(&mut reader)?;
            if version != LEDGER_VERSION {
                return Err(PersistError::Format(format!(
                    "not a run ledger: format version {version} \
                     (ledgers are version {LEDGER_VERSION})"
                )));
            }
            if file_n != n {
                return Err(PersistError::Format(format!(
                    "ledger is for {file_n} vertices but this run has {n}"
                )));
            }
            replay_ledger_body(&mut reader, n)?
        };
        use std::io::Seek as _;
        let epoch = epoch.wrapping_add(1);
        file.seek(std::io::SeekFrom::Start(LEDGER_EPOCH_OFFSET))?;
        file.write_all(&epoch.to_le_bytes())?;
        // Truncate the torn tail so the next append extends the valid
        // prefix instead of burying garbage mid-file.
        file.set_len(valid)?;
        file.seek(std::io::SeekFrom::Start(valid))?;
        if policy != FsyncPolicy::Never {
            file.sync_all()?;
        }
        let ledger = RowLedger {
            file,
            path,
            n,
            policy,
            run_id,
            epoch,
            records: replay.as_ref().map_or(0, |cp| cp.completed_count() as u64),
            dirty: false,
        };
        Ok((ledger, replay))
    }

    /// Opens the run ledger at `path` like [`RowLedger::open`] and merges
    /// it with an explicit `resume` checkpoint: rows only the ledger
    /// replayed join the checkpoint, and rows only the checkpoint holds
    /// are appended to the ledger and committed. After this the ledger
    /// alone is the durable record of the run; the returned checkpoint is
    /// the run's prior state — the replay itself when `resume` is `None`,
    /// and `None` when neither holds anything. `resume` must be an
    /// `n`-vertex checkpoint.
    ///
    /// Fails like [`RowLedger::open`], or when a backfill append or its
    /// commit fails.
    pub fn open_merged(
        path: impl Into<PathBuf>,
        n: usize,
        policy: FsyncPolicy,
        resume: Option<Checkpoint>,
    ) -> Result<(RowLedger, Option<Checkpoint>), PersistError> {
        let (mut ledger, replayed) = RowLedger::open(path, n, policy)?;
        let Some(resume) = resume else {
            return Ok((ledger, replayed));
        };
        let (mut dist, mut completed) = resume.into_parts();
        for (s, done) in completed.iter_mut().enumerate() {
            let source = s as u32;
            let logged = replayed
                .as_ref()
                .filter(|replayed| replayed.completed()[s])
                .map(|replayed| replayed.matrix().row(source));
            match logged {
                Some(row) if !*done => {
                    dist.copy_row_from(source, row);
                    *done = true;
                }
                None if *done => ledger.append(source, dist.row(source))?,
                _ => {}
            }
        }
        ledger.commit()?;
        Ok((ledger, Some(Checkpoint::new(dist, completed))))
    }

    /// Appends one completed row. With [`FsyncPolicy::Always`] the record
    /// is durable when this returns; otherwise it becomes durable at the
    /// next [`RowLedger::commit`] (or when the OS flushes).
    ///
    /// # Panics
    ///
    /// Panics when `row.len()` differs from the ledger's `n` — rows are
    /// final and full-length by construction, so a short row is a caller
    /// bug, not a runtime condition.
    pub fn append(&mut self, source: u32, row: &[u32]) -> Result<(), PersistError> {
        self.append_sealed(source, row, row_checksum(source, row))
    }

    /// [`RowLedger::append`] for a row whose [`row_checksum`] the caller
    /// already holds — the distributed driver verified it on arrival — so
    /// the row is not hashed a second time. Writes the same bytes.
    ///
    /// # Panics
    ///
    /// Panics like [`RowLedger::append`]. Debug builds also check that
    /// `checksum` is the row's.
    pub fn append_sealed(
        &mut self,
        source: u32,
        row: &[u32],
        checksum: u32,
    ) -> Result<(), PersistError> {
        assert_eq!(row.len(), self.n, "ledger rows are full n-length rows");
        debug_assert_eq!(
            checksum,
            row_checksum(source, row),
            "row {source} sealed wrong"
        );
        self.write_records(&[(source, row)], &[checksum])
    }

    /// Appends a batch of completed rows: `rows` holds one full row per
    /// entry of `sources`, back to back. The bytes are exactly those of
    /// [`RowLedger::append`] called per row; the checksums run four rows
    /// at a time ([`row_checksums`]) and the whole batch goes out in as
    /// few vectored writes as the kernel allows. Durability as for
    /// [`RowLedger::append`], for the batch as a whole.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len()` is not `sources.len() · n`.
    pub fn append_batch(&mut self, sources: &[u32], rows: &[u32]) -> Result<(), PersistError> {
        assert_eq!(
            rows.len(),
            sources.len() * self.n,
            "ledger rows are full n-length rows"
        );
        let batch: Vec<(u32, &[u32])> = sources
            .iter()
            .copied()
            .zip(rows.chunks_exact(self.n.max(1)))
            .collect();
        self.write_records(&batch, &row_checksums(&batch))
    }

    /// Writes one framed record per `(source, row)` — source id, row
    /// length, the row's little-endian bytes, checksum — and fsyncs under
    /// [`FsyncPolicy::Always`].
    fn write_records(&mut self, rows: &[(u32, &[u32])], sums: &[u32]) -> Result<(), PersistError> {
        let heads: Vec<[u8; 8]> = rows
            .iter()
            .map(|&(source, row)| {
                let mut head = [0u8; 8];
                head[..4].copy_from_slice(&source.to_le_bytes());
                head[4..].copy_from_slice(&(row.len() as u32).to_le_bytes());
                head
            })
            .collect();
        let payloads: Vec<Cow<'_, [u8]>> = rows.iter().map(|&(_, row)| le_bytes(row)).collect();
        let sums: Vec<[u8; 4]> = sums.iter().map(|sum| sum.to_le_bytes()).collect();
        let mut slices: Vec<IoSlice<'_>> = heads
            .iter()
            .zip(&payloads)
            .zip(&sums)
            .flat_map(|((head, payload), sum)| {
                [IoSlice::new(head), IoSlice::new(payload), IoSlice::new(sum)]
            })
            .collect();
        write_all_vectored(&mut self.file, &mut slices)?;
        self.records += rows.len() as u64;
        self.dirty = true;
        if self.policy == FsyncPolicy::Always {
            self.file.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Fsyncs the appends since the last commit, except under
    /// [`FsyncPolicy::Never`] (appends reach the OS as they are made).
    pub fn commit(&mut self) -> Result<(), PersistError> {
        if !self.dirty {
            return Ok(());
        }
        if self.policy != FsyncPolicy::Never {
            self.file.sync_data()?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Commits outstanding appends and closes the ledger.
    pub fn finish(mut self) -> Result<(), PersistError> {
        self.commit()
    }

    /// The ledger's destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run id minted when the ledger was created.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// The driver incarnation count: 0 for a fresh ledger, bumped by
    /// every recovery-open of an existing file.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Records appended so far, replayed ones included.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Raises a run-ledger failure: panics with `run ledger <path>: <err>`.
/// Durability was explicitly requested, so a run must not go on without
/// the ledger it was told to keep.
pub fn ledger_panic(path: &Path, err: PersistError) -> ! {
    panic!("run ledger {}: {err}", path.display())
}

/// Writes a tab-separated text dump (`inf` for unreachable pairs), one
/// buffered write per row.
pub fn write_tsv<W: Write>(dist: &DistanceMatrix, writer: W) -> Result<(), PersistError> {
    use std::fmt::Write as _;
    let mut writer = BufWriter::new(writer);
    let mut line = String::new();
    for (_, row) in dist.rows() {
        line.clear();
        for (i, &cell) in row.iter().enumerate() {
            if i > 0 {
                line.push('\t');
            }
            if cell == INF {
                line.push_str("inf");
            } else {
                write!(line, "{cell}").expect("writing to a String cannot fail");
            }
        }
        line.push('\n');
        writer.write_all(line.as_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ApspEngine, RunConfig, Runner};
    use parapsp_graph::generate::{barabasi_albert, WeightSpec};

    fn sample_matrix() -> DistanceMatrix {
        let g = barabasi_albert(60, 2, WeightSpec::Uniform { lo: 1, hi: 9 }, 5).unwrap();
        Runner::new(RunConfig::par_apsp(2))
            .run(ApspEngine::new(), &g)
            .dist
    }

    fn partial_checkpoint() -> Checkpoint {
        let dist = sample_matrix();
        let completed: Vec<bool> = (0..dist.n()).map(|s| s % 3 != 1).collect();
        Checkpoint::new(dist, completed)
    }

    #[test]
    fn binary_round_trip_in_memory() {
        let dist = sample_matrix();
        let mut buf = Vec::new();
        write_binary(&dist, &mut buf).unwrap();
        assert_eq!(buf.len(), 4 + 1 + 8 + 60 * 60 * 4);
        let loaded = read_binary(buf.as_slice()).unwrap();
        assert_eq!(dist.first_difference(&loaded), None);
    }

    #[test]
    fn binary_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("parapsp-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("matrix.bin");
        let dist = sample_matrix();
        save_binary(&dist, &path).unwrap();
        let loaded = load_binary(&path).unwrap();
        assert_eq!(dist.first_difference(&loaded), None);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(matches!(
            read_binary(&b"NOPE"[..]),
            Err(PersistError::Io(_)) | Err(PersistError::Format(_))
        ));
        let mut buf = Vec::new();
        write_binary(&DistanceMatrix::new_infinite(3), &mut buf).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_binary(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Wrong version.
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_binary(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Truncated payload — caught as a format error before any
        // allocation proportional to the claimed size.
        let truncated = &buf[..buf.len() - 2];
        assert!(matches!(
            read_binary(truncated),
            Err(PersistError::Format(_))
        ));
        // Trailing bytes.
        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(
            read_binary(extended.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn forged_giant_header_fails_without_allocating() {
        // 4 GiB-matrix header followed by a handful of real bytes: the
        // chunked reader must bail on the missing payload, not allocate
        // cells for the claimed n².
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&(1u64 << 16).to_le_bytes());
        buf.extend_from_slice(&[7u8; 64]);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "got {err}");
        assert!(err.to_string().contains("truncated"), "got {err}");
    }

    #[test]
    fn checkpoint_round_trip_partial_and_complete() {
        for cp in [partial_checkpoint(), Checkpoint::complete(sample_matrix())] {
            let mut buf = Vec::new();
            write_checkpoint(&cp, &mut buf).unwrap();
            let loaded = read_checkpoint(buf.as_slice()).unwrap();
            assert_eq!(loaded, cp);
        }
    }

    #[test]
    fn checkpoint_round_trip_on_disk_is_atomic() {
        let dir = std::env::temp_dir().join("parapsp-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.ckpt");
        let cp = partial_checkpoint();
        save_checkpoint(&cp, &path).unwrap();
        // The staging file is renamed away.
        assert!(!dir.join("partial.ckpt.tmp").exists());
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded, cp);
        std::fs::remove_file(path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn bare_filename_syncs_the_working_directory() {
        // No parent component in the path: the directory fsync must fall
        // back to `.` instead of failing or silently skipping durability.
        super::sync_parent_dir(Path::new("bare.ckpt")).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unsyncable_parent_directory_is_an_error_not_a_shrug() {
        // The checkpoint lands in a directory that vanishes between the
        // rename and the fsync — impossible to arrange reliably — so
        // instead exercise the helper directly with a parent that cannot
        // be opened.
        let err = super::sync_parent_dir(Path::new("/definitely/not/a/dir/x.ckpt")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn checkpoint_stores_only_completed_rows() {
        let cp = partial_checkpoint();
        let mut buf = Vec::new();
        write_checkpoint(&cp, &mut buf).unwrap();
        let n = cp.n();
        let expect = 4 + 1 + 8 + 8 + n.div_ceil(8) + cp.completed_count() * n * 4;
        assert_eq!(buf.len(), expect);
    }

    #[test]
    fn incomplete_rows_are_scrubbed_to_inf() {
        let dist = sample_matrix();
        let mut completed = vec![true; dist.n()];
        completed[7] = false;
        let cp = Checkpoint::new(dist, completed);
        assert!(cp.matrix().row(7).iter().all(|&d| d == INF));
        assert_eq!(cp.completed_count(), cp.n() - 1);
        assert!(!cp.is_complete());
    }

    #[test]
    fn version_skew_is_one_directional() {
        // v1 full matrix loads as an all-complete checkpoint...
        let dist = sample_matrix();
        let mut v1 = Vec::new();
        write_binary(&dist, &mut v1).unwrap();
        let upgraded = read_checkpoint(v1.as_slice()).unwrap();
        assert!(upgraded.is_complete());
        assert_eq!(upgraded.matrix().first_difference(&dist), None);
        // ...but a v2 checkpoint is rejected by the plain matrix reader,
        // with a pointer at the right entry point.
        let mut v2 = Vec::new();
        write_checkpoint(&Checkpoint::complete(dist), &mut v2).unwrap();
        let err = read_binary(v2.as_slice()).unwrap_err();
        assert!(err.to_string().contains("read_checkpoint"), "got {err}");
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let cp = partial_checkpoint();
        let mut buf = Vec::new();
        write_checkpoint(&cp, &mut buf).unwrap();
        let bitmap_start = 4 + 1 + 8 + 8;

        // Truncated mid-payload.
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(
            read_checkpoint(truncated),
            Err(PersistError::Format(_))
        ));
        // Bitmap/count mismatch: clear a set bit without fixing the count.
        let mut bad = buf.clone();
        let byte = (0..cp.n())
            .find(|&s| cp.completed()[s])
            .map(|s| bitmap_start + s / 8)
            .unwrap();
        bad[byte] ^= 1 << ((0..cp.n()).find(|&s| cp.completed()[s]).unwrap() % 8);
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Padding bits set beyond row n-1.
        let mut bad = buf.clone();
        let last_bitmap_byte = bitmap_start + cp.n().div_ceil(8) - 1;
        bad[last_bitmap_byte] |= 1 << 7; // n = 60, bits 60..63 are padding
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Claimed count larger than n.
        let mut bad = buf.clone();
        bad[13..21].copy_from_slice(&(cp.n() as u64 + 1).to_le_bytes());
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Trailing bytes.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn tsv_output_is_readable() {
        let mut m = DistanceMatrix::new_infinite(2);
        m.copy_row_from(0, &[0, 7]);
        m.copy_row_from(1, &[INF, 0]);
        let mut buf = Vec::new();
        write_tsv(&m, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0\t7\ninf\t0\n");
    }

    #[test]
    fn empty_matrix_round_trips() {
        let dist = DistanceMatrix::new_infinite(0);
        let mut buf = Vec::new();
        write_binary(&dist, &mut buf).unwrap();
        let loaded = read_binary(buf.as_slice()).unwrap();
        assert_eq!(loaded.n(), 0);
        let cp = Checkpoint::complete(DistanceMatrix::new_infinite(0));
        let mut buf = Vec::new();
        write_checkpoint(&cp, &mut buf).unwrap();
        assert!(read_checkpoint(buf.as_slice()).unwrap().is_complete());
    }

    // --- run ledger ---

    fn ledger_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("parapsp-ledger-tests-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ledger_appends_and_replays_as_checkpoint() {
        let dir = ledger_dir("replay");
        let path = dir.join("run.ledger");
        let dist = sample_matrix();
        let n = dist.n();
        let mut ledger = RowLedger::create(&path, n, FsyncPolicy::Commit).unwrap();
        assert_eq!(ledger.epoch(), 0);
        for s in (0..n as u32).filter(|s| s % 3 != 1) {
            ledger.append(s, dist.row(s)).unwrap();
        }
        let expected_records = (0..n).filter(|s| s % 3 != 1).count() as u64;
        assert_eq!(ledger.records(), expected_records);
        ledger.finish().unwrap();

        // The generic checkpoint loader replays the ledger directly.
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp, partial_checkpoint());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ledger_open_recovers_truncates_torn_tail_and_bumps_epoch() {
        let dir = ledger_dir("torn");
        let path = dir.join("run.ledger");
        let dist = sample_matrix();
        let n = dist.n();
        let mut ledger = RowLedger::create(&path, n, FsyncPolicy::Never).unwrap();
        let run_id = ledger.run_id();
        for s in 0..4u32 {
            ledger.append(s, dist.row(s)).unwrap();
        }
        ledger.finish().unwrap();

        // Simulate a crash mid-append: tear the last record.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let (ledger, recovered) = RowLedger::open(&path, n, FsyncPolicy::Commit).unwrap();
        let recovered = recovered.expect("three records replay");
        assert_eq!(ledger.run_id(), run_id, "recovery keeps the run id");
        assert_eq!(ledger.epoch(), 1, "recovery bumps the epoch");
        assert_eq!(recovered.completed_count(), 3, "torn record dropped");
        assert_eq!(ledger.records(), 3);
        for s in 0..3u32 {
            assert_eq!(recovered.matrix().row(s), dist.row(s));
        }
        assert!(recovered.matrix().row(3).iter().all(|&d| d == INF));
        // The torn tail is physically gone.
        let record_len = (8 + 4 * n + 4) as u64;
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            LEDGER_HEADER_LEN + 3 * record_len
        );

        // Appends after recovery extend the valid prefix.
        let mut ledger = ledger;
        ledger.append(3, dist.row(3)).unwrap();
        ledger.append(4, dist.row(4)).unwrap();
        ledger.finish().unwrap();
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp.completed_count(), 5);
        for s in 0..5u32 {
            assert_eq!(cp.matrix().row(s), dist.row(s));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ledger_open_of_missing_or_empty_file_starts_fresh() {
        let dir = ledger_dir("fresh");
        let missing = dir.join("missing.ledger");
        std::fs::remove_file(&missing).ok();
        let (ledger, cp) = RowLedger::open(&missing, 5, FsyncPolicy::Never).unwrap();
        assert_eq!(ledger.epoch(), 0);
        assert!(cp.is_none(), "a fresh ledger replays nothing");
        drop(ledger);

        let empty = dir.join("empty.ledger");
        std::fs::write(&empty, b"").unwrap();
        let (ledger, cp) = RowLedger::open(&empty, 5, FsyncPolicy::Never).unwrap();
        assert_eq!(ledger.epoch(), 0);
        assert!(cp.is_none(), "a fresh ledger replays nothing");
        std::fs::remove_file(missing).ok();
        std::fs::remove_file(empty).ok();
    }

    /// The open contract over every starting state of the file, with and
    /// without a resume checkpoint: a prior state comes back exactly when
    /// some row was replayed or resumed, and then it holds the union.
    #[test]
    fn ledger_open_returns_a_checkpoint_only_when_rows_replay_or_resume() {
        let dir = ledger_dir("contract");
        let dist = sample_matrix();
        let n = dist.n();
        let resume = partial_checkpoint(); // rows s % 3 != 1
        let write_state = |name: &str, path: &Path| match name {
            "missing" => {}
            "empty" => std::fs::write(path, b"").unwrap(),
            "header-only" => RowLedger::create(path, n, FsyncPolicy::Never)
                .unwrap()
                .finish()
                .unwrap(),
            _ => {
                let mut ledger = RowLedger::create(path, n, FsyncPolicy::Never).unwrap();
                for s in 0..4 {
                    ledger.append(s, dist.row(s)).unwrap();
                }
                ledger.finish().unwrap();
            }
        };
        for name in ["missing", "empty", "header-only", "rows"] {
            for with_resume in [false, true] {
                let path = dir.join(format!("{name}-{with_resume}.ledger"));
                std::fs::remove_file(&path).ok();
                write_state(name, &path);
                let has_rows = name == "rows";
                let resumed = with_resume.then(|| resume.clone());
                let (ledger, prior) =
                    RowLedger::open_merged(&path, n, FsyncPolicy::Never, resumed).unwrap();
                drop(ledger);
                let case = format!("{name}, resume {with_resume}");
                let Some(prior) = prior else {
                    assert!(!has_rows && !with_resume, "{case}: no prior state");
                    assert!(load_checkpoint(&path).unwrap().completed_count() == 0);
                    std::fs::remove_file(&path).ok();
                    continue;
                };
                for s in 0..n {
                    let expect = (has_rows && s < 4) || (with_resume && s % 3 != 1);
                    assert_eq!(prior.completed()[s], expect, "{case}: row {s}");
                    if expect {
                        assert_eq!(prior.matrix().row(s as u32), dist.row(s as u32), "{case}");
                    }
                }
                // The ledger now holds the same rows (backfilled from the
                // resume checkpoint where only it had them).
                assert_eq!(load_checkpoint(&path).unwrap(), prior, "{case}");
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn batched_appends_write_the_bytes_of_per_row_appends() {
        let dir = ledger_dir("batch");
        let dist = sample_matrix();
        let n = dist.n();
        let sources: Vec<u32> = (0..n as u32).filter(|s| s % 4 != 2).collect();
        let per_row = dir.join("per-row.ledger");
        let mut ledger = RowLedger::create(&per_row, n, FsyncPolicy::Never).unwrap();
        for &s in &sources {
            ledger.append(s, dist.row(s)).unwrap();
        }
        ledger.finish().unwrap();
        let batched = dir.join("batched.ledger");
        let mut ledger = RowLedger::create(&batched, n, FsyncPolicy::Never).unwrap();
        for chunk in sources.chunks(7) {
            let rows: Vec<u32> = chunk.iter().flat_map(|&s| dist.row(s).to_vec()).collect();
            ledger.append_batch(chunk, &rows).unwrap();
        }
        assert_eq!(ledger.records(), sources.len() as u64);
        ledger.finish().unwrap();
        let (a, b) = (
            std::fs::read(&per_row).unwrap(),
            std::fs::read(&batched).unwrap(),
        );
        // Only the run ids (header bytes 13..21) differ.
        assert_eq!(a[..13], b[..13]);
        assert_eq!(a[21..], b[21..]);
        std::fs::remove_file(per_row).ok();
        std::fs::remove_file(batched).ok();
    }

    #[test]
    fn sealed_appends_write_the_bytes_of_plain_appends() {
        let dir = ledger_dir("sealed");
        let dist = sample_matrix();
        let n = dist.n();
        let plain = dir.join("plain.ledger");
        let mut ledger = RowLedger::create(&plain, n, FsyncPolicy::Never).unwrap();
        for s in 0..n as u32 {
            ledger.append(s, dist.row(s)).unwrap();
        }
        ledger.finish().unwrap();
        let sealed = dir.join("sealed.ledger");
        let mut ledger = RowLedger::create(&sealed, n, FsyncPolicy::Never).unwrap();
        for s in 0..n as u32 {
            let row = dist.row(s);
            ledger.append_sealed(s, row, row_checksum(s, row)).unwrap();
        }
        assert_eq!(ledger.records(), n as u64);
        ledger.finish().unwrap();
        let (a, b) = (
            std::fs::read(&plain).unwrap(),
            std::fs::read(&sealed).unwrap(),
        );
        // Only the run ids (header bytes 13..21) differ.
        assert_eq!(a[..13], b[..13]);
        assert_eq!(a[21..], b[21..]);
        std::fs::remove_file(plain).ok();
        std::fs::remove_file(sealed).ok();
    }

    #[test]
    fn ledger_duplicate_rows_last_write_wins() {
        let dir = ledger_dir("dup");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 3, FsyncPolicy::Never).unwrap();
        ledger.append(1, &[9, 0, 9]).unwrap();
        ledger.append(1, &[4, 0, 4]).unwrap();
        ledger.finish().unwrap();
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp.completed_count(), 1);
        assert_eq!(cp.matrix().row(1), &[4, 0, 4]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ledger_replay_stops_at_corrupt_record_not_just_torn_tail() {
        let dir = ledger_dir("corrupt");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 3, FsyncPolicy::Never).unwrap();
        ledger.append(0, &[0, 1, 2]).unwrap();
        ledger.append(1, &[1, 0, 3]).unwrap();
        ledger.append(2, &[2, 3, 0]).unwrap();
        ledger.finish().unwrap();

        // Flip a payload byte in the middle record: its checksum fails,
        // so replay keeps only the first record — a corrupted row is
        // never surfaced, and the final record (beyond the corruption)
        // is not trusted either.
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = 8 + 4 * 3 + 4;
        let second_payload = LEDGER_HEADER_LEN as usize + record_len + 8;
        bytes[second_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, cp) = RowLedger::open(&path, 3, FsyncPolicy::Never).unwrap();
        let cp = cp.expect("the first record replays");
        assert_eq!(cp.completed_count(), 1);
        assert_eq!(cp.matrix().row(0), &[0, 1, 2]);
        assert_eq!(ledger.records(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ledger_open_rejects_wrong_shape_and_wrong_format() {
        let dir = ledger_dir("reject");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 4, FsyncPolicy::Never).unwrap();
        ledger.append(0, &[0, 1, 2, 3]).unwrap();
        ledger.finish().unwrap();
        // Vertex-count mismatch.
        let err = RowLedger::open(&path, 5, FsyncPolicy::Never).unwrap_err();
        assert!(err.to_string().contains("4 vertices"), "got {err}");
        // A v2 checkpoint is not a ledger: refuse to clobber it.
        let ckpt = dir.join("not-a-ledger.ckpt");
        save_checkpoint(&partial_checkpoint(), &ckpt).unwrap();
        let err = RowLedger::open(&ckpt, 60, FsyncPolicy::Never).unwrap_err();
        assert!(err.to_string().contains("not a run ledger"), "got {err}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn ledger_append_rejects_out_of_range_sources_on_replay() {
        // A record whose source is >= n (e.g. from a bit flip in the
        // source field) terminates replay rather than panicking.
        let dir = ledger_dir("range");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 3, FsyncPolicy::Never).unwrap();
        ledger.append(0, &[0, 1, 2]).unwrap();
        ledger.append(1, &[1, 0, 3]).unwrap();
        ledger.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let second_source = LEDGER_HEADER_LEN as usize + (8 + 4 * 3 + 4);
        bytes[second_source..second_source + 4].copy_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp.completed_count(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_ids_are_distinct_and_nonzero() {
        let a = mint_run_id();
        let b = mint_run_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "nanosecond clock + splitmix should not collide");
    }
}
