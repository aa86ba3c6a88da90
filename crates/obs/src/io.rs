//! [`StoreIo`]: the durable-file-operation seam under the job store and
//! the journal writer, with a deterministic disk-fault injector.
//!
//! Everything the runtime persists — spec records, WAL lines, journals,
//! reports, lock files — goes through this trait. [`RealFs`] is the
//! production implementation (and owns the durability contract: atomic
//! writes fsync their parent directory, lock files propagate fsync
//! failures). [`FaultFs`] wraps it with a seeded [`DiskFaultPlan`] that
//! injects torn writes, `ENOSPC`, fsync failures, and silent bit flips
//! from a replayable schedule, extending the `--faults` / `--noise`
//! design language down to the disk.
//!
//! Like the evaluation-layer fault plan, every injection decision is a
//! pure function of `(plan seed, operation salt, path fingerprint,
//! per-path operation ordinal)` — never wall time or cross-path call
//! order — so the schedule is thread-invariant: two daemons running the
//! same jobs see the same faults on the same files regardless of worker
//! interleaving. Both plans draw through [`crate::seeded`].

use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Write};
use std::path::Path;
use std::str::FromStr;

use crate::seeded::{draw, draw_bits, Fnv1a, Grammar, Ordinals, PlanError};

/// FNV-1a fingerprint of a path's last two components (`job-000007/
/// wal.jsonl`). Keying on the tail keeps the schedule identical no
/// matter where the state directory lives, so a seeded gauntlet run
/// reproduces in any checkout or tmpdir.
fn path_fingerprint(path: &Path) -> u64 {
    let mut h = Fnv1a::default();
    let tail: Vec<&std::ffi::OsStr> = path
        .components()
        .rev()
        .take(2)
        .map(|c| c.as_os_str())
        .collect();
    for part in tail.iter().rev() {
        h.write(part.to_string_lossy().as_bytes());
        h.write(b"/");
    }
    h.finish()
}

/// All durable file operations the runtime performs, as one seam.
///
/// The default implementation is [`RealFs`]; tests and the
/// `--disk-faults` flag substitute [`FaultFs`]. Methods mirror the
/// store's actual access patterns rather than POSIX: a WAL append is
/// one atomic-enough line plus fsync, a journal is a streamed writer,
/// a lock file is create-exclusive.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Reads an entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes a file durably: temp file in the same directory, fsync,
    /// rename over the target, fsync the parent directory. Readers
    /// never observe a partial write, and the rename survives power
    /// loss.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends one line (terminator included by the caller) and fsyncs
    /// the file, so the record is durable before the caller moves on.
    fn append_line_durable(&self, path: &Path, line: &[u8]) -> io::Result<()>;

    /// Opens a streamed writer that appends to `path` (journal resume).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn Write + Send>>;

    /// Opens a streamed writer that truncates `path` (fresh journal).
    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn Write + Send>>;

    /// Creates `path` exclusively with `bytes`, fsynced; fails with
    /// [`io::ErrorKind::AlreadyExists`] when the file exists (the lock
    /// protocol).
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Truncates `path` to `len` bytes (crash-scar removal).
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Removes a file (lock release).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production [`StoreIo`]: plain filesystem calls carrying the
/// durability contract the store documents.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

/// Fsyncs the directory containing `path`, making a just-completed
/// rename or create durable. Directory fsync is advisory on some
/// filesystems; an `ENOTSUP`-style failure is not a correctness error,
/// so only real I/O errors propagate.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    match File::open(parent) {
        Ok(dir) => match dir.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    }
}

impl StoreIo for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Without this the rename itself is not durable: a power cut
        // can resurrect the old file after the caller was told the new
        // one was committed — fatal for the report-before-WAL ordering.
        sync_parent_dir(path)
    }

    fn append_line_durable(&self, path: &Path, line: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(line)?;
        f.sync_data()
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(File::create(path)?))
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

const GRAMMAR: Grammar = Grammar {
    plan: "disk-fault plan",
    example: "seed=7,torn=0.05,enospc=0.02,fsync=0.01,bitflip=0.001",
};

/// A seeded disk-fault schedule, parsed from `--disk-faults`. The
/// canonical [`fmt::Display`] form round-trips through [`FromStr`],
/// mirroring the evaluation layer's `FaultPlan`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultPlan {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability a write lands only partially before failing.
    pub torn: f64,
    /// Probability a write fails up front with `ENOSPC`.
    pub enospc: f64,
    /// Probability the data lands but its fsync fails.
    pub fsync: f64,
    /// Probability a write lands with one bit silently flipped — the
    /// corruption class only checksums can catch.
    pub bitflip: f64,
    /// Fault-free warm-up: the first `after` operations on each path
    /// never fault, so a job can be persisted before the disk turns
    /// hostile (the deterministic-test affordance).
    pub after: u64,
}

impl Default for DiskFaultPlan {
    fn default() -> Self {
        DiskFaultPlan {
            seed: 0,
            torn: 0.0,
            enospc: 0.0,
            fsync: 0.0,
            bitflip: 0.0,
            after: 0,
        }
    }
}

/// What the schedule injects for one file operation. Checked in
/// declaration order: `ENOSPC` preempts a torn write, which preempts an
/// fsync failure, which preempts a bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskFaultDecision {
    /// Fail with `ENOSPC` before writing anything.
    pub enospc: bool,
    /// Write a prefix of the data, then fail.
    pub torn: bool,
    /// Write the data, then fail the fsync.
    pub fsync: bool,
    /// Write the data with one bit flipped, and report success.
    pub bitflip: bool,
}

const SALT_ENOSPC: u64 = 0x656e_6f73_7063; // "enospc"
const SALT_TORN: u64 = 0x0000_746f_726e; // "torn"
const SALT_FSYNC: u64 = 0x0066_7379_6e63; // "fsync"
const SALT_BITFLIP: u64 = 0x6269_7466_6c69; // "bitfli"

impl DiskFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        DiskFaultPlan::default()
    }

    /// True when every fault probability is zero.
    pub fn is_noop(&self) -> bool {
        self.torn == 0.0 && self.enospc == 0.0 && self.fsync == 0.0 && self.bitflip == 0.0
    }

    /// The (pure, replayable) fault decision for the `op`-th operation
    /// on the path fingerprinted by `key`. Exposed so tests can predict
    /// the schedule without touching a disk.
    pub fn decide(&self, key: u64, op: u64) -> DiskFaultDecision {
        if op < self.after {
            return DiskFaultDecision::default();
        }
        let roll = |salt| draw(self.seed, salt, key, op);
        DiskFaultDecision {
            enospc: roll(SALT_ENOSPC) < self.enospc,
            torn: roll(SALT_TORN) < self.torn,
            fsync: roll(SALT_FSYNC) < self.fsync,
            bitflip: roll(SALT_BITFLIP) < self.bitflip,
        }
    }

    /// The deterministic bit to flip in an `len`-byte write, for the
    /// `op`-th operation on `key`.
    fn flip_position(&self, key: u64, op: u64, len: usize) -> (usize, u8) {
        let bits = draw_bits(self.seed, SALT_BITFLIP.wrapping_add(1), key, op);
        let byte = (bits >> 3) as usize % len.max(1);
        let bit = (bits & 7) as u8;
        (byte, 1u8 << bit)
    }
}

impl fmt::Display for DiskFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},torn={},enospc={},fsync={},bitflip={},after={}",
            self.seed, self.torn, self.enospc, self.fsync, self.bitflip, self.after
        )
    }
}

impl FromStr for DiskFaultPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = DiskFaultPlan::default();
        GRAMMAR.read(s, |key, value| {
            match key {
                "seed" => plan.seed = GRAMMAR.value(key, "u64", value)?,
                "torn" => plan.torn = GRAMMAR.value(key, "float", value)?,
                "enospc" => plan.enospc = GRAMMAR.value(key, "float", value)?,
                "fsync" => plan.fsync = GRAMMAR.value(key, "float", value)?,
                "bitflip" => plan.bitflip = GRAMMAR.value(key, "float", value)?,
                "after" => plan.after = GRAMMAR.value(key, "u64", value)?,
                other => return Err(GRAMMAR.unknown(other)),
            }
            Ok(())
        })?;
        GRAMMAR.probabilities(&[
            ("torn", plan.torn),
            ("enospc", plan.enospc),
            ("fsync", plan.fsync),
            ("bitflip", plan.bitflip),
        ])?;
        Ok(plan)
    }
}

/// `ENOSPC` as the kernel would report it.
fn enospc_error() -> io::Error {
    io::Error::from_raw_os_error(28)
}

fn fsync_error() -> io::Error {
    io::Error::other("injected fsync failure")
}

fn torn_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::WriteZero,
        "injected torn write: data cut mid-record",
    )
}

/// A [`StoreIo`] decorator injecting the seeded schedule of a
/// [`DiskFaultPlan`] into every mutating operation. Reads pass through
/// untouched: the injected corruption is what lands on disk, exactly as
/// real bit-rot would, so the detection layers (CRC framing, fsck) see
/// it through the ordinary read path.
pub struct FaultFs {
    inner: RealFs,
    plan: DiskFaultPlan,
    /// Per-path operation ordinals. Operations on one path are
    /// serialized by the store lock in practice, which keeps the
    /// ordinal — and hence the schedule — thread-invariant.
    ops: Ordinals,
}

impl fmt::Debug for FaultFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultFs").field("plan", &self.plan).finish()
    }
}

impl FaultFs {
    /// Wraps the real filesystem with the given schedule.
    pub fn new(plan: DiskFaultPlan) -> Self {
        FaultFs {
            inner: RealFs,
            plan,
            ops: Ordinals::default(),
        }
    }

    /// The active schedule.
    pub fn plan(&self) -> &DiskFaultPlan {
        &self.plan
    }

    /// One decision step: the per-path ordinal advances exactly once per
    /// mutating operation, whatever the operation kind.
    fn decide(&self, path: &Path) -> (DiskFaultDecision, u64, u64) {
        let key = path_fingerprint(path);
        let op = self.ops.next(key);
        (self.plan.decide(key, op), key, op)
    }

    /// Applies `decision` to an in-memory write image: `None` means fail
    /// with the given error before writing; `Some((bytes, after))` means
    /// write `bytes`, then return `after` (`Ok` or the injected fsync
    /// error).
    #[allow(clippy::type_complexity)]
    fn shape_write(
        &self,
        decision: DiskFaultDecision,
        key: u64,
        op: u64,
        bytes: &[u8],
    ) -> Result<(Vec<u8>, Result<(), io::Error>), io::Error> {
        if decision.enospc {
            return Err(enospc_error());
        }
        if decision.torn {
            let cut = bytes.len() / 2;
            return Ok((bytes[..cut].to_vec(), Err(torn_error())));
        }
        let mut image = bytes.to_vec();
        if decision.bitflip && !image.is_empty() {
            let (byte, mask) = self.plan.flip_position(key, op, image.len());
            image[byte] ^= mask;
        }
        if decision.fsync {
            return Ok((image, Err(fsync_error())));
        }
        Ok((image, Ok(())))
    }
}

impl StoreIo for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (decision, key, op) = self.decide(path);
        let (image, after) = self.shape_write(decision, key, op, bytes)?;
        if decision.torn {
            // A torn atomic write dies before the rename: the target is
            // untouched, only the temp file carries the partial data.
            let tmp = path.with_extension("tmp");
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            return after;
        }
        self.inner.write_atomic(path, &image)?;
        after
    }

    fn append_line_durable(&self, path: &Path, line: &[u8]) -> io::Result<()> {
        let (decision, key, op) = self.decide(path);
        let (image, after) = self.shape_write(decision, key, op, line)?;
        if decision.fsync {
            // Data written, durability not guaranteed.
            let mut f = OpenOptions::new().create(true).append(true).open(path)?;
            f.write_all(&image)?;
            return after;
        }
        self.inner.append_line_durable(path, &image)?;
        after
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultWriter {
            inner,
            plan: self.plan,
            key: path_fingerprint(path),
            op: 0,
        }))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        let inner = self.inner.open_truncate(path)?;
        Ok(Box::new(FaultWriter {
            inner,
            plan: self.plan,
            key: path_fingerprint(path),
            op: 0,
        }))
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Lock files stay fault-free: a daemon that cannot take its
        // lock exits instead of exercising recovery, which is not the
        // failure class this injector is for.
        self.inner.create_exclusive(path, bytes)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.set_len(path, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
}

/// The streamed-writer side of [`FaultFs`]: each `write` call is one
/// schedulable operation on the journal's key. The ordinal sequence
/// restarts with each writer, which keeps a slice's fault schedule
/// reproducible regardless of how many slices came before it.
struct FaultWriter {
    inner: Box<dyn Write + Send>,
    plan: DiskFaultPlan,
    key: u64,
    op: u64,
}

impl Write for FaultWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = self.op;
        self.op += 1;
        let decision = self.plan.decide(self.key, op);
        if decision.enospc {
            return Err(enospc_error());
        }
        if decision.torn {
            let cut = buf.len() / 2;
            self.inner.write_all(&buf[..cut])?;
            return Err(torn_error());
        }
        if decision.bitflip && !buf.is_empty() {
            let (byte, mask) = self.plan.flip_position(self.key, op, buf.len());
            let mut image = buf.to_vec();
            image[byte] ^= mask;
            self.inner.write_all(&image)?;
            return Ok(buf.len());
        }
        // An fsync fault has nothing to bite on a buffered stream;
        // the write itself proceeds.
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spotlight-io-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn plan_round_trips_through_display() {
        let spec = "seed=7,torn=0.05,enospc=0.02,fsync=0.01,bitflip=0.001";
        let plan: DiskFaultPlan = spec.parse().unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.bitflip, 0.001);
        let reparsed: DiskFaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, reparsed);
        assert!("".parse::<DiskFaultPlan>().unwrap().is_noop());
        assert!("torn=2".parse::<DiskFaultPlan>().is_err());
        assert!("bogus=1".parse::<DiskFaultPlan>().is_err());
    }

    #[test]
    fn plan_rejects_bad_specs() {
        let example = "(expected e.g. \"seed=7,torn=0.05,enospc=0.02,fsync=0.01,bitflip=0.001\")";
        for (spec, message) in [
            ("seed", "expected key=value, got \"seed\""),
            ("bogus=1", "unknown field \"bogus\""),
            ("torn=abc", "torn must be a float, got \"abc\""),
            ("torn=2", "torn must be a probability in [0, 1], got 2"),
        ] {
            assert_eq!(
                spec.parse::<DiskFaultPlan>().unwrap_err().to_string(),
                format!("invalid disk-fault plan: {message} {example}")
            );
        }
        // A repeated key is refused, not silently overridden.
        assert_eq!(
            "seed=1,seed=2"
                .parse::<DiskFaultPlan>()
                .unwrap_err()
                .message,
            "field \"seed\" given twice"
        );
    }

    #[test]
    fn decisions_are_pure_and_respect_the_warmup() {
        let plan: DiskFaultPlan = "seed=3,torn=0.5,enospc=0.5,fsync=0.5,bitflip=0.5,after=4"
            .parse()
            .unwrap();
        for op in 0..4 {
            assert_eq!(plan.decide(99, op), DiskFaultDecision::default());
        }
        let mut fired = false;
        for key in 0..32u64 {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(plan.decide(key, 7), plan.decide(key, 7));
            if plan.decide(key, 7) != DiskFaultDecision::default() {
                fired = true;
            }
        }
        assert!(fired, "probability 0.5 never fired across 32 keys");
        // The exact schedule, one letter per key: 'a' plus the bits
        // enospc=1, torn=2, fsync=4, bitflip=8.
        let code = |d: DiskFaultDecision| {
            char::from(
                b'a' + (u8::from(d.enospc)
                    | u8::from(d.torn) << 1
                    | u8::from(d.fsync) << 2
                    | u8::from(d.bitflip) << 3),
            )
        };
        for (op, expected) in [
            (4u64, "fnbmpohhokjahmmjemgloaopjigbnplk"),
            (5, "ghjdbobeghikbbpfkhodhaklbmhiagih"),
            (7, "kbadgjjmpakpfncnkipepdeljmiajiei"),
        ] {
            let got: String = (0..32u64)
                .map(|key| code(plan.decide(key.wrapping_mul(0x9e37_79b9_7f4a_7c15), op)))
                .collect();
            assert_eq!(got, expected, "op {op}");
        }
    }

    #[test]
    fn path_fingerprint_uses_the_stable_tail() {
        let a = path_fingerprint(Path::new("/tmp/x/jobs/job-000001/wal.jsonl"));
        let b = path_fingerprint(Path::new("/var/other/jobs/job-000001/wal.jsonl"));
        let c = path_fingerprint(Path::new("/tmp/x/jobs/job-000002/wal.jsonl"));
        assert_eq!(a, b, "location must not change the schedule");
        assert_ne!(a, c, "different jobs draw different schedules");
        assert_eq!(a, 0x1e8a_329e_3fee_0ec4);
        assert_eq!(c, 0x9424_9d71_cbf8_55ab);
    }

    #[test]
    fn enospc_write_leaves_the_file_untouched() {
        let dir = tmp("enospc");
        let path = dir.join("wal.jsonl");
        let fs = FaultFs::new("enospc=1".parse().unwrap());
        let err = fs
            .append_line_durable(&path, b"{\"type\":\"wal\"}\n")
            .unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "{err}");
        assert!(!path.exists(), "ENOSPC must not create the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_writes_a_prefix_then_fails() {
        let dir = tmp("torn");
        let path = dir.join("wal.jsonl");
        let fs = FaultFs::new("torn=1".parse().unwrap());
        let line = b"{\"type\":\"wal\",\"state\":\"queued\"}\n";
        let err = fs.append_line_durable(&path, line).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        let got = std::fs::read(&path).unwrap();
        assert_eq!(&got[..], &line[..line.len() / 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_silently_lands_one_changed_bit() {
        let dir = tmp("bitflip");
        // The schedule keys on the last two path components; a fixed
        // job directory keeps the flipped bit independent of the pid.
        let job = dir.join("job-000001");
        std::fs::create_dir_all(&job).unwrap();
        let path = job.join("wal.jsonl");
        let fs = FaultFs::new("seed=9,bitflip=1".parse().unwrap());
        let line = b"{\"type\":\"wal\",\"state\":\"queued\"}\n".to_vec();
        fs.append_line_durable(&path, &line).unwrap();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), line.len());
        let differing: Vec<usize> = (0..line.len()).filter(|&i| got[i] != line[i]).collect();
        assert_eq!(differing.len(), 1, "exactly one byte must change");
        assert_eq!(
            (got[differing[0]] ^ line[differing[0]]).count_ones(),
            1,
            "exactly one bit must flip"
        );
        assert_eq!(differing[0], 5, "the scheduled byte");
        assert_eq!(got[5] ^ line[5], 0x20, "the scheduled bit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_fault_lands_data_but_reports_failure() {
        let dir = tmp("fsync");
        let path = dir.join("wal.jsonl");
        let fs = FaultFs::new("fsync=1".parse().unwrap());
        let line = b"{\"type\":\"wal\"}\n";
        let err = fs.append_line_durable(&path, line).unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), line);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_write_atomic_replaces_and_survives_reread() {
        let dir = tmp("atomic");
        let path = dir.join("spec.json");
        RealFs.write_atomic(&path, b"one").unwrap();
        RealFs.write_atomic(&path, b"two").unwrap();
        assert_eq!(RealFs.read(&path).unwrap(), b"two");
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_create_exclusive_propagates_existence() {
        let dir = tmp("excl");
        let path = dir.join("LOCK");
        RealFs.create_exclusive(&path, b"123").unwrap();
        let err = RealFs.create_exclusive(&path, b"456").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(RealFs.read(&path).unwrap(), b"123");
        RealFs.remove_file(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
