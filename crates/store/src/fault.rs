//! Deterministic fault injection for the store's IO seam.
//!
//! Every durable write path in the workspace (`save`, `append_to`,
//! `compact`, snapshot open, torn-tail repair) routes its filesystem
//! operations through the wrappers in this module instead of calling
//! `std::fs` directly. With no plan armed the wrappers are pass-throughs; a
//! test or a chaos drill arms a [`FaultPlan`] that deterministically fails
//! the Nth operation of a kind, flips a bit in the Nth write/read buffer, or
//! panics at a named [`failpoint`] — which is how the chaos sweeps prove the
//! format's crash-safety claims (`docs/FORMAT.md`) instead of merely
//! asserting them.
//!
//! # Scopes
//!
//! Two arming scopes, checked in order:
//!
//! * **Thread-local** ([`arm`]): visible only to IO performed on the arming
//!   thread, so parallel tests cannot interfere with each other. Disarmed
//!   when the returned [`FaultGuard`] drops; the guard also reports how many
//!   operations of each kind ran, which is how a sweep learns its size.
//! * **Process-global** ([`arm_global`], or the `JOINMI_FAILPOINTS`
//!   environment variable parsed on first use): visible to every thread that
//!   has no thread-local plan. This is the scope daemon-side chaos needs —
//!   the serve worker that should panic runs on its own thread.
//!
//! # The `JOINMI_FAILPOINTS` spec
//!
//! Semicolon-separated entries, each `kind[@name][#nth]=action`:
//!
//! ```text
//! JOINMI_FAILPOINTS='write#3=err;fsync=err;read=flip:13;failpoint@serve.worker.panic=panic'
//! ```
//!
//! * `kind` — one of `create`, `write`, `fsync`, `rename`, `read`,
//!   `setlen`, `failpoint`;
//! * `@name` — required for `failpoint` entries, rejected elsewhere;
//! * `#nth` — zero-based match index (default `0`): the action fires on the
//!   Nth operation of that kind only;
//! * `action` — `err` (typed `io::Error`), `panic`, or `flip:<bit>`
//!   (corrupt bit `<bit> % buffer_bits` of that operation's buffer, then
//!   succeed — only meaningful for `write` and `read`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::{File, Metadata};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{Mutex, OnceLock, PoisonError};

/// The prefix every injected `io::Error` message carries, so tests can tell
/// an injected failure from a real one.
pub const INJECTED_PREFIX: &str = "joinmi fault injection";

/// The IO operation classes the seam distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Opening a file for writing (`File::create`, append/rw opens).
    Create,
    /// One `write` call on a fault-wrapped file.
    Write,
    /// `File::sync_all`.
    Fsync,
    /// `fs::rename`.
    Rename,
    /// Reading a file: one whole-file [`read`], or one [`open_read`] stream
    /// however many calls drain it.
    Read,
    /// `File::set_len` (torn-tail repair truncation).
    SetLen,
    /// A named code-site checkpoint (see [`failpoint`]).
    Failpoint,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "create" => Self::Create,
            "write" => Self::Write,
            "fsync" => Self::Fsync,
            "rename" => Self::Rename,
            "read" => Self::Read,
            "setlen" => Self::SetLen,
            "failpoint" => Self::Failpoint,
            _ => return None,
        })
    }
}

/// What a matched trigger does to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with a typed `io::Error` before it touches disk.
    Error,
    /// Flip one bit of the operation's buffer (`bit % buffer_bits`), then
    /// let it succeed — silent in-flight corruption. Ignored by operations
    /// that carry no buffer.
    FlipBit(u64),
    /// Panic at the operation — how chaos drills exercise `catch_unwind`
    /// isolation in the serve daemon.
    Panic,
}

/// One armed trigger: fire `action` on the `nth` (zero-based) operation of
/// `kind` — for [`FaultKind::Failpoint`], of the checkpoint named `name`.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Operation class to match.
    pub kind: FaultKind,
    /// Checkpoint name; `None` for every kind except `Failpoint`.
    pub name: Option<String>,
    /// Zero-based operation index the action fires on.
    pub nth: u64,
    /// What to do when it fires.
    pub action: FaultAction,
}

/// A set of triggers armed together. An empty plan is still useful: arming
/// it counts operations (observe mode), which is how a sweep learns how many
/// fault points an operation has.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The armed triggers.
    pub triggers: Vec<Trigger>,
}

impl FaultPlan {
    /// An empty (observe-only) plan.
    #[must_use]
    pub fn observe() -> Self {
        Self::default()
    }

    /// A single-trigger plan failing the `nth` operation of `kind`.
    #[must_use]
    pub fn fail_nth(kind: FaultKind, nth: u64) -> Self {
        Self::default().with(Trigger {
            kind,
            name: None,
            nth,
            action: FaultAction::Error,
        })
    }

    /// A single-trigger plan flipping bit `bit` of the `nth` operation of
    /// `kind` (meaningful for `Write` and `Read`).
    #[must_use]
    pub fn flip_nth(kind: FaultKind, nth: u64, bit: u64) -> Self {
        Self::default().with(Trigger {
            kind,
            name: None,
            nth,
            action: FaultAction::FlipBit(bit),
        })
    }

    /// A single-trigger plan acting on the `nth` hit of the checkpoint
    /// named `name`.
    #[must_use]
    pub fn at_failpoint(name: &str, nth: u64, action: FaultAction) -> Self {
        Self::default().with(Trigger {
            kind: FaultKind::Failpoint,
            name: Some(name.to_owned()),
            nth,
            action,
        })
    }

    /// Adds a trigger (builder style).
    #[must_use]
    pub fn with(mut self, trigger: Trigger) -> Self {
        self.triggers.push(trigger);
        self
    }

    /// Parses a `JOINMI_FAILPOINTS` spec (grammar in the module docs).
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (lhs, action) = entry
                .split_once('=')
                .ok_or_else(|| format!("'{entry}': missing '=action'"))?;
            let (lhs, nth) = match lhs.split_once('#') {
                Some((head, n)) => (
                    head,
                    n.parse::<u64>()
                        .map_err(|_| format!("'{entry}': bad index '#{n}'"))?,
                ),
                None => (lhs, 0),
            };
            let (kind_str, name) = match lhs.split_once('@') {
                Some((k, name)) => (k, Some(name.to_owned())),
                None => (lhs, None),
            };
            let kind = FaultKind::parse(kind_str.trim())
                .ok_or_else(|| format!("'{entry}': unknown kind '{kind_str}'"))?;
            if (kind == FaultKind::Failpoint) != name.is_some() {
                return Err(format!(
                    "'{entry}': '@name' is required for failpoint entries and invalid elsewhere"
                ));
            }
            let action = action.trim();
            let action = if action == "err" {
                FaultAction::Error
            } else if action == "panic" {
                FaultAction::Panic
            } else if let Some(bit) = action.strip_prefix("flip:") {
                FaultAction::FlipBit(
                    bit.parse()
                        .map_err(|_| format!("'{entry}': bad flip bit '{bit}'"))?,
                )
            } else {
                return Err(format!("'{entry}': unknown action '{action}'"));
            };
            plan = plan.with(Trigger {
                kind,
                name,
                nth,
                action,
            });
        }
        Ok(plan)
    }
}

/// Per-kind (and per-failpoint-name) operation counters of an armed plan.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    counts: HashMap<(FaultKind, Option<String>), u64>,
}

impl FaultStats {
    /// Operations of `kind` observed while the plan was armed (failpoint
    /// hits are counted per name; see [`FaultStats::failpoint_count`]).
    #[must_use]
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counts
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, n)| n)
            .sum()
    }

    /// Hits of the checkpoint named `name`.
    #[must_use]
    pub fn failpoint_count(&self, name: &str) -> u64 {
        self.counts
            .get(&(FaultKind::Failpoint, Some(name.to_owned())))
            .copied()
            .unwrap_or(0)
    }
}

#[derive(Debug)]
struct ActivePlan {
    plan: FaultPlan,
    stats: FaultStats,
}

enum Outcome {
    Pass,
    Flip(u64),
}

impl ActivePlan {
    fn hit(&mut self, kind: FaultKind, name: Option<&str>) -> io::Result<Outcome> {
        let key = (kind, name.map(str::to_owned));
        let counter = self.stats.counts.entry(key).or_insert(0);
        let n = *counter;
        *counter += 1;
        let matched = self
            .plan
            .triggers
            .iter()
            .find(|t| t.kind == kind && t.nth == n && t.name.as_deref() == name);
        match matched.map(|t| t.action) {
            None => Ok(Outcome::Pass),
            Some(FaultAction::Error) => Err(io::Error::other(format!(
                "{INJECTED_PREFIX}: {kind:?}{} #{n} failed",
                name.map(|s| format!("@{s}")).unwrap_or_default()
            ))),
            Some(FaultAction::FlipBit(bit)) => Ok(Outcome::Flip(bit)),
            Some(FaultAction::Panic) => panic!(
                "{INJECTED_PREFIX}: injected panic at {kind:?}{} #{n}",
                name.map(|s| format!("@{s}")).unwrap_or_default()
            ),
        }
    }
}

thread_local! {
    static THREAD_PLAN: RefCell<Option<ActivePlan>> = const { RefCell::new(None) };
}

fn global_plan() -> &'static Mutex<Option<ActivePlan>> {
    static GLOBAL: OnceLock<Mutex<Option<ActivePlan>>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let from_env = std::env::var("JOINMI_FAILPOINTS").ok().and_then(|spec| {
            match FaultPlan::from_spec(&spec) {
                Ok(plan) if !plan.triggers.is_empty() => Some(ActivePlan {
                    plan,
                    stats: FaultStats::default(),
                }),
                Ok(_) => None,
                Err(e) => {
                    eprintln!("joinmi: ignoring invalid JOINMI_FAILPOINTS: {e}");
                    None
                }
            }
        });
        Mutex::new(from_env)
    })
}

/// The central checkpoint every seam wrapper funnels through: consults the
/// thread-local plan first, then the process-global one. Unarmed, it is a
/// few nanoseconds of thread-local access.
fn hit(kind: FaultKind, name: Option<&str>) -> io::Result<Outcome> {
    let thread_outcome = THREAD_PLAN.with(|slot| {
        slot.borrow_mut()
            .as_mut()
            .map(|active| active.hit(kind, name))
    });
    if let Some(outcome) = thread_outcome {
        return outcome;
    }
    let mut global = global_plan().lock().unwrap_or_else(PoisonError::into_inner);
    match global.as_mut() {
        Some(active) => active.hit(kind, name),
        None => Ok(Outcome::Pass),
    }
}

/// The byte offset and mask of bit `bit % (len × 8)` of a `len`-byte
/// buffer; `None` when the buffer is empty.
fn flip_target(len: u64, bit: u64) -> Option<(u64, u8)> {
    let bit = bit.checked_rem(len.checked_mul(8)?)?;
    Some((bit / 8, 1 << (bit % 8)))
}

fn flip_bit(buf: &mut [u8], bit: u64) {
    if let Some((at, mask)) = flip_target(buf.len() as u64, bit) {
        buf[at as usize] ^= mask;
    }
}

/// Arms `plan` for the current thread; disarmed when the guard drops.
///
/// # Panics
///
/// Panics if a thread-local plan is already armed (arming is not reentrant —
/// a nested sweep would silently corrupt the outer sweep's counters).
#[must_use]
pub fn arm(plan: FaultPlan) -> FaultGuard {
    THREAD_PLAN.with(|slot| {
        let mut slot = slot.borrow_mut();
        assert!(slot.is_none(), "a thread-local fault plan is already armed");
        *slot = Some(ActivePlan {
            plan,
            stats: FaultStats::default(),
        });
    });
    FaultGuard { _priv: () }
}

/// Arms `plan` process-globally (for threads with no thread-local plan);
/// replaced by `None` when the guard drops. Used by daemon-side chaos tests
/// whose fault must fire on a worker thread the test does not own.
#[must_use]
pub fn arm_global(plan: FaultPlan) -> GlobalFaultGuard {
    *global_plan().lock().unwrap_or_else(PoisonError::into_inner) = Some(ActivePlan {
        plan,
        stats: FaultStats::default(),
    });
    GlobalFaultGuard { _priv: () }
}

/// RAII guard for a thread-local plan (see [`arm`]).
#[derive(Debug)]
pub struct FaultGuard {
    _priv: (),
}

impl FaultGuard {
    /// Snapshot of the operation counters accumulated so far — how a sweep
    /// learns the number of fault points in an operation.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        THREAD_PLAN.with(|slot| {
            slot.borrow()
                .as_ref()
                .map(|active| active.stats.clone())
                .unwrap_or_default()
        })
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        THREAD_PLAN.with(|slot| slot.borrow_mut().take());
    }
}

/// RAII guard for the process-global plan (see [`arm_global`]).
#[derive(Debug)]
pub struct GlobalFaultGuard {
    _priv: (),
}

impl GlobalFaultGuard {
    /// Snapshot of the global plan's operation counters.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        global_plan()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|active| active.stats.clone())
            .unwrap_or_default()
    }
}

impl Drop for GlobalFaultGuard {
    fn drop(&mut self) {
        global_plan()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
    }
}

// ---------------------------------------------------------------------------
// The seam: fault-aware filesystem wrappers
// ---------------------------------------------------------------------------

/// A writable file whose `write`/`sync_all`/`set_len` calls route through
/// the fault seam. Obtained from [`create`], [`open_append`] or [`open_rw`].
#[derive(Debug)]
pub struct FaultFile {
    inner: File,
}

impl FaultFile {
    /// `File::sync_all` behind the [`FaultKind::Fsync`] checkpoint.
    pub fn sync_all(&self) -> io::Result<()> {
        let _ = hit(FaultKind::Fsync, None)?;
        self.inner.sync_all()
    }

    /// `File::set_len` behind the [`FaultKind::SetLen`] checkpoint.
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        let _ = hit(FaultKind::SetLen, None)?;
        self.inner.set_len(len)
    }

    /// `File::metadata` (not a fault point: it writes nothing).
    pub fn metadata(&self) -> io::Result<Metadata> {
        self.inner.metadata()
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match hit(FaultKind::Write, None)? {
            Outcome::Pass => self.inner.write(buf),
            Outcome::Flip(bit) => {
                let mut mutated = buf.to_vec();
                flip_bit(&mut mutated, bit);
                self.inner.write_all(&mutated)?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// `File::create` behind the [`FaultKind::Create`] checkpoint.
pub fn create<P: AsRef<Path>>(path: P) -> io::Result<FaultFile> {
    let _ = hit(FaultKind::Create, None)?;
    Ok(FaultFile {
        inner: File::create(path)?,
    })
}

/// Open for appending, behind the [`FaultKind::Create`] checkpoint.
pub fn open_append<P: AsRef<Path>>(path: P) -> io::Result<FaultFile> {
    let _ = hit(FaultKind::Create, None)?;
    Ok(FaultFile {
        inner: std::fs::OpenOptions::new().append(true).open(path)?,
    })
}

/// Open for in-place writing (repair truncation), behind the
/// [`FaultKind::Create`] checkpoint.
pub fn open_rw<P: AsRef<Path>>(path: P) -> io::Result<FaultFile> {
    let _ = hit(FaultKind::Create, None)?;
    Ok(FaultFile {
        inner: std::fs::OpenOptions::new().write(true).open(path)?,
    })
}

/// A file opened for streaming reads by [`open_read`]. It yields the bytes
/// the file held when it was opened, and an armed `FlipBit` trigger flips
/// its bit as that byte passes — the same bit [`read`] would flip in the
/// whole-file buffer.
#[derive(Debug)]
pub struct FaultReader {
    inner: io::Take<File>,
    /// The file's length at open.
    len: u64,
    /// Bytes yielded so far.
    pos: u64,
    /// Offset and mask of the bit an armed flip corrupts.
    flip: Option<(u64, u8)>,
}

impl FaultReader {
    /// The file's length when it was opened: the bytes this reader yields.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.len
    }
}

impl Read for FaultReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some((at, mask)) = self.flip {
            if let Some(i) = at.checked_sub(self.pos).filter(|&i| i < n as u64) {
                buf[i as usize] ^= mask;
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

/// `File::open` for streaming reads, behind the [`FaultKind::Read`]
/// checkpoint: an `Error` trigger fails before the file is opened; a
/// `FlipBit` trigger corrupts bit `bit % (file_len × 8)` of what the reader
/// yields (the on-disk file is untouched). One open is one `Read` operation,
/// however many `read` calls drain it.
pub fn open_read<P: AsRef<Path>>(path: P) -> io::Result<FaultReader> {
    let outcome = hit(FaultKind::Read, None)?;
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let flip = match outcome {
        Outcome::Flip(bit) => flip_target(len, bit),
        Outcome::Pass => None,
    };
    Ok(FaultReader {
        inner: file.take(len),
        len,
        pos: 0,
        flip,
    })
}

/// `fs::read` behind the [`FaultKind::Read`] checkpoint: an `Error` trigger
/// fails before touching disk; a `FlipBit` trigger corrupts the returned
/// buffer (the on-disk file is untouched).
pub fn read<P: AsRef<Path>>(path: P) -> io::Result<Vec<u8>> {
    let outcome = hit(FaultKind::Read, None)?;
    let mut buf = std::fs::read(path)?;
    if let Outcome::Flip(bit) = outcome {
        flip_bit(&mut buf, bit);
    }
    Ok(buf)
}

/// `fs::rename` behind the [`FaultKind::Rename`] checkpoint.
pub fn rename<P: AsRef<Path>, Q: AsRef<Path>>(from: P, to: Q) -> io::Result<()> {
    let _ = hit(FaultKind::Rename, None)?;
    std::fs::rename(from, to)
}

/// A named checkpoint for injecting failures at arbitrary code sites (the
/// serve daemon's worker and shard-scoring paths). Unarmed it is a no-op;
/// an `Error` trigger returns the injected `io::Error`, a `Panic` trigger
/// panics, and a `FlipBit` trigger is ignored (no buffer).
pub fn failpoint(name: &str) -> io::Result<()> {
    let _ = hit(FaultKind::Failpoint, Some(name))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "joinmi-fault-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn unarmed_seam_is_a_passthrough() {
        let path = temp("passthrough");
        let mut file = create(&path).unwrap();
        file.write_all(b"hello").unwrap();
        file.sync_all().unwrap();
        assert_eq!(read(&path).unwrap(), b"hello");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn nth_write_fails_and_stats_count_operations() {
        let path = temp("nthwrite");
        let guard = arm(FaultPlan::fail_nth(FaultKind::Write, 1));
        let mut file = create(&path).unwrap();
        file.write_all(b"first").unwrap();
        let err = file.write_all(b"second").unwrap_err();
        assert!(err.to_string().contains(INJECTED_PREFIX), "{err}");
        // The third write is past the trigger and succeeds again.
        file.write_all(b"third").unwrap();
        let stats = guard.stats();
        assert_eq!(stats.count(FaultKind::Write), 3);
        assert_eq!(stats.count(FaultKind::Create), 1);
        drop(guard);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flip_corrupts_exactly_one_bit_of_the_nth_write() {
        let path = temp("flip");
        {
            let _guard = arm(FaultPlan::flip_nth(FaultKind::Write, 0, 9));
            let mut file = create(&path).unwrap();
            file.write_all(&[0u8; 4]).unwrap();
        }
        // Bit 9 = byte 1, bit 1.
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 2, 0, 0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_flip_corrupts_the_buffer_not_the_file() {
        let path = temp("readflip");
        std::fs::write(&path, [0xFFu8; 2]).unwrap();
        {
            let _guard = arm(FaultPlan::flip_nth(FaultKind::Read, 0, 0));
            assert_eq!(read(&path).unwrap(), vec![0xFE, 0xFF]);
        }
        assert_eq!(std::fs::read(&path).unwrap(), vec![0xFF, 0xFF]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Drains a streaming reader in uneven pieces (1 to 7 bytes per call),
    /// so a flipped byte can land anywhere inside one `read` call.
    fn drain(mut reader: FaultReader) -> Vec<u8> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 7];
        loop {
            let n = reader.read(&mut chunk[..1 + out.len() % 7]).unwrap();
            if n == 0 {
                return out;
            }
            out.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn streaming_reader_flips_the_bit_the_whole_file_read_flips() {
        let path = temp("streamflip");
        let contents: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for bytes in [&[][..], &[0xA5][..], &contents[..]] {
            std::fs::write(&path, bytes).unwrap();
            for (nth, bit) in [(0, 0), (0, 7), (0, 4_321), (0, u64::MAX), (1, 77)] {
                let plan = FaultPlan::flip_nth(FaultKind::Read, nth, bit);
                // Reads 0..=nth under one plan: the last one is the flipped
                // one, and with nth = 1 the first one stays clean.
                let whole = {
                    let _guard = arm(plan.clone());
                    let mut whole = read(&path).unwrap();
                    for _ in 0..nth {
                        whole = read(&path).unwrap();
                    }
                    whole
                };
                let streamed = {
                    let guard = arm(plan);
                    let mut reader = open_read(&path).unwrap();
                    for _ in 0..nth {
                        reader = open_read(&path).unwrap();
                    }
                    assert_eq!(reader.file_len(), bytes.len() as u64);
                    assert_eq!(guard.stats().count(FaultKind::Read), nth + 1);
                    drain(reader)
                };
                assert_eq!(
                    streamed,
                    whole,
                    "{} bytes, flip #{nth} bit {bit}",
                    bytes.len()
                );
                assert_eq!(streamed != bytes, !bytes.is_empty(), "the flip lands");
            }
        }
        let guard = arm(FaultPlan::fail_nth(FaultKind::Read, 0));
        assert!(open_read(&path).is_err(), "an error trigger fails the open");
        drop(guard);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_and_rename_triggers_fire() {
        let path = temp("fsync");
        let to = temp("fsync-renamed");
        {
            let _guard = arm(FaultPlan::fail_nth(FaultKind::Fsync, 0).with(Trigger {
                kind: FaultKind::Rename,
                name: None,
                nth: 0,
                action: FaultAction::Error,
            }));
            let mut file = create(&path).unwrap();
            file.write_all(b"x").unwrap();
            assert!(file.sync_all().is_err());
            assert!(rename(&path, &to).is_err());
        }
        assert!(path.exists() && !to.exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failpoints_match_by_name_and_index() {
        let guard = arm(FaultPlan::at_failpoint("site.a", 1, FaultAction::Error));
        assert!(failpoint("site.a").is_ok(), "nth=1 spares the first hit");
        assert!(failpoint("site.b").is_ok(), "other names never match");
        assert!(failpoint("site.a").is_err(), "second hit fires");
        assert!(failpoint("site.a").is_ok(), "third hit is past the trigger");
        let stats = guard.stats();
        assert_eq!(stats.failpoint_count("site.a"), 3);
        assert_eq!(stats.failpoint_count("site.b"), 1);
    }

    #[test]
    #[should_panic(expected = "joinmi fault injection")]
    fn panic_action_panics() {
        let _guard = arm(FaultPlan::at_failpoint("boom", 0, FaultAction::Panic));
        let _ = failpoint("boom");
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::from_spec(
            "write#3=err; fsync=err; read=flip:13; failpoint@serve.worker.panic#2=panic",
        )
        .unwrap();
        assert_eq!(plan.triggers.len(), 4);
        assert_eq!(plan.triggers[0].kind, FaultKind::Write);
        assert_eq!(plan.triggers[0].nth, 3);
        assert_eq!(plan.triggers[0].action, FaultAction::Error);
        assert_eq!(plan.triggers[1].nth, 0, "#nth defaults to 0");
        assert_eq!(plan.triggers[2].action, FaultAction::FlipBit(13));
        assert_eq!(plan.triggers[3].name.as_deref(), Some("serve.worker.panic"));
        assert_eq!(plan.triggers[3].action, FaultAction::Panic);

        for bad in [
            "write",                // no action
            "write=explode",        // unknown action
            "wrote=err",            // unknown kind
            "write#x=err",          // bad index
            "write@name=err",       // name on a non-failpoint kind
            "failpoint=err",        // failpoint without a name
            "read=flip:notanumber", // bad flip bit
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "{bad} should fail");
        }

        // Empty entries are tolerated (trailing semicolons).
        assert!(FaultPlan::from_spec("").unwrap().triggers.is_empty());
        assert!(FaultPlan::from_spec("write=err;").unwrap().triggers.len() == 1);
    }

    #[test]
    fn thread_local_plan_shadows_the_global_plan() {
        // A thread with its own plan never consults the global one; a thread
        // without one does. (Serialized against other global-arming tests by
        // the distinct failpoint name.)
        let _global = arm_global(FaultPlan::at_failpoint(
            "shadow.test",
            0,
            FaultAction::Error,
        ));
        {
            let _local = arm(FaultPlan::observe());
            assert!(
                failpoint("shadow.test").is_ok(),
                "thread plan shadows global"
            );
        }
        assert!(
            failpoint("shadow.test").is_err(),
            "global plan visible once the thread plan is gone"
        );
    }
}
