//! Versioned `.csnake` snapshot files: checkpoint/resume for detection
//! sessions.
//!
//! A [`Snapshot`] captures everything a [`Session`](crate::session::Session)
//! has computed up to a stage boundary — the full detection configuration,
//! the cached profile traces (the expensive simulator output), the
//! allocation result with its causal database, and the stitched cycles.
//! Cheap derived state (coverage maps, the dynamic call graph, profile
//! indexes, the causal database's hash indexes) is deliberately *not*
//! stored: it is rebuilt deterministically on resume, which both keeps
//! snapshots small and guarantees a resumed session is bit-identical to an
//! uninterrupted one.
//!
//! # Format
//!
//! A snapshot is one [`crate::frame`] container — magic `CSNK`, version
//! [`SNAPSHOT_VERSION`] — and nothing after it; the layout and the order
//! in which a bad file fails are drawn there.
//!
//! The workspace's vendored `serde` is a compile-only stand-in, so the
//! payload codec is the crate's own: a minimal [`Persist`] trait with
//! little-endian scalars, length-prefixed sequences and tagged enums.
//! Struct-shaped values declare their impl with
//! [`persist_struct!`](crate::persist_struct), braced enums with
//! [`persist_enum!`](crate::persist_enum), and
//! [`CampaignEvent`](crate::CampaignEvent) by its own table in
//! `observer.rs`; the leaves (scalars, containers) and the few values whose
//! encoding is not their field list (packed, delta-coded or re-checked on
//! load) are written by hand, each saying why. A declaration's field order
//! is the format; reordering it is a version bump. There is one payload
//! schema: which fields a value has never depends on the container it
//! travels in.
//!
//! # Varint + delta layer (format version 2)
//!
//! Profile traces dominate `.csnake` files, and their payload is mostly
//! *dense small ids* (fault/function/branch ids, sorted key sets) and
//! *small counts* (loop iteration counts, sequence lengths). Version 2
//! therefore encodes under the same [`Persist`] surface:
//!
//! * **LEB128 varints** for every sequence length, id newtype
//!   ([`FaultId`], [`TestId`], [`FnId`], [`BranchId`]), [`VirtualTime`],
//!   and the run counters — one or two bytes in practice instead of 4–8;
//! * **delta encoding** for the sorted id keys of a trace's coverage
//!   set, occurrence/loop maps and call-edge set (strictly increasing, so
//!   consecutive deltas are tiny varints);
//! * **slot packing** for 2-level call stacks (`None` → `0`,
//!   `Some(f)` → `f + 1`, one varint per slot) and branch-trace entries
//!   (`(branch << 1) | outcome` in one varint).
//!
//! Checksums, floating-point scores and occurrence signatures stay
//! fixed-width: they are high-entropy, where varints only add overhead.
//! Old version-1 files are rejected with a typed
//! [`CsnakeError::SnapshotVersion`] — the layout is not self-describing,
//! so silently misreading would be worse than re-running the campaign.
//!
//! # Mid-phase checkpoints and atomic writes (format version 4)
//!
//! Version 4 added the campaign supervisor's durability layer, all of it
//! part of version 5 (version-4 *files* are no longer read; see below):
//!
//! * an optional **mid-phase section** ([`MidPhaseState`]) carrying the
//!   3PA runner's RNG state, used-set and executed-prefix counters, so a
//!   killed campaign resumes *inside* an allocation phase instead of
//!   replaying it from the last stage boundary;
//! * the supervisor's [`RetryConfig`]/[`ChaosConfig`] knobs and the
//!   allocation result's gap list join the persisted configuration;
//! * every snapshot write goes through [`write_file_bytes`], which stages
//!   the bytes in a `<path>.csnake.tmp` sibling, `fsync`s, and renames
//!   into place — a crash mid-write leaves the previous checkpoint
//!   intact, never a half-written file.
//!
//! # Shard islands (format version 5)
//!
//! Version 5 extends the mid-phase section with the daemon's per-shard
//! checkpoint islands ([`crate::alloc::ShardSpan`]): out-of-order spans a
//! sharded coordinator completed beyond the contiguous executed prefix,
//! merged on resume by [`MidPhaseState::normalize`]. The wire chaos rates
//! (`wire_drop`, `wire_stall`) join the persisted [`ChaosConfig`].
//!
//! Version-4 files lack both and are refused with
//! [`CsnakeError::SnapshotVersion`], like every other version this build
//! does not write. The layout is not self-describing, so reading them
//! takes a second payload schema selected by the container's version — a
//! version the wire and the journal, which carry the same values under
//! versions of their own, cannot share. Re-run the campaign, or resume
//! from a version-5 checkpoint.
//!
//! Integrity failures are the container's typed errors (see
//! [`crate::frame`]), plus two of the snapshot's own: bytes after the
//! frame are [`CsnakeError::SnapshotCorrupt`], and resuming against the
//! wrong system is [`CsnakeError::TargetMismatch`] (checked by the
//! session, which compares [`Snapshot::target`] against the live
//! target's name).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use csnake_analyzer::AnalysisConfig;
use csnake_inject::{
    BranchId, CallStack2, FaultId, FaultKind, FnId, LoopState, Occurrence, Registry, RunTrace,
    TestId,
};
use csnake_sim::VirtualTime;

use crate::alloc::{AllocationResult, MidPhaseState, ShardSpan, ThreePhaseConfig};
use crate::beam::{BeamConfig, Cycle, CycleCluster};
use crate::chaos::ChaosConfig;
use crate::driver::RetryConfig;
use crate::edge::{CausalDb, CausalEdge, CompatState, EdgeKind};
use crate::error::{CsnakeError, Result};
use crate::fca::{ExperimentOutcome, FcaConfig};
use crate::frame::{fnv1a_bytes, Format};
use crate::session::{Stage, StitchedCycles};
use crate::{DetectConfig, DriverConfig};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CSNK";

/// Format version written by this build.
/// Version 2 introduced the varint + delta payload layer; version 3 added
/// the driver's `cache_injections` flag to the persisted configuration;
/// version 4 added the campaign supervisor's mid-phase checkpoint section
/// ([`MidPhaseState`]), the retry/chaos configuration, and the allocation
/// gap list; version 5 added the daemon's per-shard checkpoint islands
/// ([`crate::alloc::ShardSpan`] in the mid-phase section) and the wire
/// chaos rates. This is the only version read: every other one, version 4
/// included, is rejected with a typed [`CsnakeError::SnapshotVersion`],
/// because the payload is not self-describing and a file of another
/// layout would decode to something plausible and wrong.
pub const SNAPSHOT_VERSION: u32 = 5;

/// The snapshot's container format.
const SNAPSHOT: Format = Format {
    magic: SNAPSHOT_MAGIC,
    version: SNAPSHOT_VERSION,
};

/// Order-sensitive fingerprint of a registry's fault-point inventory (ids,
/// kinds, labels). Persisted in every snapshot and re-checked on resume:
/// a target whose *name* still matches but whose points were added,
/// removed, renumbered or relabeled since the checkpoint would otherwise
/// reinterpret the stored `FaultId`s silently — exactly the class of
/// wrong-but-plausible campaign the typed error layer exists to prevent.
pub fn registry_fingerprint(reg: &Registry) -> u64 {
    let mut w = Writer::new();
    for p in reg.points() {
        p.id.put(&mut w);
        let kind: u8 = match p.kind {
            FaultKind::LoopPoint => 0,
            FaultKind::Throw => 1,
            FaultKind::LibCall => 2,
            FaultKind::Negation => 3,
        };
        kind.put(&mut w);
        put_str(p.label, &mut w);
    }
    fnv1a_bytes(&w.buf)
}

/// `String::put`, for the borrowed-state encoders too.
fn put_str(s: &str, w: &mut Writer) {
    s.len().put(w);
    w.put_bytes(s.as_bytes());
}

/// `Option<T>::put`, for a borrowed value too.
fn put_opt<T: Persist>(v: Option<&T>, w: &mut Writer) {
    match v {
        None => 0u8.put(w),
        Some(x) => {
            1u8.put(w);
            x.put(w);
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

/// Append-only payload writer.
///
/// Public (with [`Reader`] and [`Persist`]) so first-party crates can layer
/// other framed formats on the same codec — the daemon's wire protocol
/// encodes its messages with exactly this machinery.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded payload so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// LEB128 varint: 7 value bits per byte, high bit = continuation.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }
}

/// Bounds-checked payload reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                CsnakeError::SnapshotCorrupt(format!(
                    "payload truncated: wanted {n} bytes at offset {}",
                    self.pos
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// `true` once every payload byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// An empty vector for a decoded length of `n` elements. `n` is
    /// untrusted: each element takes at least one payload byte but up to
    /// `size_of::<T>()` bytes of memory, so the reservation is capped at the
    /// bytes the payload has left, not at their count.
    pub(crate) fn vec_for<T>(&self, n: usize) -> Vec<T> {
        let left = self.buf.len() - self.pos;
        Vec::with_capacity(n.min(left / std::mem::size_of::<T>().max(1)))
    }

    /// Decodes one LEB128 varint with truncation and overflow checks. Only
    /// the shortest form [`Writer::put_varint`] writes decodes: a trailing
    /// zero byte would give one value two encodings.
    pub fn take_varint(&mut self) -> Result<u64> {
        let mut out: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)?[0];
            let bits = (byte & 0x7F) as u64;
            if shift == 63 && bits > 1 {
                break; // falls through to the overflow error below
            }
            out |= bits << shift;
            if byte == 0 && shift > 0 {
                return Err(CsnakeError::SnapshotCorrupt("overlong varint".into()));
            }
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(CsnakeError::SnapshotCorrupt(
            "varint exceeds 64 bits".into(),
        ))
    }

    /// Varint bounded to `u32`, for id newtypes.
    pub fn take_varint_u32(&mut self) -> Result<u32> {
        let v = self.take_varint()?;
        u32::try_from(v)
            .map_err(|_| CsnakeError::SnapshotCorrupt(format!("id varint {v} exceeds u32")))
    }
}

// ---------------------------------------------------------------------------
// Delta-coded sorted-id helpers (the dense-id layer of format version 2)
// ---------------------------------------------------------------------------

/// Encodes a strictly-increasing id sequence as first-value + deltas.
fn put_id_deltas(ids: impl ExactSizeIterator<Item = u32>, w: &mut Writer) {
    w.put_varint(ids.len() as u64);
    let mut prev: u64 = 0;
    for (i, id) in ids.enumerate() {
        let id = id as u64;
        debug_assert!(i == 0 || id > prev, "ids must be strictly increasing");
        w.put_varint(id - prev);
        prev = id;
    }
}

/// Decodes a [`put_id_deltas`] sequence, re-checking strict monotonicity
/// (a zero delta after the first element means a corrupt or duplicate
/// key that a map insert would otherwise silently swallow).
fn load_id_deltas(r: &mut Reader<'_>) -> Result<Vec<u32>> {
    let n = usize::load(r)?;
    let mut out = r.vec_for(n);
    let mut prev: u64 = 0;
    for i in 0..n {
        let delta = r.take_varint()?;
        if i > 0 && delta == 0 {
            return Err(CsnakeError::SnapshotCorrupt(
                "duplicate id in delta-coded sequence".into(),
            ));
        }
        let id = prev
            .checked_add(delta)
            .ok_or_else(|| CsnakeError::SnapshotCorrupt("delta-coded id overflows u64".into()))?;
        prev = id;
        out.push(u32::try_from(id).map_err(|_| {
            CsnakeError::SnapshotCorrupt(format!("delta-coded id {id} exceeds u32"))
        })?);
    }
    Ok(out)
}

/// Encodes a map keyed by a dense id as delta-coded keys + values.
fn put_id_map<V: Persist>(map: &BTreeMap<FaultId, V>, w: &mut Writer) {
    put_id_deltas(map.keys().map(|k| k.0), w);
    for v in map.values() {
        v.put(w);
    }
}

fn load_id_map<V: Persist>(r: &mut Reader<'_>) -> Result<BTreeMap<FaultId, V>> {
    let keys = load_id_deltas(r)?;
    let mut out = BTreeMap::new();
    for k in keys {
        out.insert(FaultId(k), V::load(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The Persist codec
// ---------------------------------------------------------------------------

/// Field-by-field binary encoding for snapshot payloads — and for any
/// other first-party framed format that wants the same wire discipline
/// (the daemon's coordinator/worker protocol reuses it wholesale).
///
/// A new struct-shaped type declares its codec with
/// [`persist_struct!`](crate::persist_struct), and a tagged enum with braced
/// variants with [`persist_enum!`](crate::persist_enum); an impl is written
/// by hand only where the encoding is not the field list — seven beside
/// the leaves. A campaign event is a row of [`CampaignEvent`](crate::CampaignEvent)'s table.
pub trait Persist: Sized {
    /// Appends the value's encoding to the writer.
    fn put(&self, w: &mut Writer);
    /// Decodes one value, consuming exactly the bytes `put` produced.
    fn load(r: &mut Reader<'_>) -> Result<Self>;
}

/// Declares a struct's [`Persist`] impl by its field list, e.g.
/// `persist_struct!(Cycle { edges, score })`: `put` writes the fields in
/// the listed order and `load` reads them back in that order.
///
/// `load` builds the struct literal from the list, so a field left out does
/// not compile. The listed order is the format: reordering it is a version
/// bump of every container the type travels in.
#[macro_export]
macro_rules! persist_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Persist for $ty {
            fn put(&self, w: &mut $crate::Writer) {
                $($crate::Persist::put(&self.$field, w);)*
            }
            fn load(r: &mut $crate::Reader<'_>) -> $crate::error::Result<Self> {
                Ok($ty { $($field: $crate::Persist::load(r)?,)* })
            }
        }
    };
}

/// Declares an enum's [`Persist`] impl by its tag table, e.g.
/// `persist_enum!(EdgeKind, "edge-kind" { 0 => ED {}, 1 => SD {} })`: each
/// variant is a `u8` tag followed by its fields in the listed order (unit
/// variants are written `Name {}`), and an unknown tag decodes to
/// [`CsnakeError::SnapshotCorrupt`]`("bad <what> tag n")`.
///
/// The match in `put` is exhaustive and the one in `load` builds each
/// variant's literal, so a variant or a field left out does not compile.
/// Tags and field orders are the format, as in [`persist_struct!`](crate::persist_struct).
#[macro_export]
macro_rules! persist_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident { $($field:ident),* $(,)? }),* $(,)?
    }) => {
        impl $crate::Persist for $ty {
            fn put(&self, w: &mut $crate::Writer) {
                match self {
                    $($ty::$variant { $($field),* } => {
                        <u8 as $crate::Persist>::put(&$tag, w);
                        $($crate::Persist::put($field, w);)*
                    })*
                }
            }
            fn load(r: &mut $crate::Reader<'_>) -> $crate::error::Result<Self> {
                Ok(match <u8 as $crate::Persist>::load(r)? {
                    $($tag => $ty::$variant { $($field: $crate::Persist::load(r)?),* },)*
                    n => {
                        return Err($crate::error::CsnakeError::SnapshotCorrupt(::std::format!(
                            ::std::concat!("bad ", $what, " tag {}"),
                            n
                        )))
                    }
                })
            }
        }
    };
}

// The leaves: each scalar and container impl fixes how one Rust type is
// laid out, and the declarations further down compose them.

macro_rules! persist_le_scalar {
    ($t:ty, $n:expr) => {
        impl Persist for $t {
            fn put(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn load(r: &mut Reader<'_>) -> Result<Self> {
                let b = r.take($n)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
        }
    };
}

persist_le_scalar!(u8, 1);
persist_le_scalar!(u32, 4);
persist_le_scalar!(u64, 8);

impl Persist for usize {
    fn put(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.take_varint()?;
        usize::try_from(v)
            .map_err(|_| CsnakeError::SnapshotCorrupt(format!("length {v} exceeds usize")))
    }
}

impl Persist for bool {
    fn put(&self, w: &mut Writer) {
        (*self as u8).put(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        match u8::load(r)? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(CsnakeError::SnapshotCorrupt(format!("bad bool tag {n}"))),
        }
    }
}

impl Persist for f64 {
    fn put(&self, w: &mut Writer) {
        self.to_bits().put(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f64::from_bits(u64::load(r)?))
    }
}

impl Persist for String {
    fn put(&self, w: &mut Writer) {
        put_str(self, w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::load(r)?;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CsnakeError::SnapshotCorrupt("non-UTF-8 string".into()))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn put(&self, w: &mut Writer) {
        put_opt(self.as_ref(), w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        match u8::load(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            n => Err(CsnakeError::SnapshotCorrupt(format!("bad option tag {n}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for v in self {
            v.put(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::load(r)?;
        let mut out = r.vec_for(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

/// A set or map payload repeating a key: encoders walk BTree order, so only
/// a corrupt payload does, and an insert would otherwise drop it silently.
fn duplicate_key() -> CsnakeError {
    CsnakeError::SnapshotCorrupt("duplicate key in a set or map".into())
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for v in self {
            v.put(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::load(r)?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            if !out.insert(T::load(r)?) {
                return Err(duplicate_key());
            }
        }
        Ok(out)
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let n = usize::load(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            if out.insert(k, V::load(r)?).is_some() {
                return Err(duplicate_key());
            }
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl Persist for [u64; 4] {
    /// xoshiro256++ state words are high-entropy; fixed-width encoding.
    fn put(&self, w: &mut Writer) {
        for word in self {
            word.put(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let mut out = [0u64; 4];
        for word in &mut out {
            *word = u64::load(r)?;
        }
        Ok(out)
    }
}

macro_rules! persist_u32_newtype {
    ($t:ty) => {
        impl Persist for $t {
            fn put(&self, w: &mut Writer) {
                w.put_varint(self.0 as u64);
            }
            fn load(r: &mut Reader<'_>) -> Result<Self> {
                Ok(Self(r.take_varint_u32()?))
            }
        }
    };
}

persist_u32_newtype!(FaultId);
persist_u32_newtype!(TestId);
persist_u32_newtype!(FnId);
persist_u32_newtype!(BranchId);

/// Hand-written: the clock's microseconds are private, so it is one varint
/// of [`VirtualTime::as_micros`].
impl Persist for VirtualTime {
    fn put(&self, w: &mut Writer) {
        w.put_varint(self.as_micros());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok(VirtualTime::from_micros(r.take_varint()?))
    }
}

/// Hand-written for its slot packing: `None` → `0`, `Some(f)` → `f + 1`,
/// one varint per level — the same injective packing `stack_key` uses.
impl Persist for CallStack2 {
    fn put(&self, w: &mut Writer) {
        for slot in self {
            w.put_varint(slot.map(|f| f.0 as u64 + 1).unwrap_or(0));
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let mut out: CallStack2 = [None, None];
        for slot in &mut out {
            *slot = match r.take_varint()? {
                0 => None,
                v => Some(FnId(u32::try_from(v - 1).map_err(|_| {
                    CsnakeError::SnapshotCorrupt(format!("stack slot {v} exceeds u32"))
                })?)),
            };
        }
        Ok(out)
    }
}

/// Hand-written: the branch trace is packed, and `load` re-checks the
/// stored signature against the stack and trace it decoded.
impl Persist for Occurrence {
    fn put(&self, w: &mut Writer) {
        self.stack.put(w);
        // Branch-trace entries pack `(branch << 1) | outcome` in one
        // varint — branch ids are dense and small.
        w.put_varint(self.local_trace.len() as u64);
        for (b, o) in &self.local_trace {
            w.put_varint(((b.0 as u64) << 1) | (*o as u64));
        }
        self.sig.put(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let stack = CallStack2::load(r)?;
        let n = usize::load(r)?;
        let mut local_trace = r.vec_for(n);
        for _ in 0..n {
            let packed = r.take_varint()?;
            let b = u32::try_from(packed >> 1).map_err(|_| {
                CsnakeError::SnapshotCorrupt(format!("branch id {} exceeds u32", packed >> 1))
            })?;
            local_trace.push((BranchId(b), packed & 1 == 1));
        }
        let sig = u64::load(r)?;
        // The signature is derived from stack + trace; storing it keeps the
        // roundtrip exact, re-deriving would silently mask corruption.
        if Occurrence::signature(&stack, &local_trace) != sig {
            return Err(CsnakeError::SnapshotCorrupt(
                "occurrence signature does not match its stack/trace".into(),
            ));
        }
        Ok(Occurrence {
            stack,
            local_trace,
            sig,
        })
    }
}

/// Hand-written for the hot payload of every snapshot: coverage,
/// occurrence and loop maps are keyed by dense sorted [`FaultId`]s, so keys
/// are delta-coded; loop iteration counts and run counters are varints.
impl Persist for RunTrace {
    fn put(&self, w: &mut Writer) {
        put_id_deltas(self.coverage.iter().map(|f| f.0), w);
        put_id_map(&self.occurrences, w);
        put_id_deltas(self.loop_counts.keys().map(|f| f.0), w);
        for count in self.loop_counts.values() {
            w.put_varint(*count);
        }
        put_id_map(&self.loop_states, w);
        self.injected.put(w);
        self.call_edges.put(w);
        w.put_varint(self.hook_count);
        self.flags.put(w);
        self.end_time.put(w);
        w.put_varint(self.events);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        let coverage = load_id_deltas(r)?.into_iter().map(FaultId).collect();
        let occurrences = load_id_map(r)?;
        let loop_keys = load_id_deltas(r)?;
        let mut loop_counts = BTreeMap::new();
        for k in loop_keys {
            loop_counts.insert(FaultId(k), r.take_varint()?);
        }
        Ok(RunTrace {
            coverage,
            occurrences,
            loop_counts,
            loop_states: load_id_map(r)?,
            injected: Option::load(r)?,
            call_edges: BTreeSet::load(r)?,
            hook_count: r.take_varint()?,
            flags: BTreeSet::load(r)?,
            end_time: VirtualTime::load(r)?,
            events: r.take_varint()?,
        })
    }
}

/// Hand-written: its variants are tuple variants, which
/// [`persist_enum!`](crate::persist_enum) does not declare.
impl Persist for CompatState {
    fn put(&self, w: &mut Writer) {
        match self {
            CompatState::Occurrences(occs) => {
                0u8.put(w);
                occs.put(w);
            }
            CompatState::Loop(st) => {
                1u8.put(w);
                st.put(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        match u8::load(r)? {
            0 => Ok(CompatState::Occurrences(Vec::load(r)?)),
            1 => Ok(CompatState::Loop(LoopState::load(r)?)),
            n => Err(CsnakeError::SnapshotCorrupt(format!(
                "bad compat-state tag {n}"
            ))),
        }
    }
}

/// Hand-written: the database's hash indexes are derived state, so the
/// edge list is persisted and `load` rebuilds them via `from_edges` (push
/// order reproduces both the edge vector and the per-cause index exactly).
impl Persist for AllocationResult {
    fn put(&self, w: &mut Writer) {
        self.db.edges().to_vec().put(w);
        self.outcomes.put(w);
        self.clusters.put(w);
        self.cluster_of.put(w);
        self.sim_scores.put(w);
        self.experiments_run.put(w);
        self.budget.put(w);
        self.gaps.put(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok(AllocationResult {
            db: CausalDb::from_edges(Vec::load(r)?),
            outcomes: Vec::load(r)?,
            clusters: Vec::load(r)?,
            cluster_of: BTreeMap::load(r)?,
            sim_scores: Vec::load(r)?,
            experiments_run: usize::load(r)?,
            budget: usize::load(r)?,
            gaps: Vec::load(r)?,
        })
    }
}

// The declared codecs: each list is the type's whole format.
persist_struct!(LoopState {
    entry_stacks,
    iter_sigs
});
persist_enum!(EdgeKind, "edge-kind" {
    0 => ED {}, 1 => SD {}, 2 => EI {}, 3 => SI {}, 4 => Icfg {}, 5 => Cfg {},
});
persist_struct!(CausalEdge {
    cause,
    effect,
    kind,
    test,
    phase,
    cause_state,
    effect_state
});
persist_struct!(ExperimentOutcome {
    fault,
    test,
    interference,
    edges
});
persist_struct!(ShardSpan {
    shard,
    start,
    outcomes,
    gaps,
    runs
});
persist_struct!(MidPhaseState {
    phase,
    rng_state,
    used_at_phase_start,
    spent_at_phase_start,
    executed_in_phase,
    phase1_len,
    outcomes,
    gaps,
    runs_executed,
    shard_spans,
});
persist_struct!(Cycle { edges, score });
persist_struct!(CycleCluster { key, cycle_idxs });
persist_struct!(StitchedCycles { cycles, clusters });
persist_struct!(FcaConfig {
    p_value,
    presence_fraction
});
persist_struct!(AnalysisConfig {
    short_loop_fraction
});
persist_struct!(RetryConfig {
    max_retries,
    backoff_base_ms,
    backoff_cap_ms
});
persist_struct!(ChaosConfig {
    seed,
    experiment_panic,
    experiment_stall,
    snapshot_io,
    transient_attempts,
    permanent,
    stall_ms,
    wire_drop,
    wire_stall,
});
persist_struct!(DriverConfig {
    reps,
    delay_values_ms,
    fca,
    analysis,
    base_seed,
    parallel,
    cache_injections,
    retry,
    chaos,
});
persist_struct!(ThreePhaseConfig {
    budget_per_fault,
    cluster_threshold,
    epsilon,
    seed
});
persist_struct!(BeamConfig {
    beam_size,
    max_len,
    max_delay_injections,
    threads,
    compatibility_check
});
persist_struct!(DetectConfig {
    driver,
    alloc,
    beam
});

// ---------------------------------------------------------------------------
// The snapshot container
// ---------------------------------------------------------------------------

/// Everything a session has computed up to a stage boundary.
///
/// Sections are populated cumulatively: a post-allocation snapshot carries
/// the profile section too, so any later stage can resume from it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Name of the target system the session was driving.
    pub target: String,
    /// [`registry_fingerprint`] of the target's fault-point inventory,
    /// re-checked on resume.
    pub registry_fp: u64,
    /// The full detection configuration (including every seed, so resumed
    /// allocation and stitching replay bit-identically).
    pub cfg: DetectConfig,
    /// The stage boundary the snapshot was taken at.
    pub stage: Stage,
    /// Simulator runs executed so far (profile + injection).
    pub runs_executed: usize,
    /// Cached profile traces per test (present from [`Stage::Profiled`]).
    pub profiles: Option<BTreeMap<TestId, Vec<RunTrace>>>,
    /// Name of the allocation strategy that produced `alloc`.
    pub strategy: Option<String>,
    /// The allocation result (present from [`Stage::Allocated`]).
    pub alloc: Option<AllocationResult>,
    /// Stitched cycles and their clusters (present from [`Stage::Stitched`]).
    pub stitched: Option<StitchedCycles>,
    /// Mid-phase 3PA checkpoint (present only in supervisor checkpoints
    /// written *inside* the allocation stage; stage boundaries clear it).
    pub mid_phase: Option<MidPhaseState>,
}

/// Borrowed view of a snapshot's fields: the encoding path the session's
/// `checkpoint()` uses, so writing a checkpoint never deep-clones the heavy
/// profile/allocation/stitch sections (they dominate session memory).
/// Produces bytes identical to [`Snapshot::to_bytes`] over the same data.
pub(crate) struct SnapshotFields<'a> {
    pub target: &'a str,
    pub registry_fp: u64,
    pub cfg: &'a DetectConfig,
    pub stage: Stage,
    pub runs_executed: usize,
    pub profiles: Option<&'a BTreeMap<TestId, Vec<RunTrace>>>,
    pub strategy: Option<&'a String>,
    pub alloc: Option<&'a AllocationResult>,
    pub stitched: Option<&'a StitchedCycles>,
    pub mid_phase: Option<&'a MidPhaseState>,
}

impl SnapshotFields<'_> {
    /// Encodes into the versioned container format.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_str(self.target, &mut w);
        self.registry_fp.put(&mut w);
        self.cfg.put(&mut w);
        self.stage.tag().put(&mut w);
        self.runs_executed.put(&mut w);
        put_opt(self.profiles, &mut w);
        put_opt(self.strategy, &mut w);
        put_opt(self.alloc, &mut w);
        put_opt(self.stitched, &mut w);
        put_opt(self.mid_phase, &mut w);
        SNAPSHOT.seal(&w.buf)
    }
}

/// Pre-encoded mid-phase checkpoint assembler.
///
/// The session builds one per allocation campaign, encoding the heavy
/// profile block exactly once; each checkpoint then costs only the fresh
/// [`MidPhaseState`] plus a memcpy of the cached blocks. The output is
/// byte-identical to a [`Snapshot`] at [`Stage::Profiled`] carrying the
/// same profiles, strategy name and mid-phase section.
pub(crate) struct MidPhaseCheckpointEncoder {
    /// `target + registry_fp + cfg + stage tag` — everything before the
    /// per-checkpoint `runs_executed` counter.
    head: Vec<u8>,
    /// `opt(profiles) + opt(strategy)` — everything between the counter
    /// and the per-checkpoint tail sections.
    sections: Vec<u8>,
}

impl MidPhaseCheckpointEncoder {
    pub(crate) fn new(
        target: &str,
        registry_fp: u64,
        cfg: &DetectConfig,
        profiles: &BTreeMap<TestId, Vec<RunTrace>>,
        strategy: &str,
    ) -> Self {
        let mut head = Writer::new();
        put_str(target, &mut head);
        registry_fp.put(&mut head);
        cfg.put(&mut head);
        Stage::Profiled.tag().put(&mut head);
        let mut sections = Writer::new();
        put_opt(Some(profiles), &mut sections);
        let strategy = strategy.to_string();
        put_opt(Some(&strategy), &mut sections);
        MidPhaseCheckpointEncoder {
            head: head.buf,
            sections: sections.buf,
        }
    }

    /// Full container bytes for one checkpoint.
    pub(crate) fn encode(&self, mid: &MidPhaseState) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&self.head);
        mid.runs_executed.put(&mut w);
        w.put_bytes(&self.sections);
        put_opt::<AllocationResult>(None, &mut w);
        put_opt::<StitchedCycles>(None, &mut w);
        put_opt(Some(mid), &mut w);
        SNAPSHOT.seal(&w.buf)
    }
}

/// Writes already-encoded bytes to a file with typed I/O errors.
///
/// The write is atomic: bytes are staged in a `<path>.csnake.tmp` sibling,
/// `fsync`ed, and renamed into place. A crash at any point leaves either
/// the previous file intact or the complete new one — never a torn
/// snapshot (the rename is atomic on POSIX filesystems). A stale `.tmp`
/// left by a crash is overwritten by the next write and never read.
///
/// Public so sibling crates persisting derived artifacts (the telemetry
/// flight recorder's Chrome traces and digests) share the exact same
/// atomicity discipline as snapshots.
pub fn write_file_bytes(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".csnake.tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    let staged = (|| {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    staged.map_err(|source| {
        let _ = std::fs::remove_file(&tmp);
        CsnakeError::Io {
            path: path.to_path_buf(),
            source,
        }
    })
}

impl Snapshot {
    /// Encodes the snapshot into the versioned container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        SnapshotFields {
            target: &self.target,
            registry_fp: self.registry_fp,
            cfg: &self.cfg,
            stage: self.stage,
            runs_executed: self.runs_executed,
            profiles: self.profiles.as_ref(),
            strategy: self.strategy.as_ref(),
            alloc: self.alloc.as_ref(),
            stitched: self.stitched.as_ref(),
            mid_phase: self.mid_phase.as_ref(),
        }
        .to_bytes()
    }

    /// Decodes and integrity-checks a snapshot container.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot> {
        let (payload, rest) = SNAPSHOT.open(bytes)?;
        if !rest.is_empty() {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "{} bytes after the snapshot's frame",
                rest.len()
            )));
        }
        let mut r = Reader::new(payload);
        let snap = Snapshot {
            target: String::load(&mut r)?,
            registry_fp: u64::load(&mut r)?,
            cfg: DetectConfig::load(&mut r)?,
            stage: Stage::from_tag(u8::load(&mut r)?)?,
            runs_executed: usize::load(&mut r)?,
            profiles: Option::load(&mut r)?,
            strategy: Option::load(&mut r)?,
            alloc: Option::load(&mut r)?,
            stitched: Option::load(&mut r)?,
            mid_phase: Option::load(&mut r)?,
        };
        if !r.finished() {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "{} trailing bytes after payload",
                payload.len() - r.pos
            )));
        }
        Ok(snap)
    }

    /// Writes the snapshot to a file (conventionally `*.csnake`).
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<()> {
        write_file_bytes(path.as_ref(), &self.to_bytes())
    }

    /// Reads and decodes a snapshot file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Snapshot> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|source| CsnakeError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occurrence(tag: u32) -> Occurrence {
        Occurrence::new(
            [Some(FnId(tag)), None],
            vec![(BranchId(tag), tag.is_multiple_of(2))],
        )
    }

    fn sample_trace() -> RunTrace {
        let mut t = RunTrace::default();
        t.coverage.insert(FaultId(1));
        t.coverage.insert(FaultId(9));
        t.occurrences.insert(FaultId(1), vec![occurrence(7)]);
        t.loop_counts.insert(FaultId(2), 41);
        let mut st = LoopState::default();
        st.entry_stacks.insert([Some(FnId(3)), Some(FnId(4))]);
        st.iter_sigs.insert(123456);
        t.loop_states.insert(FaultId(2), st);
        t.injected = Some((FaultId(1), occurrence(7)));
        t.call_edges.insert((FnId(1), FnId(2)));
        t.hook_count = 99;
        t.flags.insert("data-loss".into());
        t.end_time = VirtualTime::from_millis(1234);
        t.events = 500;
        t
    }

    fn sample_edge(kind: EdgeKind) -> CausalEdge {
        CausalEdge {
            cause: FaultId(1),
            effect: FaultId(2),
            kind,
            test: TestId(3),
            phase: 2,
            cause_state: CompatState::Occurrences(vec![occurrence(1)]),
            effect_state: CompatState::Loop(LoopState::default()),
        }
    }

    fn sample_snapshot(stage: Stage) -> Snapshot {
        let edges = vec![sample_edge(EdgeKind::ED), sample_edge(EdgeKind::SI)];
        let mut profiles = BTreeMap::new();
        profiles.insert(TestId(0), vec![sample_trace(), RunTrace::default()]);
        Snapshot {
            target: "toy".into(),
            registry_fp: 0xFEED_F00D,
            cfg: DetectConfig::default(),
            stage,
            runs_executed: 17,
            profiles: Some(profiles),
            strategy: Some("three-phase".into()),
            alloc: Some(AllocationResult {
                db: CausalDb::from_edges(edges.clone()),
                outcomes: vec![ExperimentOutcome {
                    fault: FaultId(1),
                    test: TestId(0),
                    interference: [FaultId(2)].into_iter().collect(),
                    edges,
                }],
                clusters: vec![vec![FaultId(1)], vec![FaultId(2)]],
                cluster_of: [(FaultId(1), 0), (FaultId(2), 1)].into_iter().collect(),
                sim_scores: vec![0.5, 1.0],
                experiments_run: 1,
                budget: 8,
                gaps: vec![(FaultId(5), TestId(0), 3)],
            }),
            stitched: Some(StitchedCycles {
                cycles: vec![Cycle {
                    edges: vec![0, 1],
                    score: 0.75,
                }],
                clusters: vec![CycleCluster {
                    key: vec![0, 1],
                    cycle_idxs: vec![0],
                }],
            }),
            mid_phase: Some(MidPhaseState {
                phase: 2,
                rng_state: [1, 2, 3, u64::MAX],
                used_at_phase_start: vec![(FaultId(1), TestId(0)), (FaultId(2), TestId(0))],
                spent_at_phase_start: 5,
                executed_in_phase: 3,
                phase1_len: 4,
                outcomes: vec![ExperimentOutcome {
                    fault: FaultId(2),
                    test: TestId(0),
                    interference: BTreeSet::new(),
                    edges: Vec::new(),
                }],
                gaps: vec![(FaultId(9), TestId(0), 2)],
                runs_executed: 40,
                shard_spans: vec![ShardSpan {
                    shard: 3,
                    start: 7,
                    outcomes: vec![ExperimentOutcome {
                        fault: FaultId(4),
                        test: TestId(1),
                        interference: [FaultId(6)].into_iter().collect(),
                        edges: Vec::new(),
                    }],
                    gaps: vec![(FaultId(4), TestId(2), 2)],
                    runs: 6,
                }],
            }),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot(Stage::Stitched);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("roundtrip");
        // Canonical comparison: re-encoding the decoded snapshot must be
        // byte-identical (Debug comparison would trip over the per-instance
        // iteration order of the database's derived hash indexes).
        assert_eq!(bytes, back.to_bytes());
        // The rebuilt causal database also reproduces its derived index.
        let db = &back.alloc.as_ref().unwrap().db;
        assert_eq!(db.edges_from(FaultId(1)).len(), 2);
    }

    /// The whole container of the fixed sample, header included: the
    /// layout of a version-5 file is pinned, not only self-consistent.
    #[test]
    fn sample_snapshot_keeps_its_bytes() {
        let bytes = sample_snapshot(Stage::Profiled).to_bytes();
        assert_eq!(
            (bytes.len(), fnv1a_bytes(&bytes)),
            (524, 0x0ed4_381c_e32c_4e87),
            "snapshot bytes moved"
        );
    }

    /// A configuration in which no leaf holds a value a sibling of the same
    /// type holds, so two fields swapped in an encoder move the bytes (the
    /// default config's all-zero chaos rates hide such a swap).
    fn distinct_config() -> DetectConfig {
        DetectConfig {
            driver: DriverConfig {
                reps: 3,
                delay_values_ms: vec![70, 700],
                fca: FcaConfig {
                    p_value: 0.011,
                    presence_fraction: 0.33,
                },
                analysis: AnalysisConfig {
                    short_loop_fraction: 0.44,
                },
                base_seed: 0xB45E,
                parallel: true,
                cache_injections: false,
                retry: RetryConfig {
                    max_retries: 5,
                    backoff_base_ms: 11,
                    backoff_cap_ms: 1_100,
                },
                chaos: ChaosConfig {
                    seed: 0xC4A05,
                    experiment_panic: 0.125,
                    experiment_stall: 0.25,
                    snapshot_io: 0.375,
                    transient_attempts: 6,
                    permanent: true,
                    stall_ms: 66,
                    wire_drop: 0.5,
                    wire_stall: 0.625,
                },
            },
            alloc: ThreePhaseConfig {
                budget_per_fault: 9,
                cluster_threshold: 0.77,
                epsilon: 0.088,
                seed: 0x5EED,
            },
            beam: BeamConfig {
                beam_size: 123,
                max_len: 12,
                max_delay_injections: Some(2),
                threads: 4,
                compatibility_check: false,
            },
        }
    }

    /// Every leaf of the configuration is pinned at its own offset: the
    /// bytes of [`distinct_config`] are fixed, and they decode back to it.
    #[test]
    fn distinct_config_keeps_its_bytes() {
        let cfg = distinct_config();
        let mut w = Writer::new();
        cfg.put(&mut w);
        let mut r = Reader::new(w.bytes());
        let back = DetectConfig::load(&mut r).expect("decodes");
        assert!(r.finished());
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        assert_eq!(
            (w.bytes().len(), fnv1a_bytes(w.bytes())),
            (164, 0xc83c_0753_d5df_1470),
            "config bytes moved"
        );
    }

    #[test]
    fn truncated_and_garbled_inputs_are_rejected_typed() {
        let bytes = sample_snapshot(Stage::Profiled).to_bytes();

        // Too short for a header → torn (an interrupted write).
        match Snapshot::from_bytes(&bytes[..10]) {
            Err(CsnakeError::SnapshotTorn { expected, found }) => {
                assert_eq!(expected, 24);
                assert_eq!(found, 10);
            }
            other => panic!("expected SnapshotTorn, got {other:?}"),
        }
        // Bad magic → corrupt, even when also short.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
        assert!(matches!(
            Snapshot::from_bytes(&bad[..10]),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
        // Truncated payload → torn, with the full expected size reported.
        match Snapshot::from_bytes(&bytes[..bytes.len() - 5]) {
            Err(CsnakeError::SnapshotTorn { expected, found }) => {
                assert_eq!(expected, bytes.len() as u64);
                assert_eq!(found, bytes.len() as u64 - 5);
            }
            other => panic!("expected SnapshotTorn, got {other:?}"),
        }
        // Trailing junk → corrupt, not torn.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&long),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
        // Flipped payload byte → checksum mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
    }

    /// Every prefix of a valid snapshot must decode to a typed error —
    /// never a panic, never a wrong-but-plausible snapshot. This is the
    /// kill-at-any-byte contract the atomic writer backs up.
    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample_snapshot(Stage::Allocated).to_bytes();
        for cut in 0..bytes.len() {
            match Snapshot::from_bytes(&bytes[..cut]) {
                Err(CsnakeError::SnapshotTorn { found, .. }) => {
                    assert_eq!(found, cut as u64);
                }
                Err(CsnakeError::SnapshotCorrupt(_)) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn mid_phase_section_roundtrips() {
        let snap = sample_snapshot(Stage::Profiled);
        let back = Snapshot::from_bytes(&snap.to_bytes()).expect("roundtrip");
        let mp = back.mid_phase.expect("mid-phase section present");
        assert_eq!(mp, snap.mid_phase.unwrap());

        let mut bare = sample_snapshot(Stage::Profiled);
        bare.mid_phase = None;
        let back = Snapshot::from_bytes(&bare.to_bytes()).expect("roundtrip");
        assert!(back.mid_phase.is_none());
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let path = std::env::temp_dir().join(format!(
            "csnake-atomic-write-test-{}.csnake",
            std::process::id()
        ));
        let snap = sample_snapshot(Stage::Profiled);
        snap.write_file(&path).expect("write");
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".csnake.tmp");
        assert!(!std::path::PathBuf::from(tmp_name).exists());
        let back = Snapshot::read_file(&path).expect("read back");
        assert_eq!(snap.to_bytes(), back.to_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn varints_roundtrip_across_widths() {
        let mut w = Writer::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for v in values {
            w.put_varint(v);
        }
        let mut r = Reader::new(&w.buf);
        for v in values {
            assert_eq!(r.take_varint().unwrap(), v);
        }
        assert!(r.finished());
        // Truncated and over-long varints are typed corruption.
        let mut r = Reader::new(&[0x80]);
        assert!(matches!(
            r.take_varint(),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
        let eleven = [0xFFu8; 11];
        let mut r = Reader::new(&eleven);
        assert!(matches!(
            r.take_varint(),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn duplicate_delta_keys_are_rejected() {
        let mut w = Writer::new();
        w.put_varint(2); // two ids
        w.put_varint(5); // first = 5
        w.put_varint(0); // delta 0 → duplicate
        let mut r = Reader::new(&w.buf);
        assert!(matches!(
            load_id_deltas(&mut r),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
    }

    /// A set or map payload that repeats a key is corrupt; a silent insert
    /// used to decode `[2, 5, 5]` to `{2, 5}`.
    #[test]
    fn duplicate_set_and_map_keys_are_rejected() {
        let mut w = Writer::new();
        vec![2u64, 5, 5].put(&mut w);
        assert!(matches!(
            BTreeSet::<u64>::load(&mut Reader::new(w.bytes())),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
        let mut w = Writer::new();
        vec![(2u64, 1u8), (5, 2), (5, 3)].put(&mut w);
        assert!(matches!(
            BTreeMap::<u64, u8>::load(&mut Reader::new(w.bytes())),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
        // The same payloads without the repeat still decode.
        let mut w = Writer::new();
        vec![2u64, 5].put(&mut w);
        let set = BTreeSet::<u64>::load(&mut Reader::new(w.bytes())).unwrap();
        assert_eq!(set, BTreeSet::from([2, 5]));
    }

    #[test]
    fn overflowing_delta_keys_are_rejected_not_wrapped() {
        // A hostile delta near u64::MAX must not wrap back into u32 range.
        let mut w = Writer::new();
        w.put_varint(2);
        w.put_varint(7); // first = 7
        w.put_varint(u64::MAX - 6); // 7 + delta wraps to 0 if unchecked
        let mut r = Reader::new(&w.buf);
        assert!(matches!(
            load_id_deltas(&mut r),
            Err(CsnakeError::SnapshotCorrupt(_))
        ));
    }

    /// The marginal cost of the dense-id sections (the ROADMAP
    /// "snapshot size" item): 2000 coverage ids + 2000 loop counts must
    /// encode in a few bytes each, not the 4–8 fixed-width bytes of
    /// format version 1 (which spent 16 bytes per (id, count) entry and
    /// 4 per coverage id — ≈40 KiB for this trace).
    #[test]
    fn dense_id_sections_encode_severalfold_smaller_than_fixed_width() {
        let empty = RunTrace::default();
        let mut dense = RunTrace::default();
        for i in 0..2000u32 {
            dense.coverage.insert(FaultId(i));
            dense.loop_counts.insert(FaultId(i), (i % 90) as u64);
        }
        let size_of = |t: &RunTrace| {
            let mut w = Writer::new();
            t.put(&mut w);
            w.buf.len()
        };
        let marginal = size_of(&dense) - size_of(&empty);
        assert!(
            marginal < 9_000,
            "2000 coverage ids + 2000 loop counts took {marginal} bytes"
        );
        // And the encoding stays exact.
        let mut w = Writer::new();
        dense.put(&mut w);
        let mut r = Reader::new(&w.buf);
        let back = RunTrace::load(&mut r).unwrap();
        assert!(r.finished());
        assert_eq!(dense.coverage, back.coverage);
        assert_eq!(dense.loop_counts, back.loop_counts);
    }

    #[test]
    fn version_1_files_are_rejected_typed() {
        let mut bytes = sample_snapshot(Stage::Profiled).to_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        match Snapshot::from_bytes(&bytes) {
            Err(CsnakeError::SnapshotVersion { found, supported }) => {
                assert_eq!(found, 1);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected SnapshotVersion, got {other:?}"),
        }
    }

    /// Exactly one version is read.
    #[test]
    fn version_3_files_are_rejected_typed() {
        for version in [1, 3, 4, SNAPSHOT_VERSION + 1] {
            let mut bytes = sample_snapshot(Stage::Profiled).to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match Snapshot::from_bytes(&bytes) {
                Err(CsnakeError::SnapshotVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, SNAPSHOT_VERSION);
                }
                other => panic!("version {version}: expected SnapshotVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_bump_is_a_typed_error() {
        let mut bytes = sample_snapshot(Stage::Profiled).to_bytes();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        match Snapshot::from_bytes(&bytes) {
            Err(CsnakeError::SnapshotVersion { found, supported }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected SnapshotVersion, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip_and_io_errors() {
        let snap = sample_snapshot(Stage::Allocated);
        let path = std::env::temp_dir().join(format!(
            "csnake-snapshot-test-{}.csnake",
            std::process::id()
        ));
        snap.write_file(&path).expect("write");
        let back = Snapshot::read_file(&path).expect("read");
        assert_eq!(snap.to_bytes(), back.to_bytes());
        std::fs::remove_file(&path).ok();

        match Snapshot::read_file(&path) {
            Err(CsnakeError::Io { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
