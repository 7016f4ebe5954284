//! Compact binary trace codec ("ATSB").
//!
//! The suite's one on-disk trace format. A self-describing text encoding
//! would spend most of its bytes on key names and decimal digits; this
//! columnar layout spends about four bytes per event instead, and streams
//! location by location. `ats trace dump` prints it readably. Layout (all
//! integers little-endian, `v` = LEB128 varint, `z` = zigzag varint):
//!
//! ```text
//! magic "ATSB" | version u16 | flags u16
//! region table:  count v, then per region: name-len v, name bytes, kind u8
//! comm table:    count v, then per comm:   id v, member count v, members v*
//! locations:     count v, then per location block:
//!   rank v | thread v | event count n v
//!   tag column      n × u8            (0=Enter 1=Exit 2=Send 3=Recv 4=CollEnd)
//!   time column     n × z             (delta from previous event, wrapping)
//!   Enter/Exit      region v          (in event order)
//!   Send            to v*  comm v*  tag z*  bytes v*
//!   Recv            from v* comm v* tag z* bytes v* posted z* (delta from time)
//!   CollEnd         op u8* comm v* root v* (0=none, r+1) seq v* bytes v*
//!                   entered z* (delta from time)
//! ```
//!
//! Grouping same-typed fields into columns keeps each varint stream
//! homogeneous (timestamps are near-monotone, ranks are small), which is
//! where the size win over row-major encoding comes from. Timestamp and
//! `posted`/`entered` deltas use *wrapping* subtraction, so the codec is
//! lossless for arbitrary `u64` sequences — monotonicity is an invariant of
//! well-formed traces, not of the format.
//!
//! Versioning policy: `VERSION` is bumped on any layout change; readers
//! accept `1..=VERSION` and reject newer files with a clean
//! [`TraceIoError::Format`] (never a panic), so old binaries fail loudly on
//! future artifacts. The `flags` word is reserved (writers emit 0, readers
//! ignore it) to leave room for backwards-compatible extensions.
//!
//! Decoding is strict: every read is bounds-checked, speculative
//! allocations driven by untrusted counts are clamped (a corrupt count can
//! only cost a bounded pre-allocation before the byte stream runs dry),
//! unknown tags / kinds / ops and trailing garbage are format errors.
//!
//! Two access paths share one decoding core:
//!
//! * [`decode`] / [`read_binary`] materialize a full [`Trace`] — the
//!   differential oracle and the default for small artifacts;
//! * [`BlockReader`] iterates per-location column blocks into one reused
//!   [`LocationBlock`] whose [`events`](LocationBlock::events) iterator
//!   assembles events on the fly, so a consumer that folds each block into
//!   partial state (the streaming analyzer) holds one location's columns
//!   in memory at a time, never the whole event vector. [`BlockWriter`]
//!   is the producing mirror: it emits a trace location-by-location and is
//!   byte-identical to [`encode`], which lets generators write traces far
//!   larger than memory.

use crate::event::{CollOp, Event, EventKind, LocationId};
use crate::io::TraceIoError;
use crate::region::{RegionId, RegionKind, RegionMeta};
use crate::trace::{CommDef, LocationTrace, Trace};
use ats_runtime::VTime;
use std::io::{Read, Write};

/// File magic: the first four bytes of every binary trace.
pub const MAGIC: [u8; 4] = *b"ATSB";

/// Current (and newest understood) format version.
pub const VERSION: u16 = 1;

const TAG_ENTER: u8 = 0;
const TAG_EXIT: u8 = 1;
const TAG_SEND: u8 = 2;
const TAG_RECV: u8 = 3;
const TAG_COLL: u8 = 4;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn tag_of(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Enter { .. } => TAG_ENTER,
        EventKind::Exit { .. } => TAG_EXIT,
        EventKind::Send { .. } => TAG_SEND,
        EventKind::Recv { .. } => TAG_RECV,
        EventKind::CollEnd { .. } => TAG_COLL,
    }
}

fn kind_code(kind: RegionKind) -> u8 {
    match kind {
        RegionKind::Work => 0,
        RegionKind::MpiP2p => 1,
        RegionKind::MpiCollective => 2,
        RegionKind::MpiSetup => 3,
        RegionKind::OmpParallel => 4,
        RegionKind::OmpSync => 5,
        RegionKind::OmpWorkshare => 6,
        RegionKind::Property => 7,
        RegionKind::User => 8,
    }
}

fn kind_from_code(code: u8) -> Option<RegionKind> {
    Some(match code {
        0 => RegionKind::Work,
        1 => RegionKind::MpiP2p,
        2 => RegionKind::MpiCollective,
        3 => RegionKind::MpiSetup,
        4 => RegionKind::OmpParallel,
        5 => RegionKind::OmpSync,
        6 => RegionKind::OmpWorkshare,
        7 => RegionKind::Property,
        8 => RegionKind::User,
        _ => return None,
    })
}

fn op_code(op: CollOp) -> u8 {
    match op {
        CollOp::Barrier => 0,
        CollOp::Bcast => 1,
        CollOp::Scatter => 2,
        CollOp::Scatterv => 3,
        CollOp::Gather => 4,
        CollOp::Gatherv => 5,
        CollOp::Reduce => 6,
        CollOp::Allreduce => 7,
        CollOp::Allgather => 8,
        CollOp::Alltoall => 9,
        CollOp::Alltoallv => 10,
        CollOp::Scan => 11,
        CollOp::OmpBarrier => 12,
        CollOp::OmpFork => 13,
        CollOp::OmpJoin => 14,
    }
}

fn op_from_code(code: u8) -> Option<CollOp> {
    Some(match code {
        0 => CollOp::Barrier,
        1 => CollOp::Bcast,
        2 => CollOp::Scatter,
        3 => CollOp::Scatterv,
        4 => CollOp::Gather,
        5 => CollOp::Gatherv,
        6 => CollOp::Reduce,
        7 => CollOp::Allreduce,
        8 => CollOp::Allgather,
        9 => CollOp::Alltoall,
        10 => CollOp::Alltoallv,
        11 => CollOp::Scan,
        12 => CollOp::OmpBarrier,
        13 => CollOp::OmpFork,
        14 => CollOp::OmpJoin,
        _ => return None,
    })
}

/// Write the file header: magic, version, flags, region and comm tables.
fn encode_tables(buf: &mut Vec<u8>, regions: &[RegionMeta], comms: &[CommDef]) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    put_varint(buf, regions.len() as u64);
    for meta in regions {
        put_varint(buf, meta.name.len() as u64);
        buf.extend_from_slice(meta.name.as_bytes());
        buf.push(kind_code(meta.kind));
    }
    put_varint(buf, comms.len() as u64);
    for comm in comms {
        put_varint(buf, comm.id as u64);
        put_varint(buf, comm.members.len() as u64);
        for &m in &comm.members {
            put_varint(buf, m as u64);
        }
    }
}

/// Encode a trace into an owned binary buffer.
pub fn encode(trace: &Trace) -> Vec<u8> {
    // ~4 bytes/event after delta+varint compression; headroom avoids one
    // realloc on the common figure-sized traces.
    let mut buf = Vec::with_capacity(256 + trace.num_events() * 6);
    encode_tables(&mut buf, &trace.regions, &trace.comms);
    put_varint(&mut buf, trace.locations.len() as u64);
    let mut columns = Columns::default();
    for loc in &trace.locations {
        columns.encode_location(&mut buf, loc);
    }
    buf
}

/// Scratch buffers for the columns that follow a block's tag column, so
/// one pass over the events fills them all. Reused across blocks, they
/// stop reallocating once they reach the largest block's size.
#[derive(Debug, Default)]
struct Columns {
    times: Vec<u8>,
    regions: Vec<u8>,
    /// to, comm, tag, bytes.
    send: [Vec<u8>; 4],
    /// from, comm, tag, bytes, posted.
    recv: [Vec<u8>; 5],
    /// op, comm, root, seq, bytes, entered.
    coll: [Vec<u8>; 6],
}

impl Columns {
    /// Append `loc`'s block to `buf`: the tag column straight into `buf`,
    /// every other column into its scratch buffer, then those in layout
    /// order.
    fn encode_location(&mut self, buf: &mut Vec<u8>, loc: &LocationTrace) {
        put_varint(buf, loc.location.rank as u64);
        put_varint(buf, loc.location.thread as u64);
        put_varint(buf, loc.events.len() as u64);
        buf.reserve(loc.events.len());
        let mut prev = 0u64;
        for e in &loc.events {
            buf.push(tag_of(&e.kind));
            put_varint(&mut self.times, zigzag(e.time.0.wrapping_sub(prev) as i64));
            prev = e.time.0;
            let since = |t: VTime| zigzag(t.0.wrapping_sub(e.time.0) as i64);
            match e.kind {
                EventKind::Enter { region } | EventKind::Exit { region } => {
                    put_varint(&mut self.regions, region.0 as u64);
                }
                EventKind::Send {
                    to,
                    comm,
                    tag,
                    bytes,
                } => {
                    let [c_to, c_comm, c_tag, c_bytes] = &mut self.send;
                    put_varint(c_to, to as u64);
                    put_varint(c_comm, comm as u64);
                    put_varint(c_tag, zigzag(tag as i64));
                    put_varint(c_bytes, bytes);
                }
                EventKind::Recv {
                    from,
                    comm,
                    tag,
                    bytes,
                    posted,
                } => {
                    let [c_from, c_comm, c_tag, c_bytes, c_posted] = &mut self.recv;
                    put_varint(c_from, from as u64);
                    put_varint(c_comm, comm as u64);
                    put_varint(c_tag, zigzag(tag as i64));
                    put_varint(c_bytes, bytes);
                    put_varint(c_posted, since(posted));
                }
                EventKind::CollEnd {
                    op,
                    comm,
                    root,
                    seq,
                    bytes,
                    entered,
                } => {
                    let [c_op, c_comm, c_root, c_seq, c_bytes, c_entered] = &mut self.coll;
                    c_op.push(op_code(op));
                    put_varint(c_comm, comm as u64);
                    put_varint(c_root, root.map(|r| r as u64 + 1).unwrap_or(0));
                    put_varint(c_seq, seq);
                    put_varint(c_bytes, bytes);
                    put_varint(c_entered, since(entered));
                }
            }
        }
        let columns = [&mut self.times, &mut self.regions]
            .into_iter()
            .chain(&mut self.send)
            .chain(&mut self.recv)
            .chain(&mut self.coll);
        for column in columns {
            buf.extend_from_slice(column);
            column.clear();
        }
    }
}

/// Upper bound on any single pre-allocation driven by an untrusted varint
/// count. Counts in a well-formed file are redundant with the byte stream
/// (every counted element occupies at least one encoded byte), but a
/// corrupt or adversarial header can claim arbitrarily many elements; the
/// reader therefore never reserves more than this many bytes up front and
/// lets the vectors grow organically — a bogus count then runs the stream
/// dry (a clean [`TraceIoError::Format`]) long before memory is at risk.
const MAX_PREALLOC_BYTES: usize = 1 << 20;

/// Capacity to pre-reserve for `n` untrusted elements of `elem` bytes.
fn clamped_cap(n: usize, elem: usize) -> usize {
    n.min(MAX_PREALLOC_BYTES / elem.max(1))
}

/// A bounds-checked buffered cursor over any byte source. Every primitive
/// read reports *where* and *what* failed, so corrupt-input errors are
/// actionable; running out of bytes is a format error (truncation), never
/// a panic.
struct StreamCursor<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Absolute offset of the next unconsumed byte.
    consumed: u64,
}

const CURSOR_BUF: usize = 64 * 1024;

/// The most bytes a `u64` varint occupies.
const MAX_VARINT: usize = 10;

impl<R: Read> StreamCursor<R> {
    fn new(inner: R) -> Self {
        StreamCursor {
            inner,
            buf: vec![0; CURSOR_BUF],
            start: 0,
            end: 0,
            consumed: 0,
        }
    }

    fn fail(&self, what: &str) -> TraceIoError {
        TraceIoError::Format(format!(
            "binary trace: truncated or corrupt at byte {}: {what}",
            self.consumed
        ))
    }

    /// Ensure at least one buffered byte; `Ok(false)` at end of input.
    fn refill(&mut self) -> Result<bool, TraceIoError> {
        if self.start < self.end {
            return Ok(true);
        }
        self.start = 0;
        self.end = 0;
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.end = n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceIoError::Io(e)),
            }
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, TraceIoError> {
        if !self.refill()? {
            return Err(self.fail(what));
        }
        let b = self.buf[self.start];
        self.skip(1);
        Ok(b)
    }

    fn u16_le(&mut self, what: &str) -> Result<u16, TraceIoError> {
        let lo = self.u8(what)?;
        let hi = self.u8(what)?;
        Ok(u16::from_le_bytes([lo, hi]))
    }

    /// Append exactly `n` bytes to `out` (cleared first), clamping the
    /// speculative reservation.
    fn read_bytes_into(
        &mut self,
        out: &mut Vec<u8>,
        n: usize,
        what: &str,
    ) -> Result<(), TraceIoError> {
        out.clear();
        out.reserve(clamped_cap(n, 1));
        let mut left = n;
        while left > 0 {
            if !self.refill()? {
                return Err(self.fail(what));
            }
            let take = left.min(self.end - self.start);
            out.extend_from_slice(&self.buf[self.start..self.start + take]);
            self.skip(take);
            left -= take;
        }
        Ok(())
    }

    fn varint(&mut self, what: &str) -> Result<u64, TraceIoError> {
        if self.end - self.start >= MAX_VARINT {
            return self.buffered_varint();
        }
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8(what)?;
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(self.fail("varint overflows u64"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.fail("varint longer than 10 bytes"))
    }

    /// [`varint`](Self::varint) decoded in place when the buffer holds a
    /// whole varint's worth of bytes: the same value or error, at the same
    /// byte offset, without a refill check per byte.
    fn buffered_varint(&mut self) -> Result<u64, TraceIoError> {
        let bytes = &self.buf[self.start..self.start + MAX_VARINT];
        let mut v: u64 = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let low = (b & 0x7f) as u64;
            if i == MAX_VARINT - 1 && low > 1 {
                self.skip(MAX_VARINT);
                return Err(self.fail("varint overflows u64"));
            }
            v |= low << (7 * i);
            if b & 0x80 == 0 {
                self.skip(i + 1);
                return Ok(v);
            }
        }
        self.skip(MAX_VARINT);
        Err(self.fail("varint longer than 10 bytes"))
    }

    /// Consume `n` buffered bytes.
    fn skip(&mut self, n: usize) {
        self.start += n;
        self.consumed += n as u64;
    }

    fn varint_u32(&mut self, what: &str) -> Result<u32, TraceIoError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| self.fail(what))
    }

    fn varint_i32(&mut self, what: &str) -> Result<i32, TraceIoError> {
        let v = unzigzag(self.varint(what)?);
        i32::try_from(v).map_err(|_| self.fail(what))
    }

    /// A varint element count. Unlike elements, counts cannot be validated
    /// against "bytes remaining" on a stream; allocation sites clamp with
    /// [`clamped_cap`] instead.
    fn count(&mut self, what: &str) -> Result<usize, TraceIoError> {
        let v = self.varint(what)?;
        usize::try_from(v).map_err(|_| self.fail(what))
    }

    /// Consume to end of input, returning how many bytes were left.
    fn count_trailing(&mut self) -> Result<u64, TraceIoError> {
        let mut n = (self.end - self.start) as u64;
        self.start = self.end;
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => return Ok(n),
                Ok(k) => n += k as u64,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceIoError::Io(e)),
            }
        }
    }
}

/// One decoded per-location column block. [`BlockReader`] reuses a single
/// instance across blocks, so the column vectors stop reallocating once
/// they reach the size of the largest block.
#[derive(Debug, Default)]
pub struct LocationBlock {
    location: Option<LocationId>,
    tags: Vec<u8>,
    times: Vec<u64>,
    regions: Vec<u32>,
    send_to: Vec<u32>,
    send_comm: Vec<u32>,
    send_tag: Vec<i32>,
    send_bytes: Vec<u64>,
    recv_from: Vec<u32>,
    recv_comm: Vec<u32>,
    recv_tag: Vec<i32>,
    recv_bytes: Vec<u64>,
    recv_posted: Vec<i64>,
    coll_op: Vec<CollOp>,
    coll_comm: Vec<u32>,
    coll_root: Vec<Option<u32>>,
    coll_seq: Vec<u64>,
    coll_bytes: Vec<u64>,
    coll_entered: Vec<i64>,
}

impl LocationBlock {
    /// The location this block belongs to.
    pub fn location(&self) -> LocationId {
        self.location.unwrap_or(LocationId { rank: 0, thread: 0 })
    }

    /// Number of events in the block.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if the block holds no events.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Timestamp of the first event, if any.
    pub fn start_time(&self) -> Option<VTime> {
        self.times.first().map(|&t| VTime(t))
    }

    /// Timestamp of the last event, if any.
    pub fn end_time(&self) -> Option<VTime> {
        self.times.last().map(|&t| VTime(t))
    }

    /// Iterate the block's events in order, assembling each [`Event`] from
    /// the columns on the fly. Infallible: tags, ops and roots were
    /// validated during the block read.
    pub fn events(&self) -> BlockEvents<'_> {
        BlockEvents {
            b: self,
            i: 0,
            ir: 0,
            is: 0,
            iv: 0,
            ic: 0,
        }
    }

    /// Materialize the block as an owned [`LocationTrace`].
    pub fn to_location_trace(&self) -> LocationTrace {
        LocationTrace {
            location: self.location(),
            events: self.events().collect(),
        }
    }

    /// Decode the next block from `cur` into `self`, reusing buffers.
    fn read_from<R: Read>(&mut self, cur: &mut StreamCursor<R>) -> Result<(), TraceIoError> {
        let rank = cur.varint_u32("location rank")?;
        let thread = cur.varint_u32("location thread")?;
        self.location = Some(LocationId::new(rank, thread));
        let n = cur.count("event count")?;

        cur.read_bytes_into(&mut self.tags, n, "event tag column")?;
        let (mut n_region, mut n_send, mut n_recv, mut n_coll) = (0usize, 0usize, 0usize, 0usize);
        for &t in &self.tags {
            match t {
                TAG_ENTER | TAG_EXIT => n_region += 1,
                TAG_SEND => n_send += 1,
                TAG_RECV => n_recv += 1,
                TAG_COLL => n_coll += 1,
                _ => {
                    return Err(TraceIoError::Format(format!(
                        "binary trace: unknown event tag {t}"
                    )))
                }
            }
        }

        self.times.clear();
        self.times.reserve(clamped_cap(n, 8));
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev.wrapping_add(unzigzag(cur.varint("time column")?) as u64);
            self.times.push(prev);
        }

        fn col_u32<R: Read>(
            cur: &mut StreamCursor<R>,
            out: &mut Vec<u32>,
            n: usize,
            what: &str,
        ) -> Result<(), TraceIoError> {
            out.clear();
            out.reserve(clamped_cap(n, 4));
            for _ in 0..n {
                out.push(cur.varint_u32(what)?);
            }
            Ok(())
        }
        fn col_u64<R: Read>(
            cur: &mut StreamCursor<R>,
            out: &mut Vec<u64>,
            n: usize,
            what: &str,
        ) -> Result<(), TraceIoError> {
            out.clear();
            out.reserve(clamped_cap(n, 8));
            for _ in 0..n {
                out.push(cur.varint(what)?);
            }
            Ok(())
        }
        fn col_i32<R: Read>(
            cur: &mut StreamCursor<R>,
            out: &mut Vec<i32>,
            n: usize,
            what: &str,
        ) -> Result<(), TraceIoError> {
            out.clear();
            out.reserve(clamped_cap(n, 4));
            for _ in 0..n {
                out.push(cur.varint_i32(what)?);
            }
            Ok(())
        }
        fn col_delta<R: Read>(
            cur: &mut StreamCursor<R>,
            out: &mut Vec<i64>,
            n: usize,
            what: &str,
        ) -> Result<(), TraceIoError> {
            out.clear();
            out.reserve(clamped_cap(n, 8));
            for _ in 0..n {
                out.push(unzigzag(cur.varint(what)?));
            }
            Ok(())
        }

        col_u32(cur, &mut self.regions, n_region, "region column")?;
        col_u32(cur, &mut self.send_to, n_send, "send-to column")?;
        col_u32(cur, &mut self.send_comm, n_send, "send-comm column")?;
        col_i32(cur, &mut self.send_tag, n_send, "send-tag column")?;
        col_u64(cur, &mut self.send_bytes, n_send, "send-bytes column")?;
        col_u32(cur, &mut self.recv_from, n_recv, "recv-from column")?;
        col_u32(cur, &mut self.recv_comm, n_recv, "recv-comm column")?;
        col_i32(cur, &mut self.recv_tag, n_recv, "recv-tag column")?;
        col_u64(cur, &mut self.recv_bytes, n_recv, "recv-bytes column")?;
        col_delta(cur, &mut self.recv_posted, n_recv, "recv-posted column")?;
        self.coll_op.clear();
        self.coll_op.reserve(clamped_cap(n_coll, 1));
        for _ in 0..n_coll {
            let code = cur.u8("coll-op column")?;
            self.coll_op.push(op_from_code(code).ok_or_else(|| {
                TraceIoError::Format(format!("binary trace: unknown collective op code {code}"))
            })?);
        }
        col_u32(cur, &mut self.coll_comm, n_coll, "coll-comm column")?;
        self.coll_root.clear();
        self.coll_root.reserve(clamped_cap(n_coll, 8));
        for _ in 0..n_coll {
            self.coll_root.push(match cur.varint("coll-root column")? {
                0 => None,
                v => Some(u32::try_from(v - 1).map_err(|_| {
                    TraceIoError::Format(format!(
                        "binary trace: collective root {} exceeds u32",
                        v - 1
                    ))
                })?),
            });
        }
        col_u64(cur, &mut self.coll_seq, n_coll, "coll-seq column")?;
        col_u64(cur, &mut self.coll_bytes, n_coll, "coll-bytes column")?;
        col_delta(cur, &mut self.coll_entered, n_coll, "coll-entered column")?;
        Ok(())
    }
}

/// Iterator over a [`LocationBlock`]'s events. See
/// [`LocationBlock::events`].
pub struct BlockEvents<'a> {
    b: &'a LocationBlock,
    i: usize,
    ir: usize,
    is: usize,
    iv: usize,
    ic: usize,
}

impl Iterator for BlockEvents<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let t = *self.b.tags.get(self.i)?;
        let time = VTime(self.b.times[self.i]);
        self.i += 1;
        let kind = match t {
            TAG_ENTER | TAG_EXIT => {
                let region = RegionId(self.b.regions[self.ir]);
                self.ir += 1;
                if t == TAG_ENTER {
                    EventKind::Enter { region }
                } else {
                    EventKind::Exit { region }
                }
            }
            TAG_SEND => {
                let k = EventKind::Send {
                    to: self.b.send_to[self.is],
                    comm: self.b.send_comm[self.is],
                    tag: self.b.send_tag[self.is],
                    bytes: self.b.send_bytes[self.is],
                };
                self.is += 1;
                k
            }
            TAG_RECV => {
                let k = EventKind::Recv {
                    from: self.b.recv_from[self.iv],
                    comm: self.b.recv_comm[self.iv],
                    tag: self.b.recv_tag[self.iv],
                    bytes: self.b.recv_bytes[self.iv],
                    posted: VTime(time.0.wrapping_add(self.b.recv_posted[self.iv] as u64)),
                };
                self.iv += 1;
                k
            }
            _ => {
                let k = EventKind::CollEnd {
                    op: self.b.coll_op[self.ic],
                    comm: self.b.coll_comm[self.ic],
                    root: self.b.coll_root[self.ic],
                    seq: self.b.coll_seq[self.ic],
                    bytes: self.b.coll_bytes[self.ic],
                    entered: VTime(time.0.wrapping_add(self.b.coll_entered[self.ic] as u64)),
                };
                self.ic += 1;
                k
            }
        };
        Some(Event::new(time, kind))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.b.tags.len() - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for BlockEvents<'_> {}

/// Streaming reader over an ATSB byte source: parses the header and the
/// region/communicator tables eagerly, then yields one [`LocationBlock`]
/// at a time from a reused buffer. Peak memory is one block's columns, not
/// the whole trace.
pub struct BlockReader<R: Read> {
    cur: StreamCursor<R>,
    regions: Vec<RegionMeta>,
    comms: Vec<CommDef>,
    n_locations: u64,
    read_locations: u64,
    trailing_checked: bool,
    block: LocationBlock,
}

impl<R: Read> BlockReader<R> {
    /// Parse the file header and tables; fails on bad magic, unsupported
    /// versions, or corrupt tables.
    pub fn new(r: R) -> Result<Self, TraceIoError> {
        let mut cur = StreamCursor::new(r);
        let magic = [
            cur.u8("magic")?,
            cur.u8("magic")?,
            cur.u8("magic")?,
            cur.u8("magic")?,
        ];
        if magic != MAGIC {
            return Err(TraceIoError::Format(
                "binary trace: bad magic (not an ATSB file)".to_owned(),
            ));
        }
        let version = cur.u16_le("version")?;
        if version == 0 || version > VERSION {
            return Err(TraceIoError::Format(format!(
                "binary trace: unsupported format version {version} (this reader understands 1..={VERSION})"
            )));
        }
        let _flags = cur.u16_le("flags")?;

        let n_regions = cur.count("region count")?;
        let mut regions =
            Vec::with_capacity(clamped_cap(n_regions, std::mem::size_of::<RegionMeta>()));
        let mut namebuf = Vec::new();
        for i in 0..n_regions {
            let len = cur.count("region name length")?;
            cur.read_bytes_into(&mut namebuf, len, "region name")?;
            let name = std::str::from_utf8(&namebuf)
                .map_err(|_| {
                    TraceIoError::Format(format!("binary trace: region {i} name is not UTF-8"))
                })?
                .to_owned();
            let code = cur.u8("region kind")?;
            let kind = kind_from_code(code).ok_or_else(|| {
                TraceIoError::Format(format!("binary trace: unknown region kind code {code}"))
            })?;
            regions.push(RegionMeta { name, kind });
        }

        let n_comms = cur.count("communicator count")?;
        let mut comms = Vec::with_capacity(clamped_cap(n_comms, std::mem::size_of::<CommDef>()));
        for _ in 0..n_comms {
            let id = cur.varint_u32("communicator id")?;
            let n_members = cur.count("communicator member count")?;
            let mut members = Vec::with_capacity(clamped_cap(n_members, 4));
            for _ in 0..n_members {
                members.push(cur.varint_u32("communicator member")?);
            }
            comms.push(CommDef { id, members });
        }

        let n_locations = cur.count("location count")? as u64;
        Ok(BlockReader {
            cur,
            regions,
            comms,
            n_locations,
            read_locations: 0,
            trailing_checked: false,
            block: LocationBlock::default(),
        })
    }

    /// The decoded region table.
    pub fn regions(&self) -> &[RegionMeta] {
        &self.regions
    }

    /// The decoded communicator table.
    pub fn comms(&self) -> &[CommDef] {
        &self.comms
    }

    /// Move the region and communicator tables out of the reader (e.g. to
    /// build a locationless shell [`Trace`] for name lookups) without
    /// cloning; subsequent [`regions`](Self::regions)/[`comms`](Self::comms)
    /// calls see empty tables.
    pub fn take_tables(&mut self) -> (Vec<RegionMeta>, Vec<CommDef>) {
        (
            std::mem::take(&mut self.regions),
            std::mem::take(&mut self.comms),
        )
    }

    /// Number of location blocks the header declares.
    pub fn n_locations(&self) -> u64 {
        self.n_locations
    }

    /// Bytes consumed from the source so far.
    pub fn bytes_read(&self) -> u64 {
        self.cur.consumed
    }

    /// Decode the next location block, or `None` after the last one. The
    /// final call verifies the stream is exhausted, so trailing garbage is
    /// an error exactly as in [`decode`].
    pub fn next_block(&mut self) -> Result<Option<&LocationBlock>, TraceIoError> {
        if self.read_locations == self.n_locations {
            if !self.trailing_checked {
                let extra = self.cur.count_trailing()?;
                self.trailing_checked = true;
                if extra > 0 {
                    return Err(TraceIoError::Format(format!(
                        "binary trace: {extra} trailing bytes after last location block"
                    )));
                }
            }
            return Ok(None);
        }
        self.block.read_from(&mut self.cur)?;
        self.read_locations += 1;
        Ok(Some(&self.block))
    }

    /// Drain any remaining blocks (performing the trailing-garbage check)
    /// and return the total bytes consumed.
    pub fn finish(mut self) -> Result<u64, TraceIoError> {
        while self.next_block()?.is_some() {}
        Ok(self.cur.consumed)
    }
}

/// Decode a binary trace from an in-memory buffer.
pub fn decode(data: &[u8]) -> Result<Trace, TraceIoError> {
    read_binary(data)
}

/// Write a trace in binary form.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    w.write_all(&encode(trace))?;
    w.flush()?;
    Ok(())
}

/// Read a trace written by [`write_binary`]. This never buffers the whole
/// file: blocks stream through one reused [`LocationBlock`].
pub fn read_binary<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut br = BlockReader::new(r)?;
    let mut locations = Vec::with_capacity(clamped_cap(
        br.n_locations() as usize,
        std::mem::size_of::<LocationTrace>(),
    ));
    while let Some(block) = br.next_block()? {
        locations.push(block.to_location_trace());
    }
    let (regions, comms) = br.take_tables();
    Ok(Trace::with_comms(regions, comms, locations))
}

/// Streaming writer mirroring [`BlockReader`]: emits the header and tables
/// up front, then one location block per
/// [`write_location`](Self::write_location) call. The byte stream is
/// identical to [`encode`] over the same trace, so readers cannot tell the
/// two writers apart — which is what lets a generator produce traces far
/// larger than memory.
pub struct BlockWriter<W: Write> {
    w: W,
    /// The block being written and its column scratch, both reused.
    block: Vec<u8>,
    columns: Columns,
    declared: u64,
    written: u64,
    bytes: u64,
}

impl<W: Write> BlockWriter<W> {
    /// Write the header, tables and the declared location count.
    pub fn new(
        mut w: W,
        regions: &[RegionMeta],
        comms: &[CommDef],
        n_locations: u64,
    ) -> Result<Self, TraceIoError> {
        let mut buf = Vec::with_capacity(4096);
        encode_tables(&mut buf, regions, comms);
        put_varint(&mut buf, n_locations);
        w.write_all(&buf)?;
        let bytes = buf.len() as u64;
        Ok(BlockWriter {
            w,
            block: buf,
            columns: Columns::default(),
            declared: n_locations,
            written: 0,
            bytes,
        })
    }

    /// Append one location block. Locations must arrive sorted by
    /// `LocationId` with no duplicates for the result to satisfy the
    /// [`Trace`] invariants readers rely on; the writer itself only
    /// enforces the declared count.
    pub fn write_location(&mut self, loc: &LocationTrace) -> Result<(), TraceIoError> {
        if self.written == self.declared {
            return Err(TraceIoError::Format(format!(
                "binary trace: more location blocks written than the {} declared",
                self.declared
            )));
        }
        self.block.clear();
        self.columns.encode_location(&mut self.block, loc);
        self.w.write_all(&self.block)?;
        self.bytes += self.block.len() as u64;
        self.written += 1;
        Ok(())
    }

    /// Flush and return the total bytes written. Fails if fewer blocks
    /// were written than declared (the file would be unreadable).
    pub fn finish(mut self) -> Result<u64, TraceIoError> {
        if self.written != self.declared {
            return Err(TraceIoError::Format(format!(
                "binary trace: {} location blocks written but {} declared",
                self.written, self.declared
            )));
        }
        self.w.flush()?;
        Ok(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let regions = vec![
            RegionMeta {
                name: "work".into(),
                kind: RegionKind::Work,
            },
            RegionMeta {
                name: "MPI_Send".into(),
                kind: RegionKind::MpiP2p,
            },
            RegionMeta {
                name: "MPI_Bcast".into(),
                kind: RegionKind::MpiCollective,
            },
        ];
        let comms = vec![
            CommDef {
                id: 0,
                members: vec![0, 1, 2, 3],
            },
            CommDef {
                id: 1,
                members: vec![0, 2],
            },
        ];
        let locations = (0..4u32)
            .map(|rank| {
                let mut events = vec![
                    Event::new(
                        VTime(5),
                        EventKind::Enter {
                            region: RegionId(0),
                        },
                    ),
                    Event::new(
                        VTime(1_000_000 + rank as u64),
                        EventKind::Send {
                            to: (rank + 1) % 4,
                            comm: 0,
                            tag: -7,
                            bytes: 1 << 20,
                        },
                    ),
                    Event::new(
                        VTime(2_000_000),
                        EventKind::Recv {
                            from: (rank + 3) % 4,
                            comm: 0,
                            tag: -7,
                            bytes: 1 << 20,
                            posted: VTime(900_000),
                        },
                    ),
                    Event::new(
                        VTime(3_000_000),
                        EventKind::CollEnd {
                            op: CollOp::Bcast,
                            comm: 1,
                            root: Some(2),
                            seq: 11,
                            bytes: 4096,
                            entered: VTime(2_500_000),
                        },
                    ),
                    Event::new(
                        VTime(3_000_001),
                        EventKind::CollEnd {
                            op: CollOp::Barrier,
                            comm: 0,
                            root: None,
                            seq: 12,
                            bytes: 0,
                            entered: VTime(3_000_000),
                        },
                    ),
                    Event::new(
                        VTime(4_000_000),
                        EventKind::Exit {
                            region: RegionId(0),
                        },
                    ),
                ];
                if rank == 0 {
                    events.insert(
                        1,
                        Event::new(
                            VTime(6),
                            EventKind::Enter {
                                region: RegionId(1),
                            },
                        ),
                    );
                    events.insert(
                        2,
                        Event::new(
                            VTime(7),
                            EventKind::Exit {
                                region: RegionId(1),
                            },
                        ),
                    );
                }
                LocationTrace {
                    location: LocationId::rank(rank),
                    events,
                }
            })
            .collect();
        Trace::with_comms(regions, comms, locations)
    }

    fn assert_traces_equal(a: &Trace, b: &Trace) {
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.comms, b.comms);
        assert_eq!(a.locations, b.locations);
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let tr = sample();
        let back = decode(&encode(&tr)).unwrap();
        assert_traces_equal(&tr, &back);
    }

    #[test]
    fn writer_and_reader_roundtrip() {
        let tr = sample();
        let mut buf = Vec::new();
        write_binary(&tr, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_traces_equal(&tr, &back);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let tr = Trace::with_comms(vec![], vec![], vec![]);
        let back = decode(&encode(&tr)).unwrap();
        assert_traces_equal(&tr, &back);
    }

    #[test]
    fn non_monotone_and_extreme_timestamps_roundtrip() {
        // The delta encoding must wrap losslessly even for hostile inputs.
        let events = vec![
            Event::new(
                VTime(u64::MAX),
                EventKind::Enter {
                    region: RegionId(0),
                },
            ),
            Event::new(
                VTime(0),
                EventKind::Exit {
                    region: RegionId(0),
                },
            ),
            Event::new(
                VTime(u64::MAX / 2),
                EventKind::Recv {
                    from: u32::MAX,
                    comm: u32::MAX,
                    tag: i32::MIN,
                    bytes: u64::MAX,
                    posted: VTime(u64::MAX),
                },
            ),
        ];
        let tr = Trace::with_comms(
            vec![RegionMeta {
                name: "x".into(),
                kind: RegionKind::User,
            }],
            vec![],
            vec![LocationTrace {
                location: LocationId::new(u32::MAX, u32::MAX),
                events,
            }],
        );
        let back = decode(&encode(&tr)).unwrap();
        assert_traces_equal(&tr, &back);
    }

    #[test]
    fn bad_magic_is_a_clean_error() {
        let err = decode(b"NOPE\x01\x00\x00\x00").unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&(VERSION + 1).to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        let err = decode(&buf).unwrap_err();
        assert!(err
            .to_string()
            .contains(&format!("unsupported format version {}", VERSION + 1)));
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let full = encode(&sample());
        for len in 0..full.len() {
            let err = decode(&full[..len]).unwrap_err();
            assert!(
                matches!(err, TraceIoError::Format(_)),
                "prefix of {len} bytes must be a Format error"
            );
            // Read byte by byte, never through the buffered varint path,
            // it fails with the same message at the same offset.
            let by_byte = read_binary(OneByte(&full[..len])).unwrap_err();
            assert_eq!(err.to_string(), by_byte.to_string(), "prefix of {len}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut data = encode(&sample()).to_vec();
        data.push(0);
        let err = decode(&data).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn corrupt_interior_bytes_never_panic() {
        // Flip every byte to 0xff one at a time; decoding must either
        // succeed or fail cleanly, never panic or over-allocate.
        let full = encode(&sample()).to_vec();
        for i in 0..full.len() {
            let mut data = full.clone();
            data[i] = 0xff;
            let _ = decode(&data);
        }
    }

    #[test]
    fn unknown_event_tag_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        put_varint(&mut buf, 0); // regions
        put_varint(&mut buf, 0); // comms
        put_varint(&mut buf, 1); // one location
        put_varint(&mut buf, 0); // rank
        put_varint(&mut buf, 0); // thread
        put_varint(&mut buf, 1); // one event
        buf.push(9); // bogus tag
        buf.push(0); // time delta
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("unknown event tag"));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1234567, -7654321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    /// Header-only buffer: magic, version, flags.
    fn header() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf
    }

    #[test]
    fn absurd_region_count_is_a_clean_error() {
        // A corrupt header claiming ~u64::MAX regions must fail with a
        // format error when the stream runs dry, not attempt a giant
        // allocation first.
        let mut buf = header();
        put_varint(&mut buf, u64::MAX / 2);
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "got {err}");
    }

    #[test]
    fn absurd_comm_member_count_is_a_clean_error() {
        let mut buf = header();
        put_varint(&mut buf, 0); // regions
        put_varint(&mut buf, 1); // one comm
        put_varint(&mut buf, 0); // id
        put_varint(&mut buf, u64::MAX / 2); // absurd member count
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "got {err}");
    }

    #[test]
    fn absurd_event_count_is_a_clean_error() {
        let mut buf = header();
        put_varint(&mut buf, 0); // regions
        put_varint(&mut buf, 0); // comms
        put_varint(&mut buf, 1); // one location
        put_varint(&mut buf, 0); // rank
        put_varint(&mut buf, 0); // thread
        put_varint(&mut buf, u64::MAX / 2); // absurd event count
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "got {err}");
    }

    #[test]
    fn absurd_location_count_is_a_clean_error() {
        let mut buf = header();
        put_varint(&mut buf, 0); // regions
        put_varint(&mut buf, 0); // comms
        put_varint(&mut buf, u64::MAX / 2); // absurd location count
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "got {err}");
    }

    #[test]
    fn absurd_region_name_length_is_a_clean_error() {
        let mut buf = header();
        put_varint(&mut buf, 1); // one region
        put_varint(&mut buf, u64::MAX / 2); // absurd name length
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "got {err}");
    }

    #[test]
    fn block_reader_yields_the_sample_locations_in_order() {
        let tr = sample();
        let data = encode(&tr);
        let mut br = BlockReader::new(&data[..]).unwrap();
        assert_eq!(br.regions(), &tr.regions[..]);
        assert_eq!(br.comms(), &tr.comms[..]);
        assert_eq!(br.n_locations(), tr.locations.len() as u64);
        let mut got = Vec::new();
        while let Some(block) = br.next_block().unwrap() {
            assert_eq!(block.len(), block.events().len());
            assert_eq!(
                block.start_time(),
                Some(block.to_location_trace().events[0].time)
            );
            got.push(block.to_location_trace());
        }
        assert_eq!(got, tr.locations);
        assert_eq!(br.finish().unwrap(), data.len() as u64);
    }

    #[test]
    fn block_reader_detects_trailing_garbage() {
        let mut data = encode(&sample()).to_vec();
        data.extend_from_slice(&[0, 0, 0]);
        let mut br = BlockReader::new(&data[..]).unwrap();
        let err = loop {
            match br.next_block() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("trailing garbage must be rejected"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("3 trailing bytes"), "got {err}");
    }

    #[test]
    fn block_writer_is_byte_identical_to_encode() {
        let tr = sample();
        let mut out = Vec::new();
        let mut bw =
            BlockWriter::new(&mut out, &tr.regions, &tr.comms, tr.locations.len() as u64).unwrap();
        for loc in &tr.locations {
            bw.write_location(loc).unwrap();
        }
        let bytes = bw.finish().unwrap();
        let whole = encode(&tr);
        assert_eq!(out, whole.to_vec());
        assert_eq!(bytes, whole.len() as u64);
    }

    #[test]
    fn block_writer_enforces_the_declared_count() {
        let tr = sample();
        // Too few blocks: finish() refuses.
        let mut out = Vec::new();
        let bw = BlockWriter::new(&mut out, &tr.regions, &tr.comms, 2).unwrap();
        assert!(bw.finish().unwrap_err().to_string().contains("declared"));
        // Too many blocks: write_location refuses.
        let mut out = Vec::new();
        let mut bw = BlockWriter::new(&mut out, &tr.regions, &tr.comms, 0).unwrap();
        let err = bw.write_location(&tr.locations[0]).unwrap_err();
        assert!(err.to_string().contains("declared"), "got {err}");
    }

    /// A reader that hands out one byte per call, to hammer the cursor's
    /// refill boundaries.
    struct OneByte<R>(R);

    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.read(&mut buf[..1])
        }
    }

    #[test]
    fn one_byte_at_a_time_stream_roundtrips() {
        let tr = sample();
        let data = encode(&tr);
        let back = read_binary(OneByte(&data[..])).unwrap();
        assert_traces_equal(&tr, &back);
    }

    /// Read a prefix byte and then a varint from `bytes`, byte by byte and
    /// from a whole buffer: the value or error, and the offset after it.
    fn varint_both_ways(bytes: &[u8]) -> (Result<u64, String>, u64) {
        fn read<R: Read>(cur: &mut StreamCursor<R>) -> (Result<u64, String>, u64) {
            let v = cur.varint("probe").map_err(|e| e.to_string());
            (v, cur.consumed)
        }
        // Trailing bytes keep a whole varint buffered for the fast path;
        // the byte path never sees them.
        let input = [&[0x55], bytes, &[0; MAX_VARINT]].concat();
        let mut slow = StreamCursor::new(OneByte(&input[..=bytes.len()]));
        slow.u8("prefix").unwrap();
        assert_eq!(slow.end - slow.start, 0, "the byte path reads per byte");
        let mut fast = StreamCursor::new(&input[..]);
        fast.u8("prefix").unwrap();
        assert!(fast.end - fast.start >= MAX_VARINT, "fast path buffered");
        let (slow, fast) = (read(&mut slow), read(&mut fast));
        assert_eq!(slow, fast, "byte path vs fast path on {bytes:02x?}");
        fast
    }

    #[test]
    fn buffered_varints_match_the_byte_path() {
        for len in 1..=MAX_VARINT as u32 {
            let shortest = 1u64 << (7 * (len - 1));
            let longest = u64::MAX >> 64u32.saturating_sub(7 * len);
            for v in [shortest, longest, shortest | (longest / 3)] {
                let mut bytes = Vec::new();
                put_varint(&mut bytes, v);
                assert_eq!(bytes.len(), len as usize);
                assert_eq!(varint_both_ways(&bytes), (Ok(v), 1 + len as u64));
            }
        }
        // Zero written long-hand is still zero.
        assert_eq!(varint_both_ways(&[0x80, 0x80, 0]), (Ok(0), 4));
        let at_11 = |what: &str| {
            let msg = format!(
                "trace format error: binary trace: truncated or corrupt at byte 11: {what}"
            );
            (Err(msg), 11)
        };
        let overflow = [[0xff; 9].as_slice(), &[0x02]].concat();
        assert_eq!(varint_both_ways(&overflow), at_11("varint overflows u64"));
        let eleven = [[0x80; 10].as_slice(), &[0]].concat();
        assert_eq!(
            varint_both_ways(&eleven),
            at_11("varint longer than 10 bytes")
        );
    }
}
