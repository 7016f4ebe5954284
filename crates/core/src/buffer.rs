//! MPI buffer management (paper §3.1.3).
//!
//! The C prototype manages buffers through `mpi_buf_t` (regular) and
//! `mpi_vbuf_t` (irregular, with per-rank counts derived from a
//! distribution function), plus a `set_base_comm` default used by the
//! property functions. This module ports all three; the process-global
//! default becomes the explicit [`BaseComm`] value that property functions
//! take as a parameter — same information, no hidden global state.

use crate::distribution::Distr;
use ats_mpi::Datatype;

/// A regular typed message buffer (`mpi_buf_t`): `cnt` elements of `type`.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiBuf {
    /// Element type.
    pub dtype: Datatype,
    /// Element count.
    pub count: usize,
    /// Backing storage, always `count * dtype.size()` bytes.
    pub data: Vec<u8>,
}

/// The paper's `alloc_mpi_buf`: a zero-initialized buffer of `cnt`
/// elements. (Deallocation is ownership — `free_mpi_buf` is `drop`.)
pub fn alloc_mpi_buf(dtype: Datatype, count: usize) -> MpiBuf {
    let data = vec![0; count * dtype.size()];
    MpiBuf { dtype, count, data }
}

impl MpiBuf {
    /// The payload as bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Overwrite the payload from raw bytes (must match the buffer size).
    pub fn fill_from(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.data.len(),
            "payload size mismatch: buffer holds {} bytes",
            self.data.len()
        );
        self.data.copy_from_slice(bytes);
    }
}

/// An irregular collective buffer (`mpi_vbuf_t`): per-rank element counts
/// derived from a distribution, plus the flattened root-side payload.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiVBuf {
    /// Element type.
    pub dtype: Datatype,
    /// Per-rank element counts.
    pub counts: Vec<usize>,
    /// Per-rank displacements (element offsets into [`MpiVBuf::data`]).
    pub displs: Vec<usize>,
    /// Root-side flattened payload (`sum(counts)` elements).
    pub data: Vec<u8>,
    /// The rank whose buffer carries the full payload.
    pub root: usize,
}

/// The paper's `alloc_mpi_vbuf`: counts per rank come from the
/// distribution (`df(i, sz, scale)` elements for rank `i`).
pub fn alloc_mpi_vbuf(
    dtype: Datatype,
    df: &Distr,
    scale: f64,
    root: usize,
    comm_size: usize,
) -> MpiVBuf {
    assert!(root < comm_size, "root out of range");
    let counts: Vec<usize> = (0..comm_size)
        .map(|i| df.count(i, comm_size, scale))
        .collect();
    let mut displs = Vec::with_capacity(comm_size);
    let mut off = 0;
    for &c in &counts {
        displs.push(off);
        off += c;
    }
    let data = vec![0; off * dtype.size()];
    MpiVBuf {
        dtype,
        counts,
        displs,
        data,
        root,
    }
}

impl MpiVBuf {
    /// Per-rank byte counts (elements × element size).
    pub fn byte_counts(&self) -> Vec<usize> {
        self.counts.iter().map(|&c| c * self.dtype.size()).collect()
    }
}

/// The suite-wide default message shape (the paper's `set_base_comm`
/// global, made explicit). Property functions that the paper parameterizes
/// only by work amounts use this for their communication buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseComm {
    /// Element type of default buffers.
    pub dtype: Datatype,
    /// Element count of default buffers.
    pub count: usize,
}

impl Default for BaseComm {
    /// 256 doubles (2 KiB): comfortably eager, large enough to be visible
    /// in traces.
    fn default() -> Self {
        BaseComm {
            dtype: Datatype::Float64,
            count: 256,
        }
    }
}

impl BaseComm {
    /// Allocate the default buffer.
    pub fn alloc(&self) -> MpiBuf {
        alloc_mpi_buf(self.dtype, self.count)
    }

    /// Default payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.count * self.dtype.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroes_and_sizes() {
        let b = alloc_mpi_buf(Datatype::Int32, 10);
        assert_eq!(b.bytes().len(), 40);
        assert!(b.bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn fill_and_read_back() {
        let mut b = alloc_mpi_buf(Datatype::Byte, 4);
        b.fill_from(&[1, 2, 3, 4]);
        assert_eq!(b.bytes(), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn fill_from_checks_size() {
        alloc_mpi_buf(Datatype::Byte, 2).fill_from(&[1, 2, 3]);
    }

    #[test]
    fn vbuf_counts_follow_distribution() {
        let df = Distr::linear(1.0, 4.0);
        let v = alloc_mpi_vbuf(Datatype::Float64, &df, 1.0, 0, 4);
        assert_eq!(v.counts, vec![1, 2, 3, 4]);
        assert_eq!(v.displs, vec![0, 1, 3, 6]);
        assert_eq!(v.data.len(), 10 * 8);
        assert_eq!(v.byte_counts(), vec![8, 16, 24, 32]);
    }

    #[test]
    fn vbuf_slices_partition_payload() {
        let df = Distr::cyclic2(2.0, 3.0);
        let v = alloc_mpi_vbuf(Datatype::Int32, &df, 1.0, 1, 3);
        // The per-rank byte counts `scatterv` takes cover the payload.
        let counts = v.byte_counts();
        assert_eq!(counts.iter().sum::<usize>(), v.data.len());
        assert_eq!(counts[0], 8);
        assert_eq!(counts[1], 12);
    }

    #[test]
    fn base_comm_default_is_eager_sized() {
        let base = BaseComm::default();
        assert_eq!(base.bytes(), 2048);
        assert_eq!(base.alloc().bytes().len(), 2048);
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn vbuf_root_bounds_checked() {
        alloc_mpi_vbuf(Datatype::Byte, &Distr::same(1.0), 1.0, 5, 4);
    }
}
