//! Delta/varint-compressed CSR graph store.
//!
//! # Format
//!
//! A [`CompactGraph`] stores the same sorted-adjacency topology as
//! [`Graph`], but packs each vertex's neighbor list into a byte stream
//! instead of flat `u32` slices:
//!
//! * **Per-vertex block** (concatenated in vertex order in `data`):
//!   `varint(deg)`, then — when `deg > 0` — the **first** neighbor as
//!   `varint(zigzag(adj[0] - v))` (a signed delta from the vertex's own id,
//!   small when neighbors have nearby ids), then each subsequent neighbor
//!   as `varint(adj[i] - adj[i-1])` (strictly positive gaps, since
//!   adjacency is sorted and duplicate-free).
//! * **Varints** are LEB128: 7 payload bits per byte, high bit = continue.
//! * **Zig-zag** maps signed to unsigned: `(d << 1) ^ (d >> 63)`, so small
//!   negative first-deltas stay one byte.
//! * **Sampled offset index**: one `u64` byte offset per
//!   [`CompactGraph::sample_every`] vertices (`samples[j]` is the offset of
//!   vertex `j * K`'s block). Locating a block skips at most `K - 1` blocks
//!   by walking their varints — offsets cost `8 / K` bytes per vertex
//!   instead of the flat store's 8.
//!
//! # Space
//!
//! The flat store costs 4 bytes per directed arc (8 per undirected edge)
//! for `targets` plus 8 bytes per vertex for `offsets`.
//! [`CompactGraph::bytes_per_edge`] reports the compact store's total
//! (data + samples) divided by the directed arc count, directly comparable
//! to that flat 4.0. How low it goes is workload-dependent — a
//! delta/varint code cannot beat the adjacency entropy floor of
//! `log2(C(n, d)) / d ≈ log2(n/d) + 1.44` bits per arc: a `gnp` graph at
//! n = 10^6 and average degree 8 has a floor of ≈ 2.1 bytes per arc no
//! matter the ordering, while paths and grids in their generated order
//! compress to 1.563 and 2.032 bytes per arc at n = 10^6 (measured by
//! `sim_scaling --store compact`) because their gaps are genuinely small.
//!
//! # Trust model
//!
//! Instances built from an in-memory [`Graph`] (whose invariants are
//! already established) are trusted and decoded with plain indexing.
//! Instances built from bytes ([`CompactGraph::from_parts`], used by the
//! binary loader in [`crate::io`]) are **validated exhaustively first** —
//! truncated or corrupt streams return a [`CompactError`] instead of
//! panicking, pinned by the differential proptests.

use crate::graph::Graph;
use std::fmt;

/// Default block-sampling interval for the offset index: one `u64` offset
/// every this many vertices (~0.125 bytes/vertex), locating a block in at
/// most 63 skipped blocks.
pub const DEFAULT_SAMPLE_EVERY: usize = 64;

/// Error produced when decoding or validating a compact byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactError {
    /// The stream ended inside vertex `vertex`'s block.
    Truncated {
        /// Vertex whose block was cut off.
        vertex: usize,
    },
    /// A varint in vertex `vertex`'s block overflowed 64 bits.
    Overflow {
        /// Vertex whose block held the bad varint.
        vertex: usize,
    },
    /// A decoded neighbor was out of `0..n` or produced a non-increasing /
    /// self-loop adjacency entry.
    BadNeighbor {
        /// Vertex whose adjacency is malformed.
        vertex: usize,
    },
    /// Total decoded arc count disagrees with the declared edge count.
    ArcCountMismatch {
        /// Arcs actually present in the stream.
        got: u64,
        /// Arcs implied by the declared edge count (`2m`, or `u64::MAX`
        /// when that overflows).
        want: u64,
    },
    /// Declared maximum degree disagrees with the decoded blocks.
    MaxDegreeMismatch {
        /// Maximum degree actually decoded.
        got: usize,
        /// Declared maximum degree.
        want: usize,
    },
    /// The sampled offset index is inconsistent with the blocks.
    BadSamples {
        /// Index of the offending sample.
        index: usize,
    },
    /// The arc multiset is not symmetric (checked by an XOR fingerprint
    /// over unordered endpoint pairs — catches corruption, not adversarial
    /// construction).
    Asymmetric,
    /// Trailing bytes after the last vertex's block.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The declared sampling interval is zero.
    BadSampleInterval,
}

impl fmt::Display for CompactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactError::Truncated { vertex } => {
                write!(f, "byte stream truncated inside vertex {vertex}'s block")
            }
            CompactError::Overflow { vertex } => {
                write!(f, "varint overflow in vertex {vertex}'s block")
            }
            CompactError::BadNeighbor { vertex } => {
                write!(
                    f,
                    "vertex {vertex} has an out-of-range, unsorted, or self-loop neighbor"
                )
            }
            CompactError::ArcCountMismatch { got, want } => {
                write!(f, "decoded {got} arcs, expected {want}")
            }
            CompactError::MaxDegreeMismatch { got, want } => {
                write!(f, "decoded max degree {got}, declared {want}")
            }
            CompactError::BadSamples { index } => {
                write!(f, "sampled offset {index} does not match its block")
            }
            CompactError::Asymmetric => write!(f, "arc multiset is not symmetric"),
            CompactError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last block")
            }
            CompactError::BadSampleInterval => write!(f, "sampling interval must be non-zero"),
        }
    }
}

impl std::error::Error for CompactError {}

#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

#[inline]
fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Checked varint read for untrusted bytes: `None` on truncation or
/// 64-bit overflow.
#[inline]
fn read_varint_checked(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        let low = (b & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && low > 1) {
            return None;
        }
        x |= low << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
    }
}

/// Varint read for validated in-memory streams (plain indexing; the
/// validation sweep has already established well-formedness).
#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = data[*pos];
        *pos += 1;
        x |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Advances `pos` past `count` varints (validated streams).
#[inline]
fn skip_varints(data: &[u8], pos: &mut usize, count: usize) {
    for _ in 0..count {
        while data[*pos] & 0x80 != 0 {
            *pos += 1;
        }
        *pos += 1;
    }
}

/// Mixes one unordered endpoint pair into the symmetry fingerprint: each
/// arc `(v, u)` contributes `mix(min, max)`; a symmetric arc multiset
/// XOR-cancels pairwise to zero.
#[inline]
fn pair_fingerprint(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut x = ((hi as u64) << 32) | lo as u64;
    // splitmix64 finalizer — enough diffusion that distinct pairs do not
    // cancel by accident.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// An unweighted, undirected, simple graph with delta/varint-compressed
/// adjacency — the lossless compressed form of [`Graph`]. See the
/// [module docs](self) for the byte format.
///
/// # Example
///
/// ```
/// use nas_graph::{generators, CompactGraph};
///
/// let g = generators::grid2d(20, 20);
/// let cg = CompactGraph::from_graph(&g);
/// assert_eq!(cg.num_vertices(), 400);
/// assert_eq!(cg.to_graph(), g); // lossless round-trip
/// assert!(cg.bytes_per_edge() < 4.0); // beats the flat 4 B/arc
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CompactGraph {
    n: usize,
    /// Undirected edge count.
    m: usize,
    max_degree: usize,
    sample_every: usize,
    /// Concatenated per-vertex blocks.
    data: Vec<u8>,
    /// `samples[j]` = byte offset of vertex `j * sample_every`'s block.
    samples: Vec<u64>,
}

impl fmt::Debug for CompactGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompactGraph")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("bytes", &self.data.len())
            .finish()
    }
}

/// Streaming builder for [`CompactGraph`]: feed each vertex's sorted
/// adjacency once, in vertex order, without ever materializing a flat CSR.
/// Used by [`CompactGraph::from_graph`] and the streaming loaders in
/// [`crate::io`].
pub struct CompactGraphBuilder {
    n: usize,
    next: usize,
    arcs: u64,
    max_degree: usize,
    sample_every: usize,
    fingerprint: u64,
    data: Vec<u8>,
    samples: Vec<u64>,
}

impl CompactGraphBuilder {
    /// Starts a builder for a graph on `n` vertices with the default
    /// sampling interval.
    pub fn new(n: usize) -> Self {
        CompactGraphBuilder {
            n,
            next: 0,
            arcs: 0,
            max_degree: 0,
            sample_every: DEFAULT_SAMPLE_EVERY,
            fingerprint: 0,
            data: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Appends the block for the next vertex (vertex ids are implicit:
    /// the k-th call encodes vertex k). `adj` must be strictly increasing,
    /// self-loop-free, and within `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if more than `n` vertices are pushed or `adj` violates the
    /// adjacency invariants — builder inputs come from in-memory graphs or
    /// already-validated loaders, so a violation is a caller bug.
    pub fn push_adjacency(&mut self, adj: &[u32]) {
        let v = self.next;
        assert!(v < self.n, "pushed more than n adjacency blocks");
        if v.is_multiple_of(self.sample_every) {
            self.samples.push(self.data.len() as u64);
        }
        write_varint(&mut self.data, adj.len() as u64);
        let mut prev: Option<u32> = None;
        for &u in adj {
            assert!((u as usize) < self.n, "neighbor {u} out of range");
            assert!(u as usize != v, "self-loop at {v}");
            match prev {
                None => write_varint(&mut self.data, zigzag(u as i64 - v as i64)),
                Some(p) => {
                    assert!(u > p, "adjacency of {v} not sorted/deduped");
                    write_varint(&mut self.data, (u - p) as u64);
                }
            }
            prev = Some(u);
            self.fingerprint ^= pair_fingerprint(v as u32, u);
        }
        self.arcs += adj.len() as u64;
        self.max_degree = self.max_degree.max(adj.len());
        self.next += 1;
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` blocks were pushed, the arc count is odd,
    /// or the arc multiset is not symmetric (every call site feeds
    /// symmetric adjacency, so this is a caller bug).
    pub fn finish(self) -> CompactGraph {
        assert_eq!(self.next, self.n, "pushed fewer than n adjacency blocks");
        assert!(
            self.arcs.is_multiple_of(2),
            "odd arc count: adjacency not symmetric"
        );
        assert_eq!(self.fingerprint, 0, "arc multiset not symmetric");
        let mut g = CompactGraph {
            n: self.n,
            m: (self.arcs / 2) as usize,
            max_degree: self.max_degree,
            sample_every: self.sample_every,
            data: self.data,
            samples: self.samples,
        };
        g.data.shrink_to_fit();
        g.samples.shrink_to_fit();
        g
    }
}

impl CompactGraph {
    /// Compresses `g` losslessly ([`CompactGraph::to_graph`] inverts it).
    pub fn from_graph(g: &Graph) -> Self {
        let mut b = CompactGraphBuilder::new(g.num_vertices());
        b.data.reserve(g.degree_sum() * 2 + g.num_vertices());
        for v in 0..g.num_vertices() {
            b.push_adjacency(g.neighbors(v));
        }
        b.finish()
    }

    /// Reassembles raw parts (deserialized from a byte stream) into a
    /// validated graph. Every block is decoded once: truncation, varint
    /// overflow, unsorted/out-of-range/self-loop neighbors, arc-count or
    /// max-degree mismatches, inconsistent samples, and (fingerprint-level)
    /// asymmetry all produce a [`CompactError`] — corrupt input never
    /// panics, pinned by proptests.
    pub fn from_parts(
        n: usize,
        m: usize,
        max_degree: usize,
        sample_every: usize,
        data: Vec<u8>,
        samples: Vec<u64>,
    ) -> Result<Self, CompactError> {
        if sample_every == 0 {
            return Err(CompactError::BadSampleInterval);
        }
        let want_samples = n.div_ceil(sample_every);
        if samples.len() != want_samples {
            return Err(CompactError::BadSamples {
                index: samples.len().min(want_samples),
            });
        }
        let mut pos = 0usize;
        let mut arcs = 0u64;
        let mut max_deg = 0usize;
        let mut fingerprint = 0u64;
        for v in 0..n {
            if v % sample_every == 0 && samples[v / sample_every] != pos as u64 {
                return Err(CompactError::BadSamples {
                    index: v / sample_every,
                });
            }
            let deg = read_varint_checked(&data, &mut pos).ok_or(if pos >= data.len() {
                CompactError::Truncated { vertex: v }
            } else {
                CompactError::Overflow { vertex: v }
            })?;
            if deg > n as u64 {
                return Err(CompactError::BadNeighbor { vertex: v });
            }
            let mut prev: Option<u32> = None;
            for _ in 0..deg {
                let raw = read_varint_checked(&data, &mut pos).ok_or(if pos >= data.len() {
                    CompactError::Truncated { vertex: v }
                } else {
                    CompactError::Overflow { vertex: v }
                })?;
                let u = match prev {
                    None => {
                        let first = v as i64 + unzigzag(raw);
                        if first < 0 || first >= n as i64 {
                            return Err(CompactError::BadNeighbor { vertex: v });
                        }
                        first as u32
                    }
                    Some(p) => {
                        if raw == 0 || raw > u32::MAX as u64 {
                            return Err(CompactError::BadNeighbor { vertex: v });
                        }
                        let next = p as u64 + raw;
                        if next >= n as u64 {
                            return Err(CompactError::BadNeighbor { vertex: v });
                        }
                        next as u32
                    }
                };
                if u as usize == v {
                    return Err(CompactError::BadNeighbor { vertex: v });
                }
                fingerprint ^= pair_fingerprint(v as u32, u);
                prev = Some(u);
            }
            arcs += deg;
            max_deg = max_deg.max(deg as usize);
        }
        if pos != data.len() {
            return Err(CompactError::TrailingBytes {
                extra: data.len() - pos,
            });
        }
        let want = (m as u64).checked_mul(2);
        if want != Some(arcs) {
            return Err(CompactError::ArcCountMismatch {
                got: arcs,
                want: want.unwrap_or(u64::MAX),
            });
        }
        if max_deg != max_degree {
            return Err(CompactError::MaxDegreeMismatch {
                got: max_deg,
                want: max_degree,
            });
        }
        if fingerprint != 0 {
            return Err(CompactError::Asymmetric);
        }
        Ok(CompactGraph {
            n,
            m,
            max_degree,
            sample_every,
            data,
            samples,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Maximum degree over all vertices (stored, not recomputed).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The block-sampling interval of the offset index.
    #[inline]
    pub fn sample_every(&self) -> usize {
        self.sample_every
    }

    /// Encoded bytes (blocks + offset samples) per **directed arc** —
    /// directly comparable to the flat store's 4.0 (`u32` per arc; the
    /// flat `usize` offsets add another `8n / 2m` on top of that 4.0,
    /// which this figure's sample term already includes for the compact
    /// side). `0.0` for an edgeless graph.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.m == 0 {
            return 0.0;
        }
        (self.data.len() + self.samples.len() * 8) as f64 / (2 * self.m) as f64
    }

    /// Locates vertex `v`'s block: returns the byte position just past its
    /// degree varint, and the degree.
    #[inline]
    fn block(&self, v: usize) -> (usize, u32) {
        let mut pos = self.samples[v / self.sample_every] as usize;
        for _ in 0..(v % self.sample_every) {
            let d = read_varint(&self.data, &mut pos);
            skip_varints(&self.data, &mut pos, d as usize);
        }
        let deg = read_varint(&self.data, &mut pos);
        (pos, deg as u32)
    }

    /// Degree of `v`. Costs an in-block scan of up to
    /// [`sample_every`](CompactGraph::sample_every)` - 1` blocks — use the
    /// decoded adjacency length when one is already at hand.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn degree(&self, v: usize) -> usize {
        assert!(v < self.n, "vertex {v} out of range");
        self.block(v).1 as usize
    }

    /// Allocation-free decoding iterator over `v`'s sorted neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn neighbors(&self, v: usize) -> NeighborIter<'_> {
        assert!(v < self.n, "vertex {v} out of range");
        let (pos, deg) = self.block(v);
        NeighborIter {
            data: &self.data,
            pos,
            remaining: deg,
            prev: 0,
            vertex: v as u32,
            started: false,
        }
    }

    /// Decodes `v`'s sorted adjacency into `out` (cleared first). The
    /// pooled-scratch decode the simulator's visit loop uses: `out` reaches
    /// max-degree capacity once and is never reallocated again.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn decode_into(&self, v: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.neighbors(v));
    }

    /// Decompresses back to the flat representation; the exact inverse of
    /// [`CompactGraph::from_graph`].
    pub fn to_graph(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut targets = Vec::with_capacity(2 * self.m);
        offsets.push(0usize);
        for v in 0..self.n {
            targets.extend(self.neighbors(v));
            offsets.push(targets.len());
        }
        Graph::from_csr(offsets, targets)
    }

    /// The raw encoded parts `(sample_every, data, samples)` — the binary
    /// writer in [`crate::io`] serializes exactly these plus the header
    /// counts.
    pub fn raw_parts(&self) -> (usize, &[u8], &[u64]) {
        (self.sample_every, &self.data, &self.samples)
    }
}

/// Allocation-free decoder over one vertex's sorted neighbors (see
/// [`CompactGraph::neighbors`]).
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: u32,
    prev: u32,
    vertex: u32,
    started: bool,
}

impl Iterator for NeighborIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let raw = read_varint(self.data, &mut self.pos);
        self.prev = if self.started {
            self.prev + raw as u32
        } else {
            self.started = true;
            (self.vertex as i64 + unzigzag(raw)) as u32
        };
        Some(self.prev)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.clear();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint_checked(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
            pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for x in [-5i64, -1, 0, 1, 7, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn round_trip_workload_family() {
        for g in [
            generators::path(100),
            generators::grid2d(13, 17),
            generators::gnp(200, 0.05, 7),
            generators::preferential_attachment(300, 3, 11),
            generators::complete(20),
            crate::GraphBuilder::new(5).build(), // edgeless
        ] {
            let cg = CompactGraph::from_graph(&g);
            assert_eq!(cg.num_vertices(), g.num_vertices());
            assert_eq!(cg.num_edges(), g.num_edges());
            assert_eq!(cg.max_degree(), g.max_degree());
            assert_eq!(cg.to_graph(), g);
        }
    }

    #[test]
    fn neighbors_match_flat() {
        let g = generators::gnp(150, 0.07, 3);
        let cg = CompactGraph::from_graph(&g);
        let mut scratch = Vec::new();
        for v in 0..g.num_vertices() {
            let got: Vec<u32> = cg.neighbors(v).collect();
            assert_eq!(got.as_slice(), g.neighbors(v), "vertex {v}");
            cg.decode_into(v, &mut scratch);
            assert_eq!(scratch.as_slice(), g.neighbors(v), "vertex {v}");
            assert_eq!(cg.degree(v), g.degree(v));
            assert_eq!(cg.neighbors(v).len(), g.degree(v));
        }
    }

    #[test]
    fn sampled_index_crosses_blocks() {
        // More vertices than one sample block, uneven tail.
        let g = generators::path(DEFAULT_SAMPLE_EVERY * 3 + 17);
        let cg = CompactGraph::from_graph(&g);
        assert_eq!(cg.to_graph(), g);
        assert!(cg.raw_parts().2.len() == (g.num_vertices()).div_ceil(DEFAULT_SAMPLE_EVERY));
    }

    #[test]
    fn compression_beats_flat_on_local_workloads() {
        // A path costs exactly 3 data bytes per vertex (deg varint +
        // zig-zag first delta + one gap) = 1.5 B/arc, plus 8/64 sampled
        // offset bytes per vertex = 0.0625 B/arc of index.
        let path = CompactGraph::from_graph(&generators::path(10_000));
        assert!(
            path.bytes_per_edge() <= 1.6,
            "path: {}",
            path.bytes_per_edge()
        );
        let grid = CompactGraph::from_graph(&generators::grid2d(100, 100));
        assert!(
            grid.bytes_per_edge() < 4.0,
            "grid: {}",
            grid.bytes_per_edge()
        );
    }

    #[test]
    fn from_parts_validates_round_trip() {
        let g = generators::gnp(90, 0.08, 5);
        let cg = CompactGraph::from_graph(&g);
        let (k, data, samples) = cg.raw_parts();
        let re = CompactGraph::from_parts(
            cg.num_vertices(),
            cg.num_edges(),
            cg.max_degree(),
            k,
            data.to_vec(),
            samples.to_vec(),
        )
        .expect("valid parts must validate");
        assert_eq!(re.to_graph(), g);
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let g = generators::gnp(60, 0.1, 2);
        let cg = CompactGraph::from_graph(&g);
        let (k, data, samples) = cg.raw_parts();
        for cut in [0, 1, data.len() / 2, data.len() - 1] {
            let r = CompactGraph::from_parts(
                cg.num_vertices(),
                cg.num_edges(),
                cg.max_degree(),
                k,
                data[..cut].to_vec(),
                samples.to_vec(),
            );
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_counts_error_cleanly() {
        let g = generators::grid2d(8, 8);
        let cg = CompactGraph::from_graph(&g);
        let (k, data, samples) = cg.raw_parts();
        // Wrong edge count.
        assert!(matches!(
            CompactGraph::from_parts(
                cg.num_vertices(),
                cg.num_edges() + 1,
                cg.max_degree(),
                k,
                data.to_vec(),
                samples.to_vec()
            ),
            Err(CompactError::ArcCountMismatch { .. })
        ));
        // Wrong max degree.
        assert!(matches!(
            CompactGraph::from_parts(
                cg.num_vertices(),
                cg.num_edges(),
                cg.max_degree() + 1,
                k,
                data.to_vec(),
                samples.to_vec()
            ),
            Err(CompactError::MaxDegreeMismatch { .. })
        ));
        // Zero sampling interval.
        assert!(matches!(
            CompactGraph::from_parts(
                cg.num_vertices(),
                cg.num_edges(),
                cg.max_degree(),
                0,
                data.to_vec(),
                samples.to_vec()
            ),
            Err(CompactError::BadSampleInterval)
        ));
        // Broken sample offset.
        let mut bad = samples.to_vec();
        if !bad.is_empty() {
            bad[0] = bad[0].wrapping_add(1);
            assert!(matches!(
                CompactGraph::from_parts(
                    cg.num_vertices(),
                    cg.num_edges(),
                    cg.max_degree(),
                    k,
                    data.to_vec(),
                    bad
                ),
                Err(CompactError::BadSamples { .. })
            ));
        }
    }
}
