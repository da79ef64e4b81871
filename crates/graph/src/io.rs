//! Reading and writing graphs in two interchange formats:
//!
//! * **edge list** — one `u v` pair per line (0-based ids), the text form
//!   ([`read_edge_list`] / [`write_edge_list`]);
//! * **compact binary** — a [`CompactGraph`] serialized verbatim
//!   ([`write_compact`] / [`read_compact`]): a fixed header followed by
//!   the delta/varint block stream and the sampled offset index. The
//!   cheapest way to ship a large graph — no re-encoding on either side,
//!   and the on-disk size equals the in-memory compact footprint.
//!
//! # The streaming text reader
//!
//! [`read_edge_list`] parses line by line through one reused buffer:
//! `#` comments; an optional `p <n>` header anywhere, and `n = max id + 1`
//! without one. With a header, edges flow straight into the graph
//! builder; lines before one are buffered as `u32` pairs until `n` is
//! known, so peak memory is the builder's edge buffer, never the file.
//! Errors carry their 1-based line number. A second header is
//! [`ParseGraphError::BadLine`]; a header's `n`, or the `max id + 1` of a
//! line before any header, above [`MAX_TEXT_VERTICES`] is
//! [`ParseGraphError::TooLarge`], checked before anything is sized; an id
//! outside a declared header is [`ParseGraphError::VertexOutOfRange`].

use crate::builder::GraphBuilder;
use crate::compact::{CompactError, CompactGraph};
use crate::graph::Graph;
use std::fmt;
use std::io::{BufRead, Read, Write};

/// The most vertices a text graph may declare or imply: 2^27, above every
/// graph the repository builds (the largest is the 10^7-vertex grid). The
/// text reader sizes the graph from `n` before reading its edges, so a
/// larger claim is [`ParseGraphError::TooLarge`] rather than an allocation
/// that could abort the process.
pub const MAX_TEXT_VERTICES: usize = 1 << 27;

/// Errors from graph parsing.
#[derive(Debug)]
pub enum ParseGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its (1-based) line number and content.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// An edge endpoint exceeded the declared vertex count.
    VertexOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending vertex.
        vertex: usize,
        /// The declared vertex count.
        n: usize,
    },
    /// A header's vertex count, or the `max id + 1` of a line before any
    /// header, above [`MAX_TEXT_VERTICES`].
    TooLarge {
        /// 1-based line number.
        line: usize,
        /// The vertex count the line asks for.
        n: usize,
    },
    /// A compact binary stream with a wrong magic or unsupported version.
    BadHeader(String),
    /// A compact binary payload that failed structural validation.
    Corrupt(CompactError),
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGraphError::Io(e) => write!(f, "i/o error: {e}"),
            ParseGraphError::BadLine { line, content } => {
                write!(f, "malformed line {line}: {content:?}")
            }
            ParseGraphError::VertexOutOfRange { line, vertex, n } => {
                write!(f, "line {line}: vertex {vertex} out of range (n = {n})")
            }
            ParseGraphError::TooLarge { line, n } => write!(
                f,
                "line {line}: {n} vertices exceed the limit of {MAX_TEXT_VERTICES}"
            ),
            ParseGraphError::BadHeader(why) => write!(f, "bad compact header: {why}"),
            ParseGraphError::Corrupt(e) => write!(f, "corrupt compact payload: {e}"),
        }
    }
}

impl std::error::Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseGraphError::Io(e) => Some(e),
            ParseGraphError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ParseGraphError {
    fn from(e: std::io::Error) -> Self {
        ParseGraphError::Io(e)
    }
}

impl From<CompactError> for ParseGraphError {
    fn from(e: CompactError) -> Self {
        ParseGraphError::Corrupt(e)
    }
}

/// Parses an edge-list graph (0-based ids; see the module docs).
///
/// Lines: `u v` pairs; blank lines and `#` comments ignored; an optional
/// `p <n>` line pins the vertex count.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on I/O failures or malformed content.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> Result<Graph, ParseGraphError> {
    // The id `x` that `line` wrote, checked against a header's `n`.
    let in_range = |x: usize, n: usize, line: usize| {
        if x < n {
            Ok(x)
        } else {
            Err(ParseGraphError::VertexOutOfRange { line, vertex: x, n })
        }
    };
    // A builder for `n` holding the edges read before the header on `line`.
    let flush = |pending: Vec<(u32, u32)>, n: usize, line: usize| {
        let mut b = GraphBuilder::with_capacity(n, pending.len());
        for (u, v) in pending {
            b.add_edge(
                in_range(u as usize, n, line)?,
                in_range(v as usize, n, line)?,
            );
        }
        Ok::<GraphBuilder, ParseGraphError>(b)
    };
    let mut pending = Vec::new();
    let mut header: Option<(usize, GraphBuilder)> = None;
    // One buffer for the whole stream: the allocation per line of
    // `BufRead::lines` is what kept the old readers from scaling.
    let mut buf = String::new();
    let mut line = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        line += 1;
        let t = buf.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let bad = || ParseGraphError::BadLine {
            line,
            content: t.to_string(),
        };
        let mut fields = t.split_whitespace();
        let id = |s: Option<&str>| s?.parse::<usize>().ok();
        let head = fields.next();
        if head == Some("p") {
            let n = id(fields.next())
                .filter(|_| header.is_none())
                .ok_or_else(bad)?;
            if n > MAX_TEXT_VERTICES {
                return Err(ParseGraphError::TooLarge { line, n });
            }
            header = Some((n, flush(std::mem::take(&mut pending), n, line)?));
            continue;
        }
        let (Some(u), Some(v)) = (id(head), id(fields.next())) else {
            return Err(bad());
        };
        match &mut header {
            Some((n, b)) => {
                b.add_edge(in_range(u, *n, line)?, in_range(v, *n, line)?);
            }
            // Buffered until `n = max id + 1` is known.
            None => {
                let n = u.max(v).saturating_add(1);
                if n > MAX_TEXT_VERTICES {
                    return Err(ParseGraphError::TooLarge { line, n });
                }
                pending.push((u as u32, v as u32));
            }
        }
    }
    let b = match header {
        Some((_, b)) => b,
        None => {
            let n = pending.iter().map(|&(u, v)| u.max(v) as usize + 1).max();
            flush(pending, n.unwrap_or(0), line)?
        }
    };
    Ok(b.build())
}

/// Writes a graph as an edge list with a `p <n>` header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "p {}", g.num_vertices())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Magic prefix of the compact binary format — callers sniff it off a
/// stream's leading bytes to pick this format over the text loaders.
pub const COMPACT_MAGIC: &[u8; 4] = b"NASC";
/// Current compact binary format version.
const COMPACT_VERSION: u8 = 1;

/// Writes a [`CompactGraph`] in the compact binary format:
///
/// ```text
/// "NASC" | version u8 | n u64 | m u64 | max_degree u64 | sample_every u32
///        | data_len u64 | samples_len u64 | data bytes | samples (u64 LE each)
/// ```
///
/// All integers little-endian. The payload is the store's delta/varint
/// block stream and sampled offset index verbatim — writing is two bulk
/// copies, and [`read_compact`] rebuilds the store without re-encoding.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_compact<W: Write>(g: &CompactGraph, mut w: W) -> std::io::Result<()> {
    let (sample_every, data, samples) = g.raw_parts();
    w.write_all(COMPACT_MAGIC)?;
    w.write_all(&[COMPACT_VERSION])?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    w.write_all(&(g.max_degree() as u64).to_le_bytes())?;
    w.write_all(
        &u32::try_from(sample_every)
            .expect("sampling interval fits u32")
            .to_le_bytes(),
    )?;
    w.write_all(&(data.len() as u64).to_le_bytes())?;
    w.write_all(&(samples.len() as u64).to_le_bytes())?;
    w.write_all(data)?;
    for &s in samples {
        w.write_all(&s.to_le_bytes())?;
    }
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a [`CompactGraph`] written by [`write_compact`], revalidating the
/// payload structurally ([`CompactGraph::from_parts`]): every block must
/// decode cleanly, offsets must line up, and the arc multiset must be
/// symmetric — a truncated or bit-flipped file is an error, never a
/// malformed graph.
///
/// # Errors
///
/// [`ParseGraphError::BadHeader`] on a wrong magic/version or impossible
/// lengths, [`ParseGraphError::Corrupt`] when validation fails,
/// [`ParseGraphError::Io`] on I/O failures (including short payloads).
pub fn read_compact<R: Read>(mut r: R) -> Result<CompactGraph, ParseGraphError> {
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic[..4] != COMPACT_MAGIC {
        return Err(ParseGraphError::BadHeader(format!(
            "magic {:02x?} is not {COMPACT_MAGIC:02x?}",
            &magic[..4]
        )));
    }
    if magic[4] != COMPACT_VERSION {
        return Err(ParseGraphError::BadHeader(format!(
            "unsupported version {} (expected {COMPACT_VERSION})",
            magic[4]
        )));
    }
    let n = read_u64(&mut r)? as usize;
    let m = read_u64(&mut r)? as usize;
    let max_degree = read_u64(&mut r)? as usize;
    let mut se = [0u8; 4];
    r.read_exact(&mut se)?;
    let sample_every = u32::from_le_bytes(se) as usize;
    let data_len = read_u64(&mut r)? as usize;
    let samples_len = read_u64(&mut r)? as usize;
    // Bound the declared lengths: the sample count is determined by
    // (n, interval), and no varint encoding of n degrees plus 2m deltas
    // exceeds 10 bytes per value — the validator recomputes everything
    // else. The bound still admits claims far beyond the stream, so the
    // buffers grow with the bytes actually read, never with a claim.
    if sample_every == 0 {
        return Err(ParseGraphError::Corrupt(CompactError::BadSampleInterval));
    }
    if samples_len != n.div_ceil(sample_every) {
        return Err(ParseGraphError::BadHeader(format!(
            "sample count {samples_len} inconsistent with n = {n}, interval {sample_every}"
        )));
    }
    let max_data = m
        .checked_mul(2)
        .and_then(|arcs| arcs.checked_add(n))
        .and_then(|values| values.checked_mul(10));
    if max_data.is_none_or(|max| data_len > max) {
        return Err(ParseGraphError::BadHeader(format!(
            "data length {data_len} impossible for n = {n}, m = {m}"
        )));
    }
    let mut data = Vec::new();
    (&mut r).take(data_len as u64).read_to_end(&mut data)?;
    if data.len() != data_len {
        return Err(ParseGraphError::Io(
            std::io::ErrorKind::UnexpectedEof.into(),
        ));
    }
    data.shrink_to_fit();
    let mut samples = Vec::new();
    for _ in 0..samples_len {
        samples.push(read_u64(&mut r)?);
    }
    samples.shrink_to_fit();
    Ok(CompactGraph::from_parts(
        n,
        m,
        max_degree,
        sample_every,
        data,
        samples,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_round_trip() {
        let g = generators::gnp(40, 0.15, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_with_comments_and_header() {
        let text = "# a comment\np 6\n0 1\n\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_infers_n() {
        let g = read_edge_list("0 9\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn malformed_line_is_reported() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Want {
            BadLine,
            TooLarge,
        }
        // A malformed field; ids before any header whose `n = max id + 1`
        // passes the limit, inside and past the u32 range (the 13-byte
        // `0 4000000000` among them); headers past the limit, inside and
        // past the u32 range.
        for (text, want, line) in [
            ("0 x\n", Want::BadLine, 1),
            ("0 1\n0 5000000000\n", Want::TooLarge, 2),
            ("0 4000000000\n", Want::TooLarge, 1),
            ("p 3000000000\n", Want::TooLarge, 1),
            ("p 5000000000\n", Want::TooLarge, 1),
        ] {
            let err = read_edge_list(text.as_bytes()).err();
            let got = match err {
                Some(ParseGraphError::BadLine { line, .. }) => Some((Want::BadLine, line)),
                Some(ParseGraphError::TooLarge { line, .. }) => Some((Want::TooLarge, line)),
                _ => None,
            };
            assert_eq!(got, Some((want, line)), "{text:?}: {err:?}");
        }
    }

    #[test]
    fn out_of_range_is_reported() {
        let err = read_edge_list("p 3\n0 5\n".as_bytes()).unwrap_err();
        match err {
            ParseGraphError::VertexOutOfRange { vertex, n, .. } => {
                assert_eq!((vertex, n), (5, 3));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(read_edge_list("".as_bytes()).unwrap().num_vertices(), 0);
    }

    #[test]
    fn compact_binary_round_trip() {
        for g in [
            generators::gnp(60, 0.12, 5),
            generators::path(17),
            generators::grid2d(6, 8),
            GraphBuilder::new(5).build(),
            GraphBuilder::new(0).build(),
        ] {
            let c = CompactGraph::from_graph(&g);
            let mut buf = Vec::new();
            write_compact(&c, &mut buf).unwrap();
            let back = read_compact(&buf[..]).unwrap();
            assert_eq!(back.to_graph(), g);
            assert_eq!(back.raw_parts().0, c.raw_parts().0);
            assert_eq!(back.raw_parts().1, c.raw_parts().1);
        }
    }

    #[test]
    fn compact_binary_rejects_bad_magic_and_version() {
        let c = CompactGraph::from_graph(&generators::path(5));
        let mut buf = Vec::new();
        write_compact(&c, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_compact(&bad[..]),
            Err(ParseGraphError::BadHeader(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_compact(&bad[..]),
            Err(ParseGraphError::BadHeader(_))
        ));
    }

    #[test]
    fn compact_binary_rejects_truncation_and_corruption() {
        let c = CompactGraph::from_graph(&generators::gnp(40, 0.2, 7));
        let mut buf = Vec::new();
        write_compact(&c, &mut buf).unwrap();
        // Truncation anywhere is an I/O or corruption error, never a panic
        // or a silently different graph.
        for cut in [5usize, 20, buf.len() / 2, buf.len() - 1] {
            assert!(read_compact(&buf[..cut]).is_err(), "cut at {cut} passed");
        }
        // A flipped payload byte must fail validation (or, if it lands in
        // the header, a header check).
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(read_compact(&bad[..]).is_err());
        // Bare headers whose claims must not be trusted: `n + 2m`
        // overflows, or the declared 120 GiB payload passes the length
        // bound but is absent from the stream.
        let header = |n: u64, m: u64, sample_every: u32, data_len: u64, samples_len: u64| {
            let mut h = b"NASC\x01".to_vec();
            for x in [n, m, 0] {
                h.extend(x.to_le_bytes());
            }
            h.extend(sample_every.to_le_bytes());
            h.extend(data_len.to_le_bytes());
            h.extend(samples_len.to_le_bytes());
            h
        };
        let overflow = header(1, 1 << 63, 1, 0, 1);
        assert!(matches!(
            read_compact(&overflow[..]),
            Err(ParseGraphError::BadHeader(_))
        ));
        let huge = header(1 << 32, 1 << 32, 1 << 31, 120 << 30, 2);
        assert_eq!(huge.len(), 49);
        assert!(matches!(
            read_compact(&huge[..]),
            Err(ParseGraphError::Io(_))
        ));
    }

    #[test]
    fn edge_list_streams_through_header() {
        // Header-first (the streaming fast path) and header-after-edges
        // (the buffered path) agree.
        let a = read_edge_list("p 5\n0 1\n1 2\n".as_bytes()).unwrap();
        let b = read_edge_list("0 1\n1 2\np 5\n".as_bytes()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_vertices(), 5);
        // Out-of-range under a header is reported at the offending line.
        let err = read_edge_list("p 3\n0 1\n0 9\n".as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                ParseGraphError::VertexOutOfRange {
                    line: 3,
                    vertex: 9,
                    n: 3
                }
            ),
            "wrong error: {err}"
        );
        // A duplicate header is malformed.
        assert!(read_edge_list("p 3\np 4\n".as_bytes()).is_err());
    }
}
