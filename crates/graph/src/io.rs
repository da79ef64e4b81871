//! Reading and writing graphs in simple interchange formats.
//!
//! Five formats are supported:
//!
//! * **edge list** — one `u v` pair per line (0-based ids);
//! * **weighted edge list** — one `u v w` triple per line (0-based ids);
//! * **DIMACS-like** — `p <n> <m>` header followed by `e u v` lines
//!   (1-based ids, as customary for DIMACS);
//! * **DIMACS shortest-path** — `p sp <n> <m>` header followed by
//!   `a u v w` arc lines (1-based ids), the format of the DIMACS
//!   shortest-path challenge road graphs. Each undirected edge may appear
//!   as one arc or both;
//! * **compact binary** — a [`CompactGraph`] serialized verbatim
//!   ([`write_compact`] / [`read_compact`]): a fixed header followed by
//!   the delta/varint block stream and the sampled offset index. The
//!   cheapest way to ship a large graph — no re-encoding on either side,
//!   and the on-disk size equals the in-memory compact footprint.
//!
//! These cover the common ways real-world benchmark graphs are shipped, so
//! the experiment binaries can run on external inputs too. In both weighted
//! formats parallel edges collapse to the lightest weight.
//!
//! # One streaming reader
//!
//! The four text formats are two grammars, each with or without a weight
//! field, and one reader parses them line by line through one reused
//! buffer:
//!
//! * **edge list** — `#` comments; an optional `p <n>` header anywhere,
//!   and `n = max id + 1` without one;
//! * **DIMACS** — `c` and `#` comments; the `p` header comes first, and
//!   `n` is the first number after `p`.
//!
//! With a header, edges flow straight into the graph builder; edge-list
//! lines before one are buffered as `u32` triples until `n` is known, so
//! peak memory is the builder's edge buffer, never the file. Errors carry
//! their 1-based line number. A second header is
//! [`ParseGraphError::BadLine`]; a header's `n`, or the `max id + 1` of a
//! line before any header, above [`MAX_TEXT_VERTICES`] is
//! [`ParseGraphError::TooLarge`], checked before anything is sized; an id
//! outside a declared header is [`ParseGraphError::VertexOutOfRange`], as
//! the line wrote it.

use crate::builder::GraphBuilder;
use crate::compact::{CompactError, CompactGraph};
use crate::graph::Graph;
use crate::weighted::{WeightedGraph, WeightedGraphBuilder};
use std::fmt;
use std::io::{BufRead, Read, Write};

/// The most vertices a text graph may declare or imply: 2^27, above every
/// graph the repository builds (the largest is the 10^7-vertex grid). The
/// text readers size the graph from `n` before reading its edges, so a
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

/// The line grammar of a text format (see the module docs). A DIMACS
/// grammar names its edge-line tag, and what such a line is for errors.
#[derive(Clone, Copy)]
enum Grammar {
    EdgeList,
    Dimacs {
        tag: &'static str,
        what: &'static str,
    },
}

/// A graph builder the text reader fills.
trait TextBuilder {
    /// The graph it builds.
    type Graph;
    /// Whether every edge line carries a weight field.
    const WEIGHTED: bool;
    /// A builder for `n` vertices with room for `m` edges.
    fn sized(n: usize, m: usize) -> Self;
    /// Adds a range-checked edge (`w` is 0 when unweighted).
    fn add(&mut self, u: u32, v: u32, w: u32);
    /// Builds the graph.
    fn finish(&self) -> Self::Graph;
}

impl TextBuilder for GraphBuilder {
    type Graph = Graph;
    const WEIGHTED: bool = false;
    fn sized(n: usize, m: usize) -> Self {
        GraphBuilder::with_capacity(n, m)
    }
    fn add(&mut self, u: u32, v: u32, _: u32) {
        self.add_edge(u as usize, v as usize);
    }
    fn finish(&self) -> Graph {
        self.build()
    }
}

impl TextBuilder for WeightedGraphBuilder {
    type Graph = WeightedGraph;
    const WEIGHTED: bool = true;
    fn sized(n: usize, m: usize) -> Self {
        WeightedGraphBuilder::with_capacity(n, m)
    }
    fn add(&mut self, u: u32, v: u32, w: u32) {
        self.add_edge(u as usize, v as usize, w);
    }
    fn finish(&self) -> WeightedGraph {
        self.build()
    }
}

/// Parses a text graph in `grammar` into `B`'s graph (see the module docs).
fn read_text<B: TextBuilder>(
    mut reader: impl BufRead,
    grammar: Grammar,
) -> Result<B::Graph, ParseGraphError> {
    let (comment, base) = match grammar {
        Grammar::EdgeList => ('#', 0),
        Grammar::Dimacs { .. } => ('c', 1),
    };
    // The 0-based id of `x`, as `line` wrote it, under a header for `n`.
    let in_range = |x: usize, n: usize, line: usize| match x - base {
        id if id < n => Ok(id as u32),
        _ => Err(ParseGraphError::VertexOutOfRange { line, vertex: x, n }),
    };
    // A builder for `n` holding the edges read before the header on `line`
    // (only an edge list has any).
    let flush = |pending: Vec<(u32, u32, u32)>, n: usize, line: usize| {
        let mut b = B::sized(n, pending.len());
        for (u, v, w) in pending {
            b.add(
                in_range(u as usize, n, line)?,
                in_range(v as usize, n, line)?,
                w,
            );
        }
        Ok::<B, ParseGraphError>(b)
    };
    let mut pending = Vec::new();
    let mut header: Option<(usize, B)> = None;
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
        if t.is_empty() || t.starts_with(['#', comment]) {
            continue;
        }
        let bad = || ParseGraphError::BadLine {
            line,
            content: t.to_string(),
        };
        let mut fields = t.split_whitespace();
        let head = fields.next();
        if head == Some("p") {
            let n = match grammar {
                Grammar::EdgeList => fields.next().and_then(|s| s.parse::<usize>().ok()),
                Grammar::Dimacs { .. } => fields.find_map(|s| s.parse::<usize>().ok()),
            }
            .filter(|_| header.is_none())
            .ok_or_else(bad)?;
            if n > MAX_TEXT_VERTICES {
                return Err(ParseGraphError::TooLarge { line, n });
            }
            header = Some((n, flush(std::mem::take(&mut pending), n, line)?));
            continue;
        }
        let u = match grammar {
            Grammar::EdgeList => head,
            Grammar::Dimacs { tag, .. } if head != Some(tag) => return Err(bad()),
            Grammar::Dimacs { what, .. } if header.is_none() => {
                return Err(ParseGraphError::BadLine {
                    line,
                    content: format!("{what} before p header"),
                })
            }
            Grammar::Dimacs { .. } => fields.next(),
        };
        let id = |s: Option<&str>| s?.parse::<usize>().ok().filter(|&x| x >= base);
        let (u, v) = (id(u), id(fields.next()));
        let w = if B::WEIGHTED {
            fields.next().and_then(|s| s.parse::<u32>().ok())
        } else {
            Some(0)
        };
        let (Some(u), Some(v), Some(w)) = (u, v, w) else {
            return Err(bad());
        };
        match &mut header {
            Some((n, b)) => b.add(in_range(u, *n, line)?, in_range(v, *n, line)?, w),
            // Buffered until `n = max id + 1` is known.
            None => {
                let n = u.max(v).saturating_add(1);
                if n > MAX_TEXT_VERTICES {
                    return Err(ParseGraphError::TooLarge { line, n });
                }
                pending.push((u as u32, v as u32, w));
            }
        }
    }
    let b = match header {
        Some((_, b)) => b,
        None => {
            let n = pending.iter().map(|&(u, v, _)| u.max(v) as usize + 1).max();
            flush(pending, n.unwrap_or(0), line)?
        }
    };
    Ok(b.finish())
}

/// Parses an edge-list graph (0-based ids).
///
/// Lines: `u v` pairs; blank lines and `#` comments ignored; an optional
/// `p <n>` line pins the vertex count.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on I/O failures or malformed content.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, ParseGraphError> {
    read_text::<GraphBuilder>(reader, Grammar::EdgeList)
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

/// Parses a DIMACS-like graph: `p <n> <m>` then `e u v` lines (1-based).
///
/// # Errors
///
/// Returns [`ParseGraphError`] on I/O failures or malformed content.
pub fn read_dimacs<R: BufRead>(reader: R) -> Result<Graph, ParseGraphError> {
    read_text::<GraphBuilder>(
        reader,
        Grammar::Dimacs {
            tag: "e",
            what: "edge",
        },
    )
}

/// Writes a graph in DIMACS format (`p edge n m`, 1-based `e` lines).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_dimacs<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "p edge {} {}", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "e {} {}", u + 1, v + 1)?;
    }
    Ok(())
}

/// Parses a weighted edge list (0-based ids).
///
/// Lines: `u v w` triples; blank lines and `#` comments ignored; an
/// optional `p <n>` line pins the vertex count. Parallel edges collapse to
/// the lightest weight (see [`WeightedGraphBuilder`]).
///
/// # Errors
///
/// Returns [`ParseGraphError`] on I/O failures or malformed content.
pub fn read_weighted_edge_list<R: BufRead>(reader: R) -> Result<WeightedGraph, ParseGraphError> {
    read_text::<WeightedGraphBuilder>(reader, Grammar::EdgeList)
}

/// Writes a weighted graph as a `u v w` edge list with a `p <n>` header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_weighted_edge_list<W: Write>(g: &WeightedGraph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "p {}", g.num_vertices())?;
    for (u, v, wt) in g.edges_weighted() {
        writeln!(w, "{u} {v} {wt}")?;
    }
    Ok(())
}

/// Parses a DIMACS shortest-path graph: `p sp <n> <m>` then `a u v w` arc
/// lines (1-based). Also accepts a plain `p <n> <m>` header.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on I/O failures or malformed content.
pub fn read_dimacs_sp<R: BufRead>(reader: R) -> Result<WeightedGraph, ParseGraphError> {
    read_text::<WeightedGraphBuilder>(
        reader,
        Grammar::Dimacs {
            tag: "a",
            what: "arc",
        },
    )
}

/// Writes a weighted graph in DIMACS shortest-path format (`p sp n m`,
/// 1-based `a` lines, one arc per undirected edge).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_dimacs_sp<W: Write>(g: &WeightedGraph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "p sp {} {}", g.num_vertices(), g.num_edges())?;
    for (u, v, wt) in g.edges_weighted() {
        writeln!(w, "a {} {} {}", u + 1, v + 1, wt)?;
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
    use crate::weighted::WeightDist;

    #[test]
    fn edge_list_round_trip() {
        let g = generators::gnp(40, 0.15, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn dimacs_round_trip() {
        let g = generators::grid2d(5, 7);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let h = read_dimacs(&buf[..]).unwrap();
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
        type Read = fn(&str) -> Option<ParseGraphError>;
        let edge_list: Read = |t| read_edge_list(t.as_bytes()).err();
        let weighted: Read = |t| read_weighted_edge_list(t.as_bytes()).err();
        let dimacs: Read = |t| read_dimacs(t.as_bytes()).err();
        let dimacs_sp: Read = |t| read_dimacs_sp(t.as_bytes()).err();
        // An id before any header whose `n = max id + 1` passes the limit,
        // inside and past the u32 range.
        let mut cases = vec![
            (edge_list, "0 1\n0 5000000000\n", Want::TooLarge, 2),
            (weighted, "0 4000000000 1\n", Want::TooLarge, 1),
            (weighted, "0 1 1\n0 5000000000 1\n", Want::TooLarge, 2),
        ];
        // Every reader: a malformed field; the 13-byte `0 4000000000`
        // (an edge-list id past the limit, a line without its weight or
        // its DIMACS tag elsewhere); headers past the limit, inside and
        // past the u32 range.
        for (read, id_probe) in [
            (edge_list, Want::TooLarge),
            (weighted, Want::BadLine),
            (dimacs, Want::BadLine),
            (dimacs_sp, Want::BadLine),
        ] {
            cases.extend([
                (read, "0 x\n", Want::BadLine, 1),
                (read, "0 4000000000\n", id_probe, 1),
                (read, "p 3000000000\n", Want::TooLarge, 1),
                (read, "p 5000000000\n", Want::TooLarge, 1),
            ]);
        }
        for (read, text, want, line) in cases {
            let err = read(text);
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
    fn dimacs_accepts_comments_and_edge_keyword() {
        let text = "c hello\np edge 4 2\ne 1 2\ne 3 4\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn dimacs_rejects_edge_before_header() {
        assert!(read_dimacs("e 1 2\n".as_bytes()).is_err());
        // A second header would drop the edges read under the first.
        let err = read_dimacs("p edge 3 1\ne 1 2\np edge 5 1\ne 3 4\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, ParseGraphError::BadLine { line: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(read_edge_list("".as_bytes()).unwrap().num_vertices(), 0);
        assert_eq!(read_dimacs("".as_bytes()).unwrap().num_vertices(), 0);
        assert_eq!(
            read_weighted_edge_list("".as_bytes())
                .unwrap()
                .num_vertices(),
            0
        );
        assert_eq!(read_dimacs_sp("".as_bytes()).unwrap().num_vertices(), 0);
    }

    #[test]
    fn weighted_edge_list_round_trip() {
        let g = WeightedGraph::from_graph(
            generators::gnp(40, 0.15, 3),
            WeightDist::Uniform { lo: 0, hi: 9 },
            5,
        );
        let mut buf = Vec::new();
        write_weighted_edge_list(&g, &mut buf).unwrap();
        let h = read_weighted_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn dimacs_sp_round_trip() {
        let g = WeightedGraph::from_graph(
            generators::grid2d(5, 7),
            WeightDist::Uniform { lo: 1, hi: 100 },
            8,
        );
        let mut buf = Vec::new();
        write_dimacs_sp(&g, &mut buf).unwrap();
        let h = read_dimacs_sp(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn weighted_edge_list_parses_headers_and_comments() {
        let text = "# weighted\np 6\n0 1 4\n\n1 2 0\n";
        let g = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 2), Some(0));
    }

    #[test]
    fn weighted_edge_list_requires_weight_field() {
        let err = read_weighted_edge_list("0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseGraphError::BadLine { line: 1, .. }));
    }

    #[test]
    fn dimacs_sp_accepts_sp_header_and_parallel_arcs() {
        let text = "c road graph\np sp 4 2\na 1 2 9\na 2 1 5\na 3 4 2\n";
        let g = read_dimacs_sp(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        // Parallel arcs collapse to the lightest weight.
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(2, 3), Some(2));
    }

    #[test]
    fn dimacs_sp_rejects_arc_before_header() {
        assert!(read_dimacs_sp("a 1 2 3\n".as_bytes()).is_err());
        let err = read_dimacs_sp("p sp 3 1\na 1 2 1\np sp 5 1\na 3 4 1\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, ParseGraphError::BadLine { line: 3, .. }),
            "{err}"
        );
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

    #[test]
    fn dimacs_sp_out_of_range_is_reported() {
        let err = read_dimacs_sp("p sp 2 1\na 1 5 2\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ParseGraphError::VertexOutOfRange {
                vertex: 5,
                n: 2,
                ..
            }
        ));
    }
}
