//! Dataset file I/O: the original repo's `datasets/` folder workflow.
//!
//! Two formats:
//!
//! * **Edge-list text** (`src dst [weight]` per line, `#` comments) — the
//!   format SNAP distributes real-world graphs in, so users can drop in
//!   downloaded datasets.
//! * **Binary CSR** — a compact little-endian dump of the three CSR
//!   arrays for fast reload of generated datasets.

use crate::csr::Csr;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Magic header for the binary CSR format.
const MAGIC: &[u8; 8] = b"MUCHICSR";

/// Parses an edge-list text stream (`src dst [weight]`, `#` comments).
///
/// Vertex count is `max endpoint + 1` unless `num_vertices` is given.
///
/// # Errors
///
/// Returns an error for unreadable input or malformed lines.
pub fn read_edge_list<R: Read>(reader: R, num_vertices: Option<u32>) -> io::Result<Csr> {
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();
    let mut max_v = 0u32;
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |s: Option<&str>| -> io::Result<u32> {
            s.and_then(|t| t.parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed edge on line {}", lineno + 1),
                )
            })
        };
        let src = parse(it.next())?;
        let dst = parse(it.next())?;
        let weight: f32 = it.next().and_then(|t| t.parse().ok()).unwrap_or(1.0);
        max_v = max_v.max(src).max(dst);
        edges.push((src, dst, weight));
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() { 0 } else { max_v + 1 });
    Ok(Csr::from_edges(n, &edges))
}

/// Writes the graph as edge-list text.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_edge_list<W: Write>(graph: &Csr, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# muchisim edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (s, d, wt) in graph.iter_edges() {
        writeln!(w, "{s} {d} {wt}")?;
    }
    w.flush()
}

/// Writes the graph in the binary CSR format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_csr_binary<W: Write>(graph: &Csr, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&graph.num_vertices().to_le_bytes())?;
    w.write_all(&graph.num_edges().to_le_bytes())?;
    for &p in graph.row_ptr() {
        w.write_all(&p.to_le_bytes())?;
    }
    for &c in graph.col_idx() {
        w.write_all(&c.to_le_bytes())?;
    }
    for &v in graph.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a binary CSR dump.
///
/// # Errors
///
/// Returns an error for truncated input or a wrong magic header.
pub fn read_csr_binary<R: Read>(reader: R) -> io::Result<Csr> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a muchisim CSR file",
        ));
    }
    let mut b4 = [0u8; 4];
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b4)?;
    let n = u32::from_le_bytes(b4);
    r.read_exact(&mut b8)?;
    let m = u64::from_le_bytes(b8);
    let mut row_ptr = Vec::with_capacity(n as usize + 1);
    for _ in 0..=n {
        r.read_exact(&mut b8)?;
        row_ptr.push(u64::from_le_bytes(b8));
    }
    let mut edges = Vec::with_capacity(m as usize);
    let mut cols = Vec::with_capacity(m as usize);
    for _ in 0..m {
        r.read_exact(&mut b4)?;
        cols.push(u32::from_le_bytes(b4));
    }
    for (k, &dst) in cols.iter().enumerate() {
        r.read_exact(&mut b4)?;
        let val = f32::from_le_bytes(b4);
        // reconstruct (src, dst, w): find the row of slot k
        let src = match row_ptr.binary_search(&(k as u64)) {
            Ok(mut i) => {
                // rows may be empty: take the last row starting at k
                while i + 1 < row_ptr.len() && row_ptr[i + 1] == k as u64 {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        edges.push((src as u32, dst, val));
    }
    Ok(Csr::from_edges(n, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::RmatConfig;

    #[test]
    fn edge_list_round_trip() {
        let g = RmatConfig::scale(6).generate(3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], Some(g.num_vertices())).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_parses_comments_and_defaults() {
        let text = "# a comment\n0 1\n1 2 0.5\n\n2 0 2.5\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.weights(0), &[1.0]);
        assert_eq!(g.weights(1), &[0.5]);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), None).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let g = RmatConfig::scale(7).generate(9);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        let back = read_csr_binary(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn binary_round_trip_with_empty_rows() {
        let g = Csr::from_edges(5, &[(0, 4, 1.5), (4, 0, 2.5)]);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        assert_eq!(read_csr_binary(&buf[..]).unwrap(), g);
    }

    #[test]
    fn binary_rejects_wrong_magic() {
        assert!(read_csr_binary(&b"NOTACSR0\0\0\0\0"[..]).is_err());
    }
}
