//! On-disk CSR file layout.
//!
//! ```text
//! offset  size            field
//! ------  --------------  -----------------------------------------
//!      0  8               magic  "AGTCSR01"
//!      8  1               index_width (4 or 8 bytes per edge target)
//!      9  1               weighted (0 or 1; weights are u32 LE)
//!     10  6               reserved (zero)
//!     16  8               num_vertices (u64 LE)
//!     24  8               num_edges    (u64 LE)
//!     32  8               offsets_pos  (byte position of offsets array)
//!     40  8               edges_pos    (byte position of edge records)
//!     48  8               checksum_pos (byte position of checksum table;
//!                           0 = legacy file without checksums)
//!     56  4               checksum_chunk (edge bytes per table entry;
//!                           0 = legacy file without checksums)
//!     60  4               header CRC32 over bytes 0..60 (0 = unchecked)
//!     64  (n+1)*8         offsets array (u64 LE, cumulative degrees)
//!      …  m*record_size   edge records in CSR order:
//!                           target (index_width bytes LE)
//!                           [weight u32 LE, iff weighted]
//!      …  8*(1+chunks)    checksum table (iff checksum_pos != 0):
//!                           offsets-array sum (u64 LE), then one u64 LE
//!                           sum per checksum_chunk bytes of edge records
//! ```
//!
//! The offsets array is the "algorithmic information about the vertices"
//! that the semi-external model keeps in memory (`(n+1) * 8` bytes); the
//! edge-record region is only ever touched by positioned reads. The
//! checksum machinery lives in [`crate::checksum`]; all three checksum
//! fields were carved out of formerly-reserved (zeroed) bytes, so legacy
//! files decode as checksum-free rather than failing.

use crate::checksum::crc32;
use std::io;

/// File magic for the SEM CSR format.
pub const MAGIC: &[u8; 8] = b"AGTCSR01";

/// Fixed size of the file header in bytes.
pub const HEADER_BYTES: u64 = 64;

/// Parsed and validated SEM CSR file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SemHeader {
    /// Bytes per stored edge target: 4 (`u32`) or 8 (`u64`).
    pub index_width: u8,
    /// Whether each edge record carries a `u32` weight.
    pub weighted: bool,
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of edge records.
    pub num_edges: u64,
    /// Byte position of the offsets array.
    pub offsets_pos: u64,
    /// Byte position of the edge-record region.
    pub edges_pos: u64,
    /// Byte position of the checksum table; `0` for legacy files that
    /// carry no checksums.
    pub checksum_pos: u64,
    /// Edge-region bytes covered per checksum-table entry; `0` for legacy
    /// files that carry no checksums.
    pub checksum_chunk: u32,
}

impl SemHeader {
    /// Bytes per edge record (`index_width` plus 4 if weighted).
    #[inline]
    pub fn record_size(&self) -> u64 {
        self.index_width as u64 + if self.weighted { 4 } else { 0 }
    }

    /// Size of header + offsets + edge records — the end of the data
    /// regions, which is where the checksum table (if any) begins.
    pub fn expected_file_len(&self) -> u64 {
        self.edges_pos + self.num_edges * self.record_size()
    }

    /// Whether the file carries an offsets/edge checksum table.
    #[inline]
    pub fn has_checksums(&self) -> bool {
        self.checksum_pos != 0 && self.checksum_chunk != 0
    }

    /// Number of edge-region chunks covered by the checksum table.
    pub fn num_checksum_chunks(&self) -> u64 {
        if !self.has_checksums() {
            return 0;
        }
        (self.num_edges * self.record_size()).div_ceil(self.checksum_chunk as u64)
    }

    /// Bytes occupied by the checksum table (offsets entry + chunk entries).
    pub fn checksum_table_len(&self) -> u64 {
        if !self.has_checksums() {
            return 0;
        }
        8 * (1 + self.num_checksum_chunks())
    }

    /// Total file size implied by the header, checksum table included.
    pub fn total_file_len(&self) -> u64 {
        self.expected_file_len() + self.checksum_table_len()
    }

    /// Serialize to the fixed 64-byte header block. Bytes 60..64 carry a
    /// CRC32 of bytes 0..60 so header stomps are detected at decode.
    pub fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let mut h = [0u8; HEADER_BYTES as usize];
        h[0..8].copy_from_slice(MAGIC);
        h[8] = self.index_width;
        h[9] = self.weighted as u8;
        h[16..24].copy_from_slice(&self.num_vertices.to_le_bytes());
        h[24..32].copy_from_slice(&self.num_edges.to_le_bytes());
        h[32..40].copy_from_slice(&self.offsets_pos.to_le_bytes());
        h[40..48].copy_from_slice(&self.edges_pos.to_le_bytes());
        h[48..56].copy_from_slice(&self.checksum_pos.to_le_bytes());
        h[56..60].copy_from_slice(&self.checksum_chunk.to_le_bytes());
        let crc = crc32(&h[..60]);
        h[60..64].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Parse and validate a header block.
    pub fn decode(h: &[u8]) -> io::Result<SemHeader> {
        if h.len() < HEADER_BYTES as usize {
            return Err(bad("header truncated"));
        }
        if &h[0..8] != MAGIC {
            return Err(bad("bad magic: not an asyncgt SEM CSR file"));
        }
        // CRC first: a stomped header must fail here, before any field is
        // trusted by the arithmetic below. A zero CRC marks a legacy file
        // written before headers were checksummed.
        let stored_crc = u32::from_le_bytes(h[60..64].try_into().unwrap());
        if stored_crc != 0 && stored_crc != crc32(&h[..60]) {
            return Err(bad("header CRC mismatch"));
        }
        let index_width = h[8];
        if index_width != 4 && index_width != 8 {
            return Err(bad(&format!("unsupported index width {index_width}")));
        }
        let weighted = match h[9] {
            0 => false,
            1 => true,
            x => return Err(bad(&format!("bad weighted flag {x}"))),
        };
        let u64_at = |pos: usize| u64::from_le_bytes(h[pos..pos + 8].try_into().unwrap());
        let hdr = SemHeader {
            index_width,
            weighted,
            num_vertices: u64_at(16),
            num_edges: u64_at(24),
            offsets_pos: u64_at(32),
            edges_pos: u64_at(40),
            checksum_pos: u64_at(48),
            checksum_chunk: u32::from_le_bytes(h[56..60].try_into().unwrap()),
        };
        if hdr.offsets_pos < HEADER_BYTES {
            return Err(bad("offsets array overlaps header"));
        }
        // Checked arithmetic throughout: on legacy (CRC-less) files these
        // fields are untrusted input, and an overflow here must be a clean
        // decode error, never a panic.
        let offsets_bytes = hdr
            .num_vertices
            .checked_add(1)
            .and_then(|x| x.checked_mul(8))
            .ok_or_else(|| bad("vertex count overflows offsets size"))?;
        if hdr.offsets_pos.checked_add(offsets_bytes).is_none()
            || hdr.edges_pos < hdr.offsets_pos + offsets_bytes
        {
            return Err(bad("edge region overlaps offsets array"));
        }
        let edges_end = hdr
            .num_edges
            .checked_mul(hdr.record_size())
            .and_then(|x| x.checked_add(hdr.edges_pos))
            .ok_or_else(|| bad("edge count overflows file size"))?;
        match (hdr.checksum_pos, hdr.checksum_chunk) {
            (0, 0) => {} // legacy: no checksum table
            (0, _) | (_, 0) => {
                return Err(bad("inconsistent checksum fields"));
            }
            (pos, _) => {
                if pos != edges_end {
                    return Err(bad("checksum table not positioned after edge region"));
                }
                // The table's end must fit too: a wrapped `total_file_len`
                // would let a tiny file pass `open`'s length check.
                hdr.num_checksum_chunks()
                    .checked_add(1)
                    .and_then(|x| x.checked_mul(8))
                    .and_then(|x| x.checked_add(edges_end))
                    .ok_or_else(|| bad("checksum table overflows file size"))?;
            }
        }
        Ok(hdr)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SemHeader {
        SemHeader {
            index_width: 4,
            weighted: true,
            num_vertices: 100,
            num_edges: 1600,
            offsets_pos: HEADER_BYTES,
            edges_pos: HEADER_BYTES + 101 * 8,
            checksum_pos: 0,
            checksum_chunk: 0,
        }
    }

    fn sample_checksummed() -> SemHeader {
        let mut h = sample();
        h.checksum_chunk = 4096;
        h.checksum_pos = h.expected_file_len();
        h
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = sample();
        let decoded = SemHeader::decode(&h.encode()).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn record_size() {
        assert_eq!(sample().record_size(), 8);
        let mut h = sample();
        h.weighted = false;
        assert_eq!(h.record_size(), 4);
        h.index_width = 8;
        assert_eq!(h.record_size(), 8);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut enc = sample().encode();
        enc[0] = b'X';
        assert!(SemHeader::decode(&enc).is_err());
    }

    #[test]
    fn rejects_bad_width() {
        let mut enc = sample().encode();
        enc[8] = 3;
        assert!(SemHeader::decode(&enc).is_err());
    }

    #[test]
    fn rejects_overlapping_regions() {
        let mut h = sample();
        h.edges_pos = h.offsets_pos; // edges collide with offsets
        assert!(SemHeader::decode(&h.encode()).is_err());
    }

    #[test]
    fn rejects_truncated_header() {
        assert!(SemHeader::decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn expected_file_len() {
        let h = sample();
        assert_eq!(h.expected_file_len(), h.edges_pos + 1600 * 8);
        assert_eq!(h.total_file_len(), h.expected_file_len());
    }

    #[test]
    fn checksummed_header_round_trips() {
        let h = sample_checksummed();
        let decoded = SemHeader::decode(&h.encode()).unwrap();
        assert_eq!(decoded, h);
        assert!(decoded.has_checksums());
        // 1600 records * 8 B = 12800 edge bytes = 4 chunks of 4096.
        assert_eq!(decoded.num_checksum_chunks(), 4);
        assert_eq!(decoded.checksum_table_len(), 8 * 5);
        assert_eq!(decoded.total_file_len(), h.expected_file_len() + 40);
    }

    #[test]
    fn header_crc_detects_stomps() {
        let mut enc = sample_checksummed().encode();
        enc[17] ^= 0x40; // corrupt num_vertices without touching the CRC
        let err = SemHeader::decode(&enc).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn legacy_header_without_crc_still_decodes() {
        let mut enc = sample().encode();
        enc[48..64].fill(0); // a pre-checksum writer left these reserved
        let decoded = SemHeader::decode(&enc).unwrap();
        assert!(!decoded.has_checksums());
        assert_eq!(decoded.num_vertices, 100);
    }

    #[test]
    fn rejects_inconsistent_checksum_fields() {
        let mut h = sample();
        h.checksum_chunk = 4096; // chunk set but pos zero
        assert!(SemHeader::decode(&h.encode()).is_err());
        let mut h = sample_checksummed();
        h.checksum_pos -= 8; // table overlapping the edge region
        assert!(SemHeader::decode(&h.encode()).is_err());
    }

    #[test]
    fn rejects_overflowing_counts_without_panic() {
        let mut h = sample();
        h.num_vertices = u64::MAX;
        assert!(SemHeader::decode(&h.encode()).is_err());
        let mut h = sample();
        h.num_edges = u64::MAX / 2;
        assert!(SemHeader::decode(&h.encode()).is_err());
    }
}
