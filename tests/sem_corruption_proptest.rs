//! Property test: arbitrary byte corruption of a valid `.sem` file must be
//! *contained* — opening and traversing the mutated file either fails with
//! a typed error or produces results identical to the pristine reference.
//! Never a panic, never a hang, never silently wrong results.
//!
//! The guarantee rests on three layers: the header CRC (bytes 60..64)
//! covers the header, the offsets checksum covers the in-RAM index, and
//! per-chunk checksums cover every edge-region byte. A mutation that lands
//! in the checksum table itself makes verification fail closed.

use asyncgt::storage::checksum::{chunk_sum, crc32};
use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, SemGraph, SemHeader, StorageError};
use asyncgt::{try_bfs, Config};
use asyncgt_graph::generators::{RmatGenerator, RmatParams};
use asyncgt_graph::CsrGraph;
use asyncgt_integration_tests::scratch;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The pristine fixture: a small weighted-free RMAT graph, its serialized
/// bytes, and the reference BFS distances. Built once per process.
fn fixture() -> &'static (CsrGraph<u32>, Vec<u8>, Vec<u64>) {
    static FIXTURE: OnceLock<(CsrGraph<u32>, Vec<u8>, Vec<u64>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 8, 8, 77).directed();
        let path = scratch("corrupt_fixture.agt");
        write_sem_graph(&path, &g).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let dist = try_bfs(&g, 0, &Config::with_threads(2)).unwrap().dist;
        (g, bytes, dist)
    })
}

/// Write `bytes` with `mutations` applied (position wraps to file length,
/// XOR value forced nonzero so every mutation really changes a byte),
/// then open + BFS. Returns `Err` description or `Ok(dist)`.
fn open_and_traverse(case: &str, mutations: &[(u64, u8)]) -> Result<Vec<u64>, String> {
    let (_, bytes, _) = fixture();
    let mut mutated = bytes.clone();
    for &(pos, val) in mutations {
        let idx = (pos % mutated.len() as u64) as usize;
        mutated[idx] ^= val | 1;
    }
    let path = scratch(&format!("corrupt_{case}.agt"));
    std::fs::write(&path, &mutated).unwrap();

    let sem = SemGraph::open_with(
        &path,
        SemConfig {
            block_size: 4096,
            cache_blocks: 16,
            ..SemConfig::default()
        },
    )
    .map_err(|e| format!("open: {e}"))?;
    let out = try_bfs(&sem, 0, &Config::with_threads(4)).map_err(|e| format!("traverse: {e}"))?;
    std::fs::remove_file(&path).ok();
    Ok(out.dist)
}

/// One header field: usually the value a consistent file has (`near`);
/// one time in four, chosen by `raw`'s bits, a value a few bytes off it,
/// one next to `u64::MAX` (overflow edges), or `raw` itself. Sets
/// `*exact = false` unless `near` is chosen.
fn pick(raw: u64, near: u64, exact: &mut bool) -> u64 {
    let v = match (raw % 4, (raw >> 2) % 3) {
        (1..=3, _) => near,
        (_, 0) => near.wrapping_add((raw >> 4) % 17).wrapping_sub(8),
        (_, 1) => u64::MAX - (raw >> 4) % 64,
        _ => raw,
    };
    *exact &= v == near;
    v
}

/// A `.agt` file whose header fields are drawn by [`pick`] around the
/// layout of a graph with `degrees` (edge targets from `noise`), with a
/// recomputed header CRC (or a legacy zero CRC), followed by the offsets
/// array, the edge records and a checksum table. Every byte is small, so
/// a case can only fail on what the bytes say, never on an allocation the
/// file really asks for. Returns the bytes and whether every field kept
/// its consistent value.
fn crafted_file(raw: &[u64], degrees: &[u64], noise: &[u8]) -> (Vec<u8>, bool) {
    let mut exact = true;
    let n = degrees.len() as u64;
    let m: u64 = degrees.iter().sum();
    let width = [4u8, 8, 4, 8, 4, 8, 4, raw[0] as u8][(raw[0] >> 8) as usize % 8];
    let weighted = [0u8, 1, 0, 1, 0, 1, 0, raw[1] as u8][(raw[1] >> 8) as usize % 8];
    exact &= (width == 4 || width == 8) && weighted <= 1;
    let record = width as u64 + 4 * (weighted == 1) as u64;
    let chunk = match raw[2] % 3 {
        0 => 0,
        1 => 1u32 << ((raw[2] >> 2) % 7),
        _ => (raw[2] >> 32) as u32,
    };
    let edges_pos = 64 + 8 * (n + 1);
    let table_pos = edges_pos + m * record;
    let mut h = SemHeader {
        index_width: 4,
        weighted: false,
        num_vertices: pick(raw[3], n, &mut exact),
        num_edges: pick(raw[4], m, &mut exact),
        offsets_pos: pick(raw[5], 64, &mut exact),
        edges_pos: pick(raw[6], edges_pos, &mut exact),
        checksum_pos: pick(raw[7], if chunk == 0 { 0 } else { table_pos }, &mut exact),
        checksum_chunk: chunk,
    }
    .encode();
    h[8] = width;
    h[9] = weighted;
    let crc = if raw[8].is_multiple_of(8) {
        0
    } else {
        crc32(&h[..60])
    };
    h[60..64].copy_from_slice(&crc.to_le_bytes());

    let mut offsets = Vec::new();
    let mut end = 0u64;
    offsets.extend_from_slice(&end.to_le_bytes());
    for d in degrees {
        end += d;
        offsets.extend_from_slice(&end.to_le_bytes());
    }
    // Targets mostly in range; `n` itself is one past the end.
    let mut edges = Vec::new();
    for i in 0..m as usize {
        let t = noise.get(i).map_or(0, |&b| b as u64 % (n + 1));
        edges.extend_from_slice(&t.to_le_bytes()[..(width as usize).min(8)]);
        if weighted == 1 {
            edges.extend_from_slice(&1u32.to_le_bytes());
        }
    }
    let mut file = h.to_vec();
    file.extend_from_slice(&offsets);
    file.extend_from_slice(&edges);
    if chunk != 0 {
        file.extend_from_slice(&chunk_sum(&offsets).to_le_bytes());
        for c in edges.chunks(chunk.min(1 << 16) as usize) {
            file.extend_from_slice(&chunk_sum(c).to_le_bytes());
        }
    }
    (file, exact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn byte_corruption_is_detected_or_harmless(
        mutations in collection::vec((any::<u64>(), any::<u8>()), 1..8),
    ) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            open_and_traverse("prop", &mutations)
        }));
        let result = match outcome {
            Ok(r) => r,
            Err(_) => {
                return Err(format!(
                    "corruption caused a panic (mutations: {mutations:?})"
                ))
            }
        };
        if let Ok(dist) = result {
            // The only acceptable Ok is a correct one. (Mutations can
            // cancel each other out or land in file regions rejected
            // before they matter — but results must then be exact.)
            prop_assert_eq!(
                &dist,
                &fixture().2,
                "corruption silently changed results (mutations: {:?})",
                mutations
            );
        }
    }

    #[test]
    fn truncation_is_detected_or_harmless(cut in 1u64..100_000) {
        let (_, bytes, _) = fixture();
        let keep = bytes.len() - 1 - (cut % (bytes.len() as u64 - 1)) as usize;
        let path = scratch("corrupt_trunc.agt");
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SemGraph::open(&path).map(|sem| try_bfs(&sem, 0, &Config::with_threads(2)))
        }));
        match res {
            Err(_) => return Err(format!("truncation to {keep} bytes panicked")),
            // Every truncation removes real data (the checksum table is
            // load-bearing), so open or traversal must fail.
            Ok(Ok(Ok(_))) => {
                return Err(format!("truncation to {keep} bytes went undetected"))
            }
            Ok(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary header fields with a valid CRC, then offsets, edges and a
    /// checksum table: `open` and a BFS over what it opens end in `Ok` or
    /// a typed error, never a panic.
    #[test]
    fn crafted_headers_and_offsets_fail_typed(
        raw in collection::vec(any::<u64>(), 9..10),
        degrees in collection::vec(0u64..4, 0..9),
        noise in collection::vec(any::<u8>(), 0..32),
    ) {
        let (bytes, exact) = crafted_file(&raw, &degrees, &noise);
        let path = scratch("crafted_header.agt");
        std::fs::write(&path, &bytes).unwrap();
        let outcome = std::panic::catch_unwind(|| {
            SemGraph::open(&path).map(|sem| try_bfs(&sem, 0, &Config::with_threads(1)).is_ok())
        });
        let Ok(opened) = outcome else {
            return Err(format!("panicked on {bytes:?}"));
        };
        // A file whose every field is consistent opens.
        prop_assert!(!exact || opened.is_ok(), "consistent file rejected: {opened:?}");
    }
}

/// A header whose checksum table would end past `u64::MAX`: the table
/// length wrapped, so an 80-byte file passed the length check and the
/// table allocation panicked. It must be rejected as corrupt instead.
#[test]
fn wrapping_checksum_table_is_corrupt() {
    let e = (u64::MAX - 87) / 36;
    let header = SemHeader {
        index_width: 4,
        weighted: false,
        num_vertices: 1,
        num_edges: e,
        offsets_pos: 64,
        edges_pos: 80,
        checksum_pos: 80 + 4 * e,
        checksum_chunk: 1,
    };
    let mut bytes = header.encode().to_vec();
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&e.to_le_bytes());
    assert_eq!(bytes.len(), 80);
    let path = scratch("wrapping_table.agt");
    std::fs::write(&path, &bytes).unwrap();
    let res = std::panic::catch_unwind(|| SemGraph::open(&path).map(|_| ()));
    assert!(
        matches!(res, Ok(Err(StorageError::Corrupt { .. }))),
        "{res:?}"
    );
}

#[test]
fn header_magic_corruption_rejected() {
    let err = open_and_traverse("magic", &[(0, 0xFF)]).unwrap_err();
    assert!(err.starts_with("open:"), "{err}");
}

#[test]
fn single_bit_flip_in_edge_region_detected() {
    let (_, bytes, _) = fixture();
    // Flip one bit in the middle of the edge region (past the 64-byte
    // header and the offsets array — safely inside adjacency data).
    let pos = 64 + (bytes.len() - 64) / 2;
    let res = open_and_traverse("bitflip", &[(pos as u64, 0x10)]);
    match res {
        Err(e) => assert!(e.contains("corrupt") || e.contains("checksum"), "{e}"),
        Ok(dist) => assert_eq!(dist, fixture().2),
    }
}
