//! Property test: arbitrary byte corruption of a valid `.sem` file must be
//! *contained* — opening and traversing the mutated file either fails with
//! a typed error or produces results identical to the pristine reference.
//! Never a panic, never a hang, never silently wrong results.
//!
//! The guarantee rests on three layers: the header CRC (bytes 60..64)
//! covers the header, the offsets checksum covers the in-RAM index, and
//! per-chunk checksums cover every edge-region byte. A mutation that lands
//! in the checksum table itself makes verification fail closed.

use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, SemGraph};
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
