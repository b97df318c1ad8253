//! Golden content addresses: the canonical clade hashes of two fixed trees,
//! pinned as literals.
//!
//! A stored tree's `tree_stats.root_hash` is its content address, and dedup
//! and the equal-tree short-circuit match on it across every file ever
//! written. A change to the hash kernel, the leaf hashing or the load pass
//! that moves any node's hash moves these values, so each is checked both
//! in memory and as the loader stores it.

use crimson::prelude::*;
use labeling::clade_hash::{self, CladeHash};
use phylo::Tree;
use simulation::birth_death::yule_tree;
use tempfile::tempdir;

/// FNV-1a (64-bit) over the little-endian bytes of every node's hash,
/// sorted: a digest of the tree's hash multiset.
fn node_hash_digest(hashes: &[CladeHash]) -> u64 {
    let mut sorted: Vec<u128> = hashes.iter().map(|h| h.to_u128()).collect();
    sorted.sort_unstable();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for byte in sorted.iter().flat_map(|v| v.to_le_bytes()) {
        digest ^= byte as u64;
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// Check `tree`'s in-memory hashes and the root hash `load_tree` stores
/// against the golden `root` and `digest`.
fn check_golden(tree: &Tree, root: u128, digest: u64) {
    let hashes = clade_hash::tree_hashes(tree);
    let in_memory = hashes[tree.root_unchecked().index()];
    assert_eq!(in_memory.to_u128(), root, "in-memory root hash moved");
    assert_eq!(node_hash_digest(&hashes), digest, "node-hash digest moved");

    let dir = tempdir().unwrap();
    let mut repo = Repository::create(dir.path().join("golden.crimson"), Default::default())
        .expect("create repository");
    let handle = repo.load_tree("golden", tree).unwrap();
    let stats = repo.view().tree_stats(handle).unwrap();
    assert_eq!(stats.root_hash.to_u128(), root, "stored root hash moved");
}

#[test]
fn figure1_tree_content_address_is_golden() {
    check_golden(
        &phylo::builder::figure1_tree(),
        0x1fa6_8f55_f312_122d_33f9_db77_cd8b_822d,
        0xb4b7_63b5_8bb0_a6de,
    );
}

#[test]
fn yule_10k_content_address_is_golden() {
    check_golden(
        &yule_tree(10_000, 1.0, 7),
        0x959c_cee2_9ec7_32d7_0577_8791_abcb_96c7,
        0x7399_6b9d_904e_f8ac,
    );
}
