//! Bit-flip property test: any single flipped bit in a cleanly-written
//! repository file must be *detected* — either the open fails with a typed
//! error, or a scrub pass flags the damaged page. Zero false accepts, and
//! never a panic.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crimson::{Repository, RepositoryOptions};
use phylo::newick;
use simulation::birth_death::yule_tree;
use storage::PAGE_SIZE;

/// splitmix64: the same deterministic generator the fault schedule uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn flip_bit(path: &Path, byte_offset: u64, bit: u32) {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    f.seek(SeekFrom::Start(byte_offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    b[0] ^= 1 << bit;
    f.seek(SeekFrom::Start(byte_offset)).unwrap();
    f.write_all(&b).unwrap();
    f.sync_all().unwrap();
}

fn small_opts() -> RepositoryOptions {
    RepositoryOptions {
        buffer_pool_pages: 64,
        ..Default::default()
    }
}

/// Build a repository, load a tree, checkpoint and close cleanly.
fn build_repo(path: &Path) {
    let tree = yule_tree(60, 1.0, 11);
    let nwk = newick::write(&tree);
    let mut repo = Repository::create(path, small_opts()).unwrap();
    repo.load_newick("prop", &nwk).unwrap();
    repo.flush().unwrap();
}

#[test]
fn every_single_bit_flip_in_a_data_page_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    build_repo(&path);
    let file_len = std::fs::metadata(&path).unwrap().len();
    let page_count = file_len / PAGE_SIZE as u64;
    assert!(
        page_count > 4,
        "need a multi-page repository, got {page_count}"
    );

    let mut rng = 0x0B17_F11F_u64;
    let trials = 220usize;
    let mut detected = 0usize;
    for trial in 0..trials {
        // Pick a non-header page and a bit within it.
        let pid = 1 + splitmix64(&mut rng) % (page_count - 1);
        let byte = splitmix64(&mut rng) % PAGE_SIZE as u64;
        let bit = (splitmix64(&mut rng) % 8) as u32;
        let offset = pid * PAGE_SIZE as u64 + byte;
        flip_bit(&path, offset, bit);

        // Detection = the open itself fails typed, or the scrub pass flags
        // the damaged page. Either way: no panic, no silent acceptance.
        let caught = match Repository::open(&path, small_opts()) {
            Err(e) => {
                assert!(
                    format!("{e}").contains("checksum")
                        || format!("{e}").contains("corrupt")
                        || format!("{e}").contains("not a Crimson database")
                        || format!("{e}").contains("invalid"),
                    "trial {trial}: open error must be typed corruption, got {e}"
                );
                true
            }
            Ok(repo) => {
                let report = repo.scrub().unwrap();
                report.pages.pages_quarantined + report.pages.pages_repaired >= 1
            }
        };
        assert!(
            caught,
            "trial {trial}: flipped bit {bit} of byte {offset} (page {pid}) was silently accepted"
        );
        detected += 1;

        // Undo the flip; the file is bit-identical again.
        flip_bit(&path, offset, bit);
    }
    assert_eq!(detected, trials, "zero false accepts required");

    // After all that, the pristine file still opens and verifies cleanly.
    let repo = Repository::open(&path, small_opts()).unwrap();
    let report = repo.scrub().unwrap();
    assert_eq!(report.pages.pages_quarantined, 0);
    assert!(report.integrity.is_some());
}

#[test]
fn header_bit_flips_yield_a_typed_invalid_database_error() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    build_repo(&path);

    let mut rng = 0x0EADu64;
    for trial in 0..24 {
        let byte = splitmix64(&mut rng) % PAGE_SIZE as u64;
        let bit = (splitmix64(&mut rng) % 8) as u32;
        flip_bit(&path, byte, bit);
        match Repository::open(&path, small_opts()) {
            Err(e) => {
                let msg = format!("{e}");
                assert!(
                    msg.contains("not a Crimson database")
                        || msg.contains("invalid")
                        || msg.contains("checksum")
                        || msg.contains("corrupt"),
                    "trial {trial}: header flip must be a typed error, got {msg}"
                );
            }
            Ok(_) => panic!("trial {trial}: header flip (byte {byte} bit {bit}) was accepted"),
        }
        flip_bit(&path, byte, bit);
    }
}
