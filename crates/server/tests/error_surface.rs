//! Satellite: the full error surface maps to typed wire codes, round-trips
//! through the codec, and never costs the client its connection when the
//! failure is the engine's (not the framing's).

use crimson::CrimsonError;
use crimson_server::msg::{Request, Response, WireDurability};
use crimson_server::server::{Server, ServerConfig};
use crimson_server::wire::{crimson_code, storage_code, ErrorCode, WireError, ALL_ERROR_CODES};
use crimson_server::Client;
use storage::StorageError;

/// Every defined code survives `encode(Response::Error) -> decode`
/// byte-for-byte, including its message.
#[test]
fn every_error_code_round_trips_on_the_wire() {
    for (i, &code) in ALL_ERROR_CODES.iter().enumerate() {
        let err = WireError::new(code, format!("message #{i} for {code:?}"));
        let resp = Response::Error(err.clone());
        let payload = resp.encode(i as u64);
        let (corr, back) = Response::decode(&payload).expect("decode");
        assert_eq!(corr, i as u64);
        assert_eq!(back, Response::Error(err));
    }
}

/// `from_u16` is the inverse of `as_u16` over the whole surface, and
/// unknown numbers degrade to `Internal` instead of panicking.
#[test]
fn code_numbers_are_stable_and_total() {
    for &code in ALL_ERROR_CODES {
        assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
    }
    assert_eq!(ErrorCode::from_u16(0xFFFE), ErrorCode::Internal);
}

/// The storage-side mapping hits the codes the protocol contract names.
#[test]
fn storage_variants_map_to_required_codes() {
    assert_eq!(
        storage_code(&StorageError::WriterPoisoned("fsync failed".into())),
        ErrorCode::WriterPoisoned
    );
    assert_eq!(storage_code(&StorageError::ReadOnly), ErrorCode::ReadOnly);
    assert_eq!(
        storage_code(&StorageError::SnapshotRetired { epoch: 3, floor: 9 }),
        ErrorCode::SnapshotRetired
    );
    assert_eq!(
        storage_code(&StorageError::Corrupted("bad page".into())),
        ErrorCode::Corrupted
    );
}

/// The crimson-side mapping distinguishes caller mistakes from damage, and
/// forwards wrapped storage errors unchanged.
#[test]
fn crimson_variants_map_to_required_codes() {
    assert_eq!(
        crimson_code(&CrimsonError::UnknownTree("x".into())),
        ErrorCode::UnknownTree
    );
    assert_eq!(
        crimson_code(&CrimsonError::UnknownNode(5)),
        ErrorCode::UnknownNode
    );
    assert_eq!(
        crimson_code(&CrimsonError::DuplicateTree("x".into())),
        ErrorCode::DuplicateTree
    );
    assert_eq!(
        crimson_code(&CrimsonError::Busy("burst".into())),
        ErrorCode::Busy
    );
    assert_eq!(
        crimson_code(&CrimsonError::Storage(StorageError::ReadOnly)),
        ErrorCode::ReadOnly
    );
    assert_eq!(
        crimson_code(&CrimsonError::Storage(StorageError::WriterPoisoned(
            "died".into()
        ))),
        ErrorCode::WriterPoisoned
    );
    // The message carries the engine's Display text.
    let wire = WireError::from(&CrimsonError::UnknownTree("oak".into()));
    assert!(wire.message.contains("oak"), "{}", wire.message);
}

/// Engine errors over a live connection are typed responses, not
/// disconnects: the same session keeps working afterwards.
#[test]
fn engine_errors_do_not_drop_the_connection() {
    let dir = tempfile::tempdir().unwrap();
    let server = Server::start(ServerConfig::default(), dir.path()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Request before attach: typed NoTenant.
    match client.call(&Request::ListTrees).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::NoTenant),
        other => panic!("expected NoTenant, got {other:?}"),
    }

    client.attach("t1").unwrap();

    // Unknown tree name: typed UnknownTree.
    match client
        .call(&Request::TreeByName {
            name: "nope".into(),
        })
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownTree),
        other => panic!("expected UnknownTree, got {other:?}"),
    }

    // Unknown handle: typed UnknownTreeId.
    match client
        .call(&Request::CompareStored {
            a: 999,
            b: 999,
            triplets: false,
        })
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownTreeId),
        other => panic!("expected UnknownTreeId, got {other:?}"),
    }

    // Unknown node id: typed UnknownNode.
    match client
        .call(&Request::Lca {
            a: u64::MAX - 1,
            b: u64::MAX,
        })
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownNode),
        other => panic!("expected UnknownNode, got {other:?}"),
    }

    // Unknown node ids are refused before any same-node or cross-tree
    // short circuit: lca(x, x), is_ancestor(x, x) and is_ancestor across
    // two (missing) trees are all typed UnknownNode.
    for request in [
        Request::Lca {
            a: u64::MAX,
            b: u64::MAX,
        },
        Request::IsAncestor {
            ancestor: u64::MAX,
            node: u64::MAX,
        },
        Request::IsAncestor {
            ancestor: 7 << 32,
            node: (9 << 32) | 3,
        },
    ] {
        match client.call(&request).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownNode, "{request:?}"),
            other => panic!("expected UnknownNode for {request:?}, got {other:?}"),
        }
    }

    // Malformed Newick: typed TreeParse.
    match client
        .load_tree("bad", "((A,B", WireDurability::Sync)
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::TreeParse),
        other => panic!("expected TreeParse, got {other:?}"),
    }

    // Bad tenant names: typed BadTenantName, session unharmed.
    for bad in ["../escape", "", ".hidden", "a/b"] {
        match client.attach(bad).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadTenantName, "{bad:?}"),
            other => panic!("expected BadTenantName for {bad:?}, got {other:?}"),
        }
    }

    // Duplicate tree: first load fine, second typed DuplicateTree.
    match client
        .load_tree("t", "((A:1,B:1):1,C:2);", WireDurability::Sync)
        .unwrap()
    {
        Response::TreeLoaded { .. } => {}
        other => panic!("expected TreeLoaded, got {other:?}"),
    }
    match client
        .load_tree("t", "((A:1,B:1):1,C:2);", WireDurability::Sync)
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::DuplicateTree),
        other => panic!("expected DuplicateTree, got {other:?}"),
    }

    // After that parade of failures the connection still answers reads.
    match client.call(&Request::ListTrees).unwrap() {
        Response::Trees(trees) => assert_eq!(trees.len(), 1),
        other => panic!("expected Trees, got {other:?}"),
    }

    server.shutdown();
}
