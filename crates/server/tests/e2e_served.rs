//! Satellite: end-to-end serving. N concurrent connections across two
//! tenants drive mixed lca/clade/projection/compare/load/experiment
//! traffic over loopback, and every deterministic response is
//! cross-validated byte-for-byte against a direct in-process `Repository`
//! mirror that applied the identical setup operations. Afterwards each
//! tenant passes its integrity check and the server reports zero protocol
//! errors.

use std::sync::Arc;

use crimson::experiment::{DistanceSource, ExperimentRunner, ExperimentSpec, Method};
use crimson::repository::{Repository, RepositoryOptions, StoredNodeId, TreeHandle};
use crimson::sampling::SamplingStrategy;
use crimson_server::dispatch::DispatchConfig;
use crimson_server::msg::{
    Request, Response, WireDurability, WireExperimentSpec, WireMethod, WireStrategy,
};
use crimson_server::server::{Server, ServerConfig};
use crimson_server::Client;

/// A deterministic ~32-leaf caterpillar-of-cherries Newick string.
fn gold_newick() -> String {
    let mut s = String::from("(L0:1.0,L1:1.0):0.5");
    for i in 1..16 {
        s = format!(
            "(({s},(L{}:1.0,L{}:1.0):0.5):0.25,X{i}:2.0):0.5",
            2 * i,
            2 * i + 1
        );
    }
    format!("({s},OUT:3.0);")
}

/// A small per-connection tree, unique per (tenant, thread).
fn small_newick(tag: &str) -> String {
    format!("((A_{tag}:1,B_{tag}:1):1,(C_{tag}:1,D_{tag}:1):1);")
}

/// Everything the concurrent phase cross-validates, precomputed from the
/// in-process mirror.
struct Expected {
    gold: TreeHandle,
    leaves: Vec<u64>,
    /// (a, b) -> lca for a few deterministic pairs.
    lcas: Vec<(u64, u64, u64)>,
    /// spanning clade of the first three leaves.
    clade_input: Vec<u64>,
    clade: Vec<u64>,
    /// projection of the first five leaves, as Newick.
    proj_input: Vec<u64>,
    proj_newick: String,
    /// seeded uniform sample.
    sample: Vec<u64>,
}

fn build_mirror(dir: &std::path::Path, tenant: &str) -> Expected {
    let mut repo = Repository::create(dir.join(tenant), RepositoryOptions::default()).unwrap();
    repo.load_newick("gold", &gold_newick()).unwrap();
    let reader = repo.reader().unwrap();
    let gold = reader.read(|v| v.tree_by_name("gold")).unwrap().handle;
    let leaf_ids = reader.leaves(gold).unwrap();
    let leaves: Vec<u64> = leaf_ids.iter().map(|n| n.0).collect();
    let mut lcas = Vec::new();
    for i in 0..6 {
        let a = leaf_ids[i * 3 % leaf_ids.len()];
        let b = leaf_ids[(i * 7 + 2) % leaf_ids.len()];
        let l = reader.lca(a, b).unwrap();
        lcas.push((a.0, b.0, l.0));
    }
    let clade_in: Vec<StoredNodeId> = leaf_ids.iter().take(3).copied().collect();
    let clade = reader
        .minimal_spanning_clade(&clade_in)
        .unwrap()
        .iter()
        .map(|n| n.0)
        .collect();
    let proj_in: Vec<StoredNodeId> = leaf_ids.iter().take(5).copied().collect();
    let proj_newick = phylo::newick::write(&reader.project(gold, &proj_in).unwrap());
    let sample = reader
        .sample_uniform(gold, 8, 0xC0FFEE)
        .unwrap()
        .iter()
        .map(|n| n.0)
        .collect();
    // Mirror the experiment the served side will run, so record counts are
    // comparable.
    let spec = ExperimentSpec {
        name: "e2e-sweep".into(),
        methods: vec![Method::Upgma, Method::NeighborJoining],
        strategies: vec![SamplingStrategy::Uniform { k: 8 }],
        replicates: 1,
        distance_source: DistanceSource::TruePatristic,
        compute_triplets: false,
        seed: 42,
        workers: 2,
        cell_commits: false,
    };
    let record = ExperimentRunner::new(&mut repo, gold).run(&spec).unwrap();
    assert_eq!(record.runs, 2, "mirror sweep is 2 methods x 1 strategy x 1");
    Expected {
        gold,
        leaves,
        lcas,
        clade_input: clade_in.iter().map(|n| n.0).collect(),
        clade,
        proj_input: proj_in.iter().map(|n| n.0).collect(),
        proj_newick,
        sample,
    }
}

fn assert_reads_match(client: &mut Client, exp: &Expected) {
    match client.call(&Request::ListTrees).unwrap() {
        Response::Trees(trees) => {
            let gold = trees
                .iter()
                .find(|t| t.name == "gold")
                .expect("gold listed");
            assert_eq!(gold.id, exp.gold.0);
        }
        other => panic!("ListTrees: {other:?}"),
    }
    match client.call(&Request::Leaves { tree: exp.gold.0 }).unwrap() {
        Response::Nodes(ids) => assert_eq!(ids, exp.leaves, "leaves differ from mirror"),
        other => panic!("Leaves: {other:?}"),
    }
    for &(a, b, want) in &exp.lcas {
        match client.call(&Request::Lca { a, b }).unwrap() {
            Response::Node(got) => assert_eq!(got, want, "lca({a},{b})"),
            other => panic!("Lca: {other:?}"),
        }
        match client
            .call(&Request::IsAncestor {
                ancestor: want,
                node: a,
            })
            .unwrap()
        {
            Response::Flag(f) => assert!(f, "lca must be an ancestor"),
            other => panic!("IsAncestor: {other:?}"),
        }
    }
    match client
        .call(&Request::SpanningClade {
            nodes: exp.clade_input.clone(),
        })
        .unwrap()
    {
        Response::Nodes(ids) => assert_eq!(ids, exp.clade, "spanning clade differs"),
        other => panic!("SpanningClade: {other:?}"),
    }
    match client
        .call(&Request::Project {
            tree: exp.gold.0,
            leaves: exp.proj_input.clone(),
        })
        .unwrap()
    {
        Response::Newick(s) => assert_eq!(s, exp.proj_newick, "projection differs byte-for-byte"),
        other => panic!("Project: {other:?}"),
    }
    match client
        .call(&Request::SampleUniform {
            tree: exp.gold.0,
            k: 8,
            seed: 0xC0FFEE,
        })
        .unwrap()
    {
        Response::Nodes(ids) => assert_eq!(ids, exp.sample, "seeded sample differs"),
        other => panic!("SampleUniform: {other:?}"),
    }
    match client
        .call(&Request::CompareStored {
            a: exp.gold.0,
            b: exp.gold.0,
            triplets: false,
        })
        .unwrap()
    {
        Response::Comparison(c) => {
            assert_eq!(c.rf.distance, 0);
            assert_eq!(c.rooted_rf.distance, 0);
        }
        other => panic!("CompareStored: {other:?}"),
    }
}

#[test]
fn served_traffic_matches_in_process_engine() {
    let server_root = tempfile::tempdir().unwrap();
    let mirror_root = tempfile::tempdir().unwrap();
    let tenants = ["alpha", "beta"];

    // The in-process ground truth, same ops in the same order.
    let expected: Vec<Expected> = tenants
        .iter()
        .map(|t| build_mirror(mirror_root.path(), t))
        .collect();

    let config = ServerConfig {
        dispatch: DispatchConfig {
            workers: 4,
            ..DispatchConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(config, server_root.path()).unwrap();
    let addr = server.addr();

    // Deterministic setup phase: one connection per tenant performs the
    // exact op sequence the mirror ran, so stored ids line up.
    for (t, exp) in tenants.iter().zip(&expected) {
        let mut c = Client::connect(addr).unwrap();
        c.attach(t).unwrap();
        match c
            .load_tree("gold", &gold_newick(), WireDurability::Sync)
            .unwrap()
        {
            Response::TreeLoaded { tree, .. } => assert_eq!(tree, exp.gold.0),
            other => panic!("gold load: {other:?}"),
        }
        match c
            .call(&Request::RunExperiment {
                spec: WireExperimentSpec {
                    name: "e2e-sweep".into(),
                    gold: "gold".into(),
                    methods: vec![WireMethod::Upgma, WireMethod::NeighborJoining],
                    strategies: vec![WireStrategy::Uniform { k: 8 }],
                    replicates: 1,
                    seed: 42,
                    workers: 2,
                    compute_triplets: false,
                },
            })
            .unwrap()
        {
            Response::Experiment { runs, .. } => assert_eq!(runs, 2),
            other => panic!("experiment: {other:?}"),
        }
    }

    // Concurrent phase: 8 connections (4 per tenant), mixed traffic.
    let expected = Arc::new(expected);
    let mut handles = Vec::new();
    for conn in 0..8usize {
        let tenant = tenants[conn % 2].to_string();
        let exp = Arc::clone(&expected);
        handles.push(std::thread::spawn(move || {
            let eidx = conn % 2;
            let mut client = Client::connect(addr).unwrap();
            client.attach(&tenant).unwrap();
            for round in 0..5 {
                assert_reads_match(&mut client, &exp[eidx]);
                // Writes ride along: async-durability load, then barrier.
                let tag = format!("c{conn}r{round}");
                let name = format!("conn-{tag}");
                let loaded = match client
                    .load_tree(&name, &small_newick(&tag), WireDurability::Async)
                    .unwrap()
                {
                    Response::TreeLoaded { tree, leaves, .. } => {
                        assert_eq!(leaves, 4);
                        tree
                    }
                    other => panic!("small load: {other:?}"),
                };
                match client.wait_durable().unwrap() {
                    Response::Durable { .. } => {}
                    other => panic!("WaitDurable: {other:?}"),
                }
                // The loaded tree compares clean against itself.
                match client
                    .call(&Request::CompareStored {
                        a: loaded,
                        b: loaded,
                        triplets: true,
                    })
                    .unwrap()
                {
                    Response::Comparison(c) => {
                        assert_eq!(c.rf.distance, 0);
                        assert_eq!(c.triplet, Some(0.0));
                    }
                    other => panic!("self-compare: {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }

    // Post-run: integrity is clean per tenant and the counts add up —
    // mirror state plus the 4 connections x 5 rounds of 7-node trees.
    for (t, exp) in tenants.iter().zip(expected.iter()) {
        let mut c = Client::connect(addr).unwrap();
        c.attach(t).unwrap();
        match c.call(&Request::IntegrityCheck).unwrap() {
            Response::Integrity(i) => {
                assert_eq!(i.experiments, 1);
                assert_eq!(i.experiment_results, 2);
                // gold + 2 reconstructions + 20 connection trees.
                assert_eq!(i.trees, 23, "tenant {t}");
                assert_eq!(i.interval_entries, i.nodes);
            }
            other => panic!("IntegrityCheck: {other:?}"),
        }
        // The gold tree still reads identically after all the writes.
        assert_reads_match(&mut c, exp);
    }

    // Zero protocol errors across the whole run.
    let mut c = Client::connect(addr).unwrap();
    match c.call(&Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.protocol_rejects, 0, "no protocol errors in e2e");
            assert!(s.reads > 0 && s.writes > 0);
        }
        other => panic!("Stats: {other:?}"),
    }

    server.shutdown();
}

/// Admission control: a tiny queue and window shed load with typed
/// `Overloaded`, and the connection keeps working.
#[test]
fn overload_is_shed_with_typed_response() {
    let dir = tempfile::tempdir().unwrap();
    let config = ServerConfig {
        dispatch: DispatchConfig {
            workers: 1,
            max_queue: 2,
            ..DispatchConfig::default()
        },
        conn_window: 4,
        ..ServerConfig::default()
    };
    let server = Server::start(config, dir.path()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.attach("t").unwrap();
    match client
        .load_tree("base", &gold_newick(), WireDurability::Sync)
        .unwrap()
    {
        Response::TreeLoaded { .. } => {}
        other => panic!("load: {other:?}"),
    }

    // Occupy the one dispatch worker first: a Sync load of a 5,000-leaf
    // tree, sent without awaiting its reply, runs for many times longer
    // than the burst below takes to arrive. The burst then meets a busy
    // worker, so past the 2-deep queue it must be shed.
    let big = simulation::birth_death::yule_tree(5_000, 1.0, 3);
    let load = client
        .send(&Request::LoadTree {
            name: "busy".to_string(),
            newick: phylo::newick::write(&big),
            durability: WireDurability::Sync,
        })
        .unwrap();

    // Flood far past window + queue; some must be shed as Overloaded and
    // every correlation must still get exactly one response.
    let mut corrs = Vec::new();
    for _ in 0..64 {
        corrs.push(client.send(&Request::ListTrees).unwrap());
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    for corr in corrs {
        match client.recv_matching(corr).unwrap() {
            Response::Trees(_) => ok += 1,
            Response::Error(e) if e.code == crimson_server::ErrorCode::Overloaded => shed += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(ok + shed, 64);
    assert!(shed > 0, "a 2-deep queue under a 64-burst must shed");
    assert!(ok > 0, "admitted requests still succeed");
    match client.recv_matching(load).unwrap() {
        Response::TreeLoaded { leaves, .. } => assert_eq!(leaves, 5_000),
        other => panic!("busy load: {other:?}"),
    }

    // And afterwards the connection is healthy.
    match client.call(&Request::ListTrees).unwrap() {
        Response::Trees(trees) => assert_eq!(trees.len(), 2),
        other => panic!("post-overload: {other:?}"),
    }
    server.shutdown();
}

/// Pipelined reads beside `Sync` loads: one connection keeps 16 mixed
/// reads in flight for 20,000 requests while a second connection loads
/// trees with `Sync` durability. Every correlation id is answered exactly
/// once, no reply carries an id that was never sent, and each read answers
/// the same every time it is asked.
#[test]
fn pipelined_reads_beside_sync_loads_answer_each_id_once() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    const DEPTH: usize = 16;
    const TOTAL: usize = 20_000;

    let dir = tempfile::tempdir().unwrap();
    let server = Server::start(ServerConfig::default(), dir.path()).unwrap();
    let addr = server.addr();
    let mut reads = Client::connect(addr).unwrap();
    reads.attach("t").unwrap();
    let gold = simulation::birth_death::yule_tree(400, 1.0, 7);
    let tree = match reads
        .load_tree("gold", &phylo::newick::write(&gold), WireDurability::Sync)
        .unwrap()
    {
        Response::TreeLoaded { tree, .. } => tree,
        other => panic!("gold load: {other:?}"),
    };
    let leaves = match reads.call(&Request::Leaves { tree }).unwrap() {
        Response::Nodes(ids) => ids,
        other => panic!("Leaves: {other:?}"),
    };

    // A fixed cycle of mixed reads over the gold tree.
    let mut ops = Vec::new();
    for i in 0..64usize {
        let a = leaves[i * 37 % leaves.len()];
        let b = leaves[(i * 101 + 5) % leaves.len()];
        ops.push(match i % 6 {
            0 => Request::Lca { a, b },
            1 => Request::IsAncestor {
                ancestor: a,
                node: b,
            },
            2 => Request::SpanningClade {
                nodes: vec![a, b, leaves[i % leaves.len()]],
            },
            3 => Request::Project {
                tree,
                leaves: (0..6)
                    .map(|j| leaves[(i + j * 53) % leaves.len()])
                    .collect(),
            },
            4 => Request::SampleUniform {
                tree,
                k: 8,
                seed: i as u64,
            },
            _ => Request::TreeByName {
                name: "gold".to_string(),
            },
        });
    }

    // The second connection loads small trees `Sync` until the reads end.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.attach("t").unwrap();
            let mut loads = 0u64;
            while !stop.load(Ordering::Acquire) {
                let tree = simulation::birth_death::yule_tree(32, 1.0, loads);
                let name = format!("load-{loads}");
                match client
                    .load_tree(&name, &phylo::newick::write(&tree), WireDurability::Sync)
                    .unwrap()
                {
                    Response::TreeLoaded { leaves, .. } => assert_eq!(leaves, 32),
                    other => panic!("sync load: {other:?}"),
                }
                loads += 1;
            }
            loads
        })
    };

    // Correlation id -> op index of every request still in flight.
    let mut in_flight: HashMap<u64, usize> = HashMap::new();
    let mut first_answer: Vec<Option<Response>> = vec![None; ops.len()];
    let (mut sent, mut answered) = (0usize, 0usize);
    while answered < TOTAL {
        while sent < TOTAL && in_flight.len() < DEPTH {
            let op = sent % ops.len();
            let corr = reads.send(&ops[op]).unwrap();
            assert!(
                in_flight.insert(corr, op).is_none(),
                "correlation id {corr} sent twice"
            );
            sent += 1;
        }
        let (corr, resp) = reads.recv().unwrap();
        let op = in_flight.remove(&corr).unwrap_or_else(|| {
            panic!("reply to correlation id {corr}, which is not in flight: {resp:?}")
        });
        answered += 1;
        assert!(
            !matches!(resp, Response::Error(_)),
            "read {:?} failed: {resp:?}",
            ops[op]
        );
        match &first_answer[op] {
            Some(first) => assert_eq!(&resp, first, "read {:?} changed its answer", ops[op]),
            None => first_answer[op] = Some(resp),
        }
    }
    stop.store(true, Ordering::Release);
    let loads = writer.join().expect("writer panicked");
    assert!(in_flight.is_empty(), "unanswered ids: {in_flight:?}");
    assert_eq!(sent, TOTAL);
    assert!(loads > 0, "the loads ran beside the reads");

    // Nothing else arrives: a probe's reply is the next frame on the wire.
    let probe = reads.send(&Request::Ping).unwrap();
    assert_eq!(reads.recv().unwrap().0, probe, "a stray reply was queued");
    server.shutdown();
}
