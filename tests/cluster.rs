//! Cluster chaos tests: live partition migration under churn and
//! injected store faults. Whatever the membership schedule does — nodes
//! joining mid-run, draining gracefully, or dying by lease expiry while
//! a copier streams pages at them — the shadow-accounting audit must
//! find zero lost and zero duplicated pages, the fault pipeline must
//! never stall on the copier, and the whole run must be a pure function
//! of the seed.

use fluidmem::host::{HostAgent, HostConfig, VmSpec};
use fluidmem::kv::{
    ClusterHandle, ClusterStore, FaultInjectingStore, KeyValueStore, NodeId, RamCloudStore,
    TransportModel,
};
use fluidmem::sim::{FaultPlan, SimClock, SimDuration, SimRng};

const SEEDS: [u64; 4] = [7, 101, 4242, 90210];

/// A store node wrapped in mild fault injection: slow replicas and
/// transient refusals exercise the retry/failover taxonomy without
/// breaking the applied-iff-acknowledged property the shadow accounting
/// relies on (timeouts in this simulator are applied-but-unacknowledged,
/// which retries make idempotent).
fn chaotic_node(seed: u64, id: NodeId, clock: &SimClock) -> Box<dyn KeyValueStore> {
    let inner = RamCloudStore::new(
        1 << 26,
        clock.clone(),
        SimRng::seed_from_u64(seed.wrapping_mul(2027).wrapping_add(u64::from(id))),
    );
    let plan = FaultPlan::new(SimRng::seed_from_u64(seed ^ (0xFA17 + u64::from(id))))
        .with_slow_replica(0.05)
        .with_transient_error(0.04);
    Box::new(FaultInjectingStore::new(
        Box::new(inner),
        plan,
        clock.clone(),
    ))
}

fn clustered_host(seed: u64, nodes: u32) -> HostAgent {
    let clock = SimClock::new();
    let mut cluster = ClusterStore::new(
        clock.clone(),
        SimRng::seed_from_u64(seed ^ 0xC0B1_E500),
        TransportModel::infiniband_verbs(),
        64,
        16,
    );
    for id in 0..nodes {
        cluster.add_node(id, chaotic_node(seed, id, &clock));
    }
    let config = HostConfig::new(192)
        .min_pages(16)
        .rebalance_interval(256)
        .cluster_interval(64);
    let mut host = HostAgent::with_cluster(
        config,
        ClusterHandle::new(cluster),
        SimDuration::from_micros(1_000_000),
        clock,
        SimRng::seed_from_u64(seed + 100),
    );
    host.add_vm(VmSpec::new("a", 96).weight(2));
    host.add_vm(VmSpec::new("b", 96));
    host.add_vm(VmSpec::new("c", 64));
    host
}

/// Ticks until the copier settles; heartbeat RTTs advance the shared
/// clock, so queued batch activations become due.
fn settle(agent: &mut HostAgent) {
    let handle = agent.cluster_handle().unwrap();
    for _ in 0..2_000 {
        agent.cluster_tick_now();
        if handle.with(|c| c.migrations_in_flight()) == 0 {
            return;
        }
    }
    panic!("cluster migrations never settled");
}

/// Every counter a run's cluster behaviour is summarized by.
fn counter_snapshot(agent: &HostAgent) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    agent.cluster_handle().unwrap().with(|c| {
        let k = c.counters();
        (
            k.migrations_started.get(),
            k.migrations_flipped.get(),
            k.migrations_aborted.get(),
            k.migrations_retargeted.get(),
            k.pages_copied.get(),
            k.pages_recopied.get(),
            k.node_joins.get(),
            k.node_leaves.get(),
            k.node_expirations.get(),
        )
    })
}

#[test]
fn live_migration_chaos_loses_no_pages() {
    for seed in SEEDS {
        let mut agent = clustered_host(seed, 2);
        agent.run(2_000);

        // A node joins; partitions start live-migrating toward it while
        // the VMs keep faulting through the ring.
        let clock = agent.clock().clone();
        agent.add_store_node(2, chaotic_node(seed, 2, &clock));
        let handle = agent.cluster_handle().unwrap();

        // The copier lives on a private timeline: driving it directly
        // must not move the shared clock the fault pipeline runs on.
        let before = agent.clock().now();
        handle.with(|c| c.tick(before));
        assert_eq!(
            agent.clock().now(),
            before,
            "seed {seed}: the copier stalled the fault pipeline's clock"
        );

        agent.run(2_000);
        // The first node leaves gracefully mid-run.
        agent.remove_store_node(0);
        agent.run(2_000);
        agent.drain();
        settle(&mut agent);

        let report = agent.audit_cluster().unwrap();
        assert!(report.checked > 0, "seed {seed}: audit covered nothing");
        assert!(
            report.is_clean(),
            "seed {seed}: {} lost, {} duplicated of {} pages",
            report.missing.len(),
            report.duplicated.len(),
            report.checked
        );
        assert!(
            handle.with(|c| c.counters().migrations_flipped.get()) > 0,
            "seed {seed}: churn must actually migrate partitions"
        );
        assert!(
            handle.with(|c| c.partitions_of(0).is_empty()),
            "seed {seed}: the leaver must drain fully"
        );
    }
}

#[test]
fn chaos_runs_are_byte_identical() {
    for seed in SEEDS {
        let build = || {
            let mut agent = clustered_host(seed, 2);
            agent.run(1_500);
            let clock = agent.clock().clone();
            agent.add_store_node(2, chaotic_node(seed, 2, &clock));
            agent.run(1_500);
            agent.remove_store_node(0);
            agent.run(1_500);
            agent.drain();
            settle(&mut agent);
            agent
        };
        let a = build();
        let b = build();
        assert_eq!(
            a.clock().now(),
            b.clock().now(),
            "seed {seed}: virtual time diverged"
        );
        assert_eq!(
            a.store_stats(),
            b.store_stats(),
            "seed {seed}: store stats diverged"
        );
        assert_eq!(
            counter_snapshot(&a),
            counter_snapshot(&b),
            "seed {seed}: cluster counters diverged"
        );
        for i in 0..3 {
            assert_eq!(
                a.vm_signals(i),
                b.vm_signals(i),
                "seed {seed}: vm{i} signals diverged"
            );
        }
        assert_eq!(
            a.telemetry().registry().snapshot(),
            b.telemetry().registry().snapshot(),
            "seed {seed}: telemetry diverged"
        );
    }
}

#[test]
fn lease_expiry_mid_migration_retargets_deterministically() {
    // The membership-under-churn contract: a lease expiring mid-migration
    // surfaces as a `Deleted` watch event — an ordered, replayable entry
    // in the coordination service's total order — and the handler aborts
    // the copies streaming at the dead node at the same virtual instant
    // every run, with no page lost.
    for seed in SEEDS {
        let build = || {
            let mut agent = clustered_host(seed, 3);
            agent.run(2_000);
            let clock = agent.clock().clone();
            agent.add_store_node(3, chaotic_node(seed, 3, &clock));
            let handle = agent.cluster_handle().unwrap();
            let streaming = handle.with(|c| c.migrations_in_flight());
            // The joiner dies (silently — its heartbeats just stop)
            // while the copier streams at it.
            agent.expire_store_node(3);
            agent.run(2_000);
            agent.drain();
            settle(&mut agent);
            (agent, streaming)
        };
        let (a, streaming_a) = build();
        let (b, streaming_b) = build();

        let handle = a.cluster_handle().unwrap();
        let (.., expirations) = counter_snapshot(&a);
        assert_eq!(expirations, 1, "seed {seed}: expiry must be counted once");
        assert!(!handle.with(|c| c.is_alive(3)), "seed {seed}");
        if streaming_a > 0 {
            assert!(
                handle.with(|c| c.counters().migrations_aborted.get()) > 0,
                "seed {seed}: in-flight copies at the dead node must abort"
            );
        }
        let report = a.audit_cluster().unwrap();
        assert!(
            report.is_clean(),
            "seed {seed}: {} lost, {} duplicated",
            report.missing.len(),
            report.duplicated.len()
        );

        assert_eq!(streaming_a, streaming_b, "seed {seed}");
        assert_eq!(a.clock().now(), b.clock().now(), "seed {seed}");
        assert_eq!(a.store_stats(), b.store_stats(), "seed {seed}");
        assert_eq!(counter_snapshot(&a), counter_snapshot(&b), "seed {seed}");
    }
}
