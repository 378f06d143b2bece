//! Multi-tenant host: several VMs, each with its own monitor, sharing
//! one DRAM budget and one key-value store — the paper's deployment
//! model (§IV: partitions keep tenants apart in the shared store), with
//! the host's DRAM arbiter deciding who holds how much of the budget.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use fluidmem::host::{HostAgent, HostConfig, VmSpec};
use fluidmem::kv::{KeyValueStore, RamCloudStore};
use fluidmem::sim::{SimClock, SimRng};

/// Host DRAM shared by every tenant's LRU buffer: 512 pages (2 MB).
const HOST_PAGES: u64 = 512;

fn report(agent: &HostAgent) {
    let mut granted = 0;
    for i in 0..agent.vm_count() {
        let signals = agent.vm_signals(i);
        granted += agent.vm_capacity(i);
        println!(
            "  {:<6} {}: granted {:>3}, resident {:>3}, {:>5} major faults",
            agent.vm_name(i),
            agent.vm_partition(i),
            agent.vm_capacity(i),
            signals.resident_pages,
            signals.major_faults,
        );
    }
    println!("  ({granted} of {HOST_PAGES} host pages granted)");
}

fn main() {
    let clock = SimClock::new();
    let rng = SimRng::seed_from_u64(21);

    // One host: every tenant gets at least 64 pages of the budget, which
    // is re-planned every 512 accesses.
    let store = RamCloudStore::new(1 << 30, clock.clone(), rng.fork("store"));
    let config = HostConfig::new(HOST_PAGES)
        .min_pages(64)
        .rebalance_interval(512);
    let mut agent = HostAgent::new(config, Box::new(store), clock, rng.fork("host"));

    // Three tenants land on the host, partitions allocated through the
    // coordination service. Two keep a modest working set; the third
    // churns through 4x the whole budget, four times as often.
    agent.add_vm(VmSpec::new("quiet1", 128));
    agent.add_vm(VmSpec::new("quiet2", 128));
    agent.add_vm(VmSpec::new("noisy", 2048).weight(4));

    agent.run(400);
    println!("after boot (even split):");
    report(&agent);

    agent.run(30_000);
    println!("\nafter the noisy tenant churns:");
    report(&agent);
    println!("(its faults pull DRAM its way: the quiet tenants are squeezed below their");
    println!(" 128-page working sets and start faulting, but never below the 64-page floor)");

    // A quiet tenant leaves; its partition vanishes from the shared
    // store and its DRAM goes back to the others.
    agent.drain();
    let before = agent.store().len();
    agent.remove_vm(0);
    println!(
        "\nquiet1 shut down: shared store {} -> {} pages, {} VMs remain",
        before,
        agent.store().len(),
        agent.vm_count()
    );
    report(&agent);

    // The survivors keep running against their own partitions.
    agent.run(2_000);
    println!(
        "\n2000 more accesses: fault p99 {:.1} us across the fleet",
        agent.aggregate_fault_percentile(0.99)
    );
}
